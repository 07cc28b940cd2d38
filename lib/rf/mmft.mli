(** Multivariate Mixed Frequency-Time (MMFT) method.

    For circuits whose slow-scale signal path is nearly linear while the
    fast-scale action is strongly nonlinear (switching mixers,
    switched-capacitor filters), the slow dependence is captured by a
    short Fourier series — [2K+1] sample phases of the slow period — and
    the fast scale by shooting (paper Section 2.2, item 2; the Fig 4
    engine).

    Unknowns are the circuit states [y_m = x(s_m)] at the [2K+1] slow
    sample instants. Each is integrated through one fast period [T2]
    (backward Euler, monodromy alongside); quasi-periodicity requires

    {v phi(y_m) = sum_m' D[m,m'] y_m' v}

    with [D] the frequency-domain delay-by-T2 operator on band-limited
    T1-periodic sequences. Newton solves the coupled system. *)

exception No_convergence of Rfkit_solve.Error.t
(** Rebinding of the shared {!Rfkit_solve.Error.No_convergence}. A
    tone-spacing violation carries the fail-fast
    {!Rfkit_solve.Supervisor.Unsupported} cause. *)

type options = {
  slow_harmonics : int;  (** K: slow Fourier series has 2K+1 terms *)
  steps2 : int;          (** fast-axis BE steps per period *)
  max_newton : int;
  tol : float;
}

val default_options : options

type result = {
  circuit : Rfkit_circuit.Mna.t;
  f1 : float;
  f2 : float;
  options : options;
  sample_times : float array;
      (** slow instants s_m, snapped to multiples of the fast period so
          every phase sees the same carrier phase *)
  slices : Rfkit_la.Mat.t array;  (** per slow phase m: steps2 x n fast trajectory *)
  newton_iters : int;
  integration_steps : int;        (** total BE steps spent (cost metric) *)
}

val delay_matrix : k:int -> period1:float -> delay:float -> Rfkit_la.Mat.t
(** The [(2k+1)] square delay operator on uniform samples (exposed for
    testing: it must shift band-limited sequences exactly). *)

val delay_matrix_at :
  kmax:int -> period1:float -> delay:float -> float array -> Rfkit_la.Mat.t
(** Delay operator for arbitrary (distinct) sample instants. *)

val solve_outcome :
  ?budget:Rfkit_solve.Supervisor.budget ->
  ?options:options ->
  Rfkit_circuit.Mna.t ->
  f1:float ->
  f2:float ->
  result Rfkit_solve.Supervisor.outcome
(** Supervised solve: base attempt, then a fast-axis oversampling retry.
    Tone-spacing violations abort the ladder immediately. *)

val harmonic_waveform : result -> string -> int -> Rfkit_la.Cvec.t
(** [harmonic_waveform res node j]: the time-varying slow harmonic
    [H_j(tau)] of a node voltage over one fast period ([steps2] samples).
    This is what Fig 4 plots (j = 1 and j = 3). *)

val harmonic_magnitude : result -> string -> int -> Rfkit_la.Vec.t
(** [2 |H_j(tau)|] — the envelope amplitude of slow harmonic [j]. *)

val mix_amplitude : result -> string -> slow:int -> fast:int -> float
(** Amplitude of the spectral line at [slow * f1 + fast * f2] in the node
    voltage (e.g. Fig 4's 900.1 MHz component is [slow:1 ~fast:1]). *)
