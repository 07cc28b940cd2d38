(** Two-tone (quasi-periodic) harmonic balance.

    Pseudospectral collocation on an [n1 x n2] bivariate grid: the MPDE
    with bi-periodic boundary conditions solved in the frequency domain,

    {v (D1 + D2) q(X) + f(X) = B v}

    with both spectral differentiation operators applied by 2-D FFT.
    Newton with matrix-implicit GMRES; the preconditioner is
    block-diagonal over the 2-D harmonic grid — one complex [n x n]
    factorization of [j(k1 w1 + k2 w2) C_avg + G_avg] per conjugate pair
    of mix bins. This is the engine for Fig 1's modulator spectrum: tones
    at 80 kHz and 1.62 GHz, six decades apart, cost the same as any other
    pair.

    The two-tone view of {!Hbn}: the solve is {!Hbn.run} on an
    [[| n1; n2 |]] grid with tones [[| f1; f2 |]], and the spectra read
    {!Hbn.mix_coefficients}; this module only maps options and result
    fields. *)

exception No_convergence of Rfkit_solve.Error.t
(** Rebinding of the shared {!Rfkit_solve.Error.No_convergence}. *)

type options = {
  n1 : int;             (** samples along the tone-1 (slow) axis *)
  n2 : int;             (** samples along the tone-2 (fast) axis *)
  max_newton : int;
  tol : float;
  gmres_tol : float;
}

val default_options : options

type result = {
  circuit : Rfkit_circuit.Mna.t;
  f1 : float;
  f2 : float;
  options : options;
  grid : Rfkit_la.Vec.t;  (** flattened [(i1 * n2 + i2) * n + k] *)
  newton_iters : int;
  residual : float;
  gmres_iters_total : int;
}

val solve_outcome :
  ?budget:Rfkit_solve.Supervisor.budget ->
  ?options:options ->
  Rfkit_circuit.Mna.t ->
  f1:float ->
  f2:float ->
  result Rfkit_solve.Supervisor.outcome
(** Supervised solve: base attempt, then a tightened-damping retry. GMRES
    stalls surface as {!Rfkit_solve.Supervisor.Krylov_stall}; a source
    frequency aligned with neither tone fails fast with
    {!Rfkit_solve.Supervisor.Unsupported}. *)

val node_grid : result -> string -> Rfkit_la.Mat.t
(** Bivariate node waveform ([n1] x [n2]). *)

val mix_amplitude : result -> string -> k1:int -> k2:int -> float
(** Amplitude of the spectral line at [k1 f1 + k2 f2] (k1, k2 may be
    negative). *)

type spur = { k1 : int; k2 : int; freq : float; amplitude : float }

val spectrum : result -> string -> spur list
(** All mix products sorted by frequency, amplitudes above numerical
    floor; the Fig 1 spur table. *)
