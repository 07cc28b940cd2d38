(** Shooting method for periodic steady state.

    Newton iteration on [phi_T(x0) - x0 = 0] where [phi_T] integrates the
    circuit over one period with Gear-2 (BDF2) -- the integrator of choice
    for shooting because it neither damps oscillation amplitudes (backward
    Euler's flaw) nor parks algebraic-constraint multipliers at -1
    (trapezoidal's flaw on DAEs); the monodromy matrix
    [M = d phi_T / d x0] is propagated alongside the integration. This is
    the classical univariate method the paper benchmarks MMFT against
    (Fig 5), and its monodromy output is the input to the Floquet/phase-
    noise machinery of Section 3.

    [solve_autonomous] extends the system with the unknown period and a
    phase-anchor condition for oscillators. *)

exception No_convergence of Rfkit_solve.Error.t
(** Rebinding of the shared {!Rfkit_solve.Error.No_convergence}. *)

type options = {
  steps_per_period : int;
  max_newton : int;
  tol : float;           (** on |phi_T(x0) - x0| *)
  warm_periods : int;    (** transient periods before Newton starts *)
}

val default_options : options

type result = {
  circuit : Rfkit_circuit.Mna.t;
  period : float;
  x0 : Rfkit_la.Vec.t;              (** periodic initial state *)
  times : Rfkit_la.Vec.t;           (** sample instants over one period *)
  samples : Rfkit_la.Mat.t;         (** steps x size state trajectory *)
  monodromy : Rfkit_la.Mat.t;
  newton_iters : int;
  integration_steps : int;          (** total BE steps spent *)
}

val solve_outcome :
  ?budget:Rfkit_solve.Supervisor.budget ->
  ?options:options ->
  ?x0:Rfkit_la.Vec.t ->
  Rfkit_circuit.Mna.t ->
  freq:float ->
  result Rfkit_solve.Supervisor.outcome
(** Supervised forced solve: base attempt, tightened Newton damping, then
    a longer transient warm-start before shooting. *)

val solve_autonomous :
  ?options:options ->
  Rfkit_circuit.Mna.t ->
  freq_guess:float ->
  kick:(Rfkit_la.Vec.t -> unit) ->
  result
(** Oscillator steady state: also solves for the period. [kick] perturbs
    the DC operating point to knock the integration off the unstable
    equilibrium (e.g. bump a tank-node voltage). The phase condition
    anchors the state component with the largest oscillation amplitude. *)

val waveform : result -> string -> Rfkit_la.Vec.t
val state_derivative : result -> Rfkit_la.Mat.t
(** dx/dt along the orbit (steps x size), via spectral differentiation;
    the oscillator's tangent [xdot] used by phase-noise analysis. *)
