(** Shooting method for periodic steady state, and the library's one
    period integrator and shooting Newton.

    Newton iteration on [phi_T(x0) - x0 = 0] where [phi_T] integrates the
    circuit over one period with Gear-2 (BDF2) -- the integrator of choice
    for shooting because it neither damps oscillation amplitudes (backward
    Euler's flaw) nor parks algebraic-constraint multipliers at -1
    (trapezoidal's flaw on DAEs); the monodromy matrix
    [M = d phi_T / d x0] is propagated alongside the integration (see
    {!integrate}: one symbolic LU cache serves a period's steps and
    monodromy factors under the circuit's ordering). This is
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

(** {1 The period integrator and the shooting Newton}

    Also behind {!Slice} (hierarchical shooting, the envelope method) and
    {!Mmft}. *)

type stepper = {
  engine : string;  (** the steps' Guard and fault-hook engine *)
  gear2 : bool;  (** Gear-2 after the start step, else backward Euler *)
  start : Rfkit_circuit.Tran.stop;  (** the backward-Euler start step's *)
  stop : Rfkit_circuit.Tran.stop;  (** every later step's *)
  period_cache : bool;
      (** one symbolic LU cache for a period's steps and monodromy
          factors; else one per step and a fresh factor per monodromy
          step *)
}

val integrate :
  ?with_monodromy:bool ->
  ?coupling:float * Rfkit_la.Vec.t array ->
  ?b:(float -> Rfkit_la.Vec.t) ->
  stepper ->
  Rfkit_circuit.Mna.t ->
  time:(int -> float) ->
  h:float ->
  m:int ->
  Rfkit_la.Vec.t ->
  Rfkit_la.Mat.t * Rfkit_la.Mat.t
(** [integrate st c ~time ~h ~m x0]: [m] steps of [h] from [x0] through
    {!Rfkit_circuit.Tran.implicit_step}, step [k] arriving at [time k]
    with sources [b (time k)] (default {!Rfkit_circuit.Mna.eval_b}) and,
    given [coupling] [(1/h1, q_ref)], the MPDE term of [q_ref.(k mod m)].
    Returns the [(m+1) x n] trajectory and the monodromy [dx_m/dx_0]
    (empty without [with_monodromy]), propagated with each step's own
    Jacobian:

    {v BE:    (a_c C1 + G1) M1 = (C0/h) M0
    Gear2: (a_c C1 + G1) M1 = (2/h) C0 M0 - (1/(2h)) C_-1 M_-1 v}
    @raise Rfkit_circuit.Tran.Step_failed also for a singular monodromy
    factor. *)

val newton :
  engine:string ->
  max_newton:int ->
  tol:float ->
  (Rfkit_la.Vec.t -> Rfkit_la.Mat.t * Rfkit_la.Mat.t) ->
  Rfkit_la.Vec.t ->
  ( Rfkit_la.Mat.t * Rfkit_la.Mat.t * Rfkit_solve.Supervisor.stats,
    Rfkit_solve.Supervisor.cause * Rfkit_solve.Supervisor.stats )
  Stdlib.result
(** [newton ~engine ~max_newton ~tol period x0]: Newton on
    [phi(x0) - x0 = 0] with [(M - I) dx = phi(x0) - x0] and full steps
    [x0 <- x0 - dx], [period] giving one period's trajectory and
    monodromy; converged at [|phi(x0) - x0| <= tol * max 1 |phi(x0)|],
    with that period's trajectory and monodromy. The loop is
    {!Rfkit_solve.Newton.run} (DESIGN.md sec. 8, "One Newton driver"): a
    failed step, a singular [M - I] (or a singular fault plan for
    [engine]) or a non-finite iterate ends it with its cause. Both sides
    carry the iterations and last residual. *)

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
