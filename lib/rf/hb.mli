(** Single-tone harmonic balance: the one-tone view of {!Hbn}.

    Pseudospectral (collocation) formulation: the unknowns are [n_samples]
    uniform time samples of every circuit variable over one period; the
    steady-state equations

    {v D q(X) + f(X) = B v}

    use the exact spectral differentiation operator [D], making the method
    equivalent to classical harmonic balance while letting [q], [f] be
    evaluated pointwise in time. Newton's method solves the collocation
    system; the linear solves are either direct (dense, small circuits) or
    {b matrix-implicit GMRES with a block-diagonal per-harmonic complex
    preconditioner} — the scalable scheme the paper credits for making HB
    viable on full RF ICs ([10, 31] in the text).

    The Newton loop, both linear solvers and the preconditioner are
    {!Hbn}'s, run on a one-axis grid. This module only adds the
    single-tone seeding and retry strategy (a transient warm start and
    sample-count escalation) and repackages the grid as a sample
    matrix. *)

type linear_solver = Hbn.linear_solver = Direct | Matrix_free_gmres

type options = {
  n_samples : int;        (** time samples per period (power of 2 advised) *)
  max_newton : int;
  tol : float;            (** residual infinity-norm target *)
  solver : linear_solver;
  warm_periods : int;     (** transient periods integrated for the initial
                              guess; 0 starts from DC *)
  gmres_tol : float;
  precondition : bool;    (** disable only for ablation studies: unpreconditioned
                              GMRES on the HB Jacobian converges far slower *)
}

val default_options : options

type result = {
  circuit : Rfkit_circuit.Mna.t;
  freq : float;
  times : Rfkit_la.Vec.t;
  samples : Rfkit_la.Mat.t;   (** [n_samples] x [size]: waveforms by column *)
  newton_iters : int;
  residual : float;
  gmres_iters_total : int;
}

exception No_convergence of Rfkit_solve.Error.t
(** Rebinding of the shared {!Rfkit_solve.Error.No_convergence}. *)

val solve_outcome :
  ?budget:Rfkit_solve.Supervisor.budget ->
  ?options:options ->
  ?x0:Rfkit_la.Mat.t ->
  Rfkit_circuit.Mna.t ->
  freq:float ->
  result Rfkit_solve.Supervisor.outcome
(** Periodic steady state at fundamental [freq], supervised. [x0]
    optionally seeds the sample matrix (e.g. from a coarser run) and pins
    the sample count to its row count. Retry ladder: base, tightened
    Newton damping, longer transient warm-start, then doubled sample count
    (skipped when [x0] pins the grid). GMRES iteration totals surface in
    the report's [krylov_iterations]. *)

val waveform : result -> string -> Rfkit_la.Vec.t
(** One period of a node voltage. *)

val harmonic_amplitude : result -> string -> int -> float
(** Amplitude of harmonic [k] of a node voltage. *)

val residual_norm : Rfkit_circuit.Mna.t -> freq:float -> Rfkit_la.Mat.t -> float
(** Infinity norm of the HB residual for a given sample matrix (testing
    and cross-validation against other engines). *)
