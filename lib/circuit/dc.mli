(** DC operating point: Newton-Raphson on [f(x) + gmin x_nodes - b_dc = 0]
    run under the {!Rfkit_solve.Supervisor} with the ladder

    {v base -> tightened damping -> gmin stepping -> source ramping v}

    Each rung is attempted in order under the supervisor's iteration and
    wall-clock budgets; the winning strategy and per-attempt trace come
    back in the report. Every Newton solve is one run of
    {!Rfkit_solve.Newton.run} (DESIGN.md sec. 8, "One Newton driver"):
    this module supplies the residual and the Jacobian, the driver the
    loop, the guards, the damping and the stats. *)

type linear_solver = Rfkit_solve.Newton.linear_solver =
  | Dense_lu       (** dense Jacobian + dense LU: the pre-refactor path,
                       kept as a cross-check and small-circuit fallback *)
  | Sparse_direct  (** CSR stamping + pivoting sparse LU (default) *)
  | Gmres_ilu      (** CSR stamping + ILU(0)-preconditioned GMRES, with a
                       sparse-direct fallback if the iteration stalls *)
(** The Newton driver's linear-solve selector. *)

type options = {
  max_iter : int;       (** Newton iterations per continuation level (default 100) *)
  tol : float;          (** residual infinity-norm target (default 1e-9) *)
  damping : float;      (** max Newton step infinity-norm in volts (default 2.0) *)
  gmin_steps : int;     (** gmin continuation levels, 0 = drop the rung (default 8) *)
  solver : linear_solver;  (** inner linear solver (default [Sparse_direct]) *)
}

val default_options : options

val solve_outcome :
  ?budget:Rfkit_solve.Supervisor.budget ->
  ?options:options ->
  ?x0:Rfkit_la.Vec.t ->
  Mna.t ->
  Rfkit_la.Vec.t Rfkit_solve.Supervisor.outcome
(** Operating point with all sources at their DC value, as a typed
    supervisor outcome (never raises on convergence trouble). *)

val solve_at_outcome :
  ?budget:Rfkit_solve.Supervisor.budget ->
  ?options:options ->
  ?x0:Rfkit_la.Vec.t ->
  Mna.t ->
  float ->
  Rfkit_la.Vec.t Rfkit_solve.Supervisor.outcome
(** Like {!solve_outcome} with sources evaluated at time [t]. *)

val dc_point : Mna.t -> Rfkit_la.Vec.t
(** DC operating point as the seed of a steady-state or multi-time
    engine: the zero vector when DC fails. A typed interrupt or deadline
    abort is re-raised ({!Rfkit_solve.Deadline.Interrupted} /
    {!Rfkit_solve.Deadline.Expired}) so the enclosing supervisor records
    the cause instead of a cold start. *)

val certify :
  ?tol_scale:float -> Mna.t -> Rfkit_la.Vec.t -> Rfkit_solve.Certify.certificate
(** A-posteriori verification of a claimed operating point: finiteness
    plus the re-evaluated KCL residual [|b - f(x)|_inf], normalized by the
    excitation scale, against a 1e-6 relative threshold. [tol_scale]
    multiplies every threshold (tighten for an engineered-Suspect test,
    loosen for sloppy models). *)
