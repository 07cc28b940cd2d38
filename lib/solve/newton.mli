(** The one damped Newton driver of the library.

    DC, the transient step, the grid Newton of harmonic balance and
    MFDTD, forced and autonomous shooting and MMFT each solve
    [R(x) = 0] with their own residual and their own linear solve; the
    loop around them is this one. Per iteration it

    + stops with {!Supervisor.Newton_stall} once [max_iter] iterations
      ran;
    + polls {!Guard.check} on the iterate (deadline, interrupt, NaN
      fault plan, non-finite scan);
    + evaluates the residual and tests
      [|R(x)|_inf <= res_rel * max 1 reference + res_abs];
    + polls {!Faults.singular_now}, then solves [J dx = R(x)];
    + tests the step ([|dx|_inf <= step_rel * max 1 |x|_inf], when
      [step_rel > 0]);
    + applies the damped update [x <- x - s dx].

    It owns the {!Supervisor.stats} (iterations, last residual norm,
    Krylov iterations) and maps {!Rfkit_la.Lu.Singular} (and
    {!Rfkit_la.Clu.Singular}), {!Guard.Non_finite_found},
    {!Rfkit_la.Krylov.Non_finite}, {!Error.No_convergence} and
    {!Step_failed} raised inside an iteration to typed causes. See
    DESIGN.md §8, "One Newton driver". *)

(** When the iteration stops: plain values per caller, since a DC point,
    a transient step, a shooting period and an MPDE slice see different
    residual scales. *)
type stop = {
  max_iter : int;  (** iterations before a {!Supervisor.Newton_stall} *)
  res_abs : float;
  res_rel : float;
      (** converged when [|R(x)| <= res_rel * max 1 reference + res_abs],
          [reference] supplied by the residual ([res_rel = 0.]: the test
          is [|R(x)| <= res_abs]; [res_abs = neg_infinity]: never) *)
  step_rel : float;
      (** converged, without the update, when [|dx| <= step_rel * max 1 |x|]
          ([0.]: no step test) *)
  damping : float;
      (** cap on [|dx|] per update under the default damping rule
          ([infinity]: full steps) *)
}

exception Step_failed of { time : float; cause : Supervisor.cause }
(** A failed time step: its arrival instant and why. Raised by an
    engine that runs one Newton per step (the transient step); an outer
    Newton whose residual integrates such steps ends with the step's
    cause. *)

(** The sparse-matrix linear solve of the circuit engines. *)
type linear_solver =
  | Dense_lu  (** dense Jacobian + dense LU *)
  | Sparse_direct  (** pivoting sparse LU through a symbolic cache *)
  | Gmres_ilu
      (** ILU(0)-preconditioned GMRES, falling back to the sparse LU when
          it stalls *)

val linear_solve :
  linear_solver ->
  ?perm:int array ->
  symb:Rfkit_la.Sparse_lu.symbolic option ref ->
  dense:(unit -> Rfkit_la.Mat.t) ->
  sparse:(unit -> Rfkit_la.Sparse.t) ->
  Rfkit_la.Vec.t ->
  Rfkit_la.Vec.t * int
(** [linear_solve solver ?perm ~symb ~dense ~sparse r] solves [J dx = r]
    with the Jacobian built by [dense] or [sparse] as [solver] needs it;
    sparse factors go through {!Rfkit_la.Sparse_lu.factor_cached} under
    [perm] and [symb]. Returns [dx] and the GMRES iterations (0 for the
    direct solves). *)

val run :
  ?damp:(Rfkit_la.Vec.t -> Rfkit_la.Vec.t -> float) ->
  engine:string ->
  stop:stop ->
  residual:(Rfkit_la.Vec.t -> Rfkit_la.Vec.t * float) ->
  solve:(Rfkit_la.Vec.t -> Rfkit_la.Vec.t -> Rfkit_la.Vec.t * int) ->
  Rfkit_la.Vec.t ->
  ( Rfkit_la.Vec.t * Supervisor.stats,
    Supervisor.cause * Supervisor.stats )
  result
(** [run ~engine ~stop ~residual ~solve x0] iterates from a copy of
    [x0]. [residual x] returns [R(x)] and the reference of the relative
    test; [solve x r] returns [dx] with [J(x) dx = r] and its Krylov
    iterations. [damp x dx] gives the step scale [s]; by default
    [min 1 (damping / |dx|_inf)]. [engine] names the {!Guard} and
    {!Faults} polls. The closures may raise any exception the driver
    maps (see above); every other exception, the {!Deadline} aborts
    included, propagates. *)
