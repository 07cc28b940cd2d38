(** Krylov-subspace iterative solvers in operator form.

    All solvers take the matrix as a matvec closure so they work equally
    with dense, sparse, and matrix-implicit operators (harmonic-balance
    Jacobians, compressed MoM matrices). Left preconditioning is a closure
    applying an approximate inverse. This is the iterative linear algebra
    the paper's Section 2.1 relies on ("iterative linear algebra
    techniques [12] have been used to solve the large Jacobian matrix"). *)

type stats = { iterations : int; residual : float; converged : bool }

exception Non_finite of int
(** Raised by {!gmres} when a residual or Arnoldi basis vector picks up
    a NaN/Inf; the payload is the first offending unknown index. Failing
    fast here keeps one poisoned entry from silently corrupting the whole
    Krylov basis. *)

val gmres :
  ?m:int ->
  ?tol:float ->
  ?max_iter:int ->
  ?precond:(Vec.t -> Vec.t) ->
  (Vec.t -> Vec.t) ->
  Vec.t ->
  Vec.t * stats
(** [gmres ?m ?tol ?max_iter ?precond a b] solves [a x = b] by restarted
    GMRES(m). [m] is the restart length (default 30), [tol] the relative
    residual target (default 1e-10). *)

val cg :
  ?tol:float ->
  ?max_iter:int ->
  ?precond:(Vec.t -> Vec.t) ->
  (Vec.t -> Vec.t) ->
  Vec.t ->
  Vec.t * stats
(** Conjugate gradients; the operator must be symmetric positive definite. *)

val bicgstab :
  ?tol:float ->
  ?max_iter:int ->
  ?precond:(Vec.t -> Vec.t) ->
  (Vec.t -> Vec.t) ->
  Vec.t ->
  Vec.t * stats
