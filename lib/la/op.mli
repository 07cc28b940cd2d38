(** Real linear operators: one matrix, held dense or in CSR.

    The descriptor systems [(G + s C)] of reduced-order modelling are the
    callers. {!add} and {!scale} fold eagerly, so an operator is always a
    single concrete matrix and {!factorize} picks sparse or dense LU from
    its constructor. *)

type t = Dense of Mat.t | Sparse of Sparse.t

val dense : Mat.t -> t
val sparse : Sparse.t -> t
val scale : float -> t -> t

val add : t -> t -> t
(** Sparse plus sparse merges the patterns ({!Sparse.add}); a sum with a
    dense operand is dense. *)

val matvec : t -> Vec.t -> Vec.t
val matvec_t : t -> Vec.t -> Vec.t

val to_dense : t -> Mat.t
(** A fresh dense copy. *)

type factor = { solve : Vec.t -> Vec.t; solve_t : Vec.t -> Vec.t }

val factorize : t -> factor
(** {!Sparse_lu} for a [Sparse] operator, {!Lu} for a [Dense] one.
    @raise Lu.Singular (equivalently {!Sparse_lu.Singular}) on breakdown. *)
