(** Complex linear operators — the frequency-domain twin of {!Op}.

    AC analysis builds [(G + j omega C)] as
    [add (of_real g) (scale (j omega) (of_real c))], which folds at once
    to one {!Csparse} matrix; the descriptor transfer of a dense reduced
    model stays {!Cmat}. *)

type t = Dense of Cmat.t | Sparse of Csparse.t

val dense : Cmat.t -> t
val of_real : Sparse.t -> t
val scale : Cx.t -> t -> t

val add : t -> t -> t
(** Sparse plus sparse merges the patterns ({!Csparse.add}); a sum with a
    dense operand is dense. *)

val matvec : t -> Cvec.t -> Cvec.t

val to_sparse_opt : t -> Csparse.t option
(** The CSR matrix of a [Sparse] operator; [None] for a dense one. *)

val factorize : t -> Cvec.t -> Cvec.t
(** [factorize a] factors a square operator once — {!Csparse_lu} for a
    [Sparse] operator, {!Clu} for a [Dense] one — and returns its solve.
    @raise Csparse_lu.Singular (= {!Clu.Singular}) on breakdown. *)
