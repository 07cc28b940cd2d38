(** Approximate-minimum-degree fill-reducing ordering.

    Works on the symmetrized pattern [A + A^T] (values and diagonal
    ignored), eliminating a minimum-degree vertex per step and turning its
    neighbourhood into a clique, with degrees refreshed only around the
    eliminated vertex. The pivot, a minimum-degree vertex with ties broken
    toward the lowest index, comes from a binary heap, so a sparse
    pattern orders in O(nnz log n). Intended to be applied as a {e symmetric}
    permutation ahead of {!Rfkit_la.Sparse_lu}; partial pivoting inside
    the factorization keeps the result exact regardless of the order. *)

val adjacency_of_pattern : Rfkit_la.Sparse.t -> int array array
(** Symmetrized adjacency of [A + A^T], diagonal dropped: [adj.(v)] holds
    the neighbours of [v], each once, ascending. *)

val order_graph : int -> int array array -> int array
(** Minimum-degree ordering of an explicit adjacency-array graph
    (symmetric, no self loops, no repeated neighbour). The graph is
    consumed: elimination rewrites and regrows the arrays in place. *)

val order : Rfkit_la.Sparse.t -> int array
(** [order a] returns a permutation [perm] with [perm.(k)] = the original
    index eliminated at step [k] (new index [k] <-> original
    [perm.(k)]).
    @raise Invalid_argument if [a] is not square. *)
