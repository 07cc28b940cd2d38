(** Maximum bipartite matching and coarse Dulmage-Mendelsohn decomposition
    of a sparsity pattern.

    Values are ignored: a stored entry is an edge between its row and its
    column. The matching size is the {e structural rank} — an upper bound
    on the numeric rank of every matrix sharing the pattern. A structural
    deficiency therefore proves the determinant is identically zero for
    all value assignments, which is what lets the linter reject a deck
    before any factorization is attempted. *)

type matching = {
  row_match : int array;  (** row -> matched column, [-1] if unmatched *)
  col_match : int array;  (** column -> matched row, [-1] if unmatched *)
  size : int;  (** |matching| = structural rank *)
}

type coarse = {
  m : matching;
  rank : int;
  over_rows : int list;
      (** Rows reachable by alternating paths from unmatched rows
          (ascending) — the overdetermined equations. Canonical: the set
          does not depend on which maximum matching was found. *)
  under_cols : int list;
      (** Columns reachable by alternating paths from unmatched columns
          (ascending) — the underdetermined unknowns. Canonical. *)
}

val max_matching : Rfkit_la.Sparse.t -> matching
(** A greedy pass (each row takes its lowest free column) followed by
    Kuhn's augmenting paths from the rows it left unmatched. O(rank * nnz)
    in the worst case, near-linear on circuit patterns. Which maximum
    matching is returned depends on the algorithm; its size does not. *)

val structural_rank : Rfkit_la.Sparse.t -> int

val decompose : Rfkit_la.Sparse.t -> coarse
(** Matching plus the two canonical alternating-reach sets. The system is
    structurally nonsingular iff [rank = rows = cols], in which case both
    lists are empty. *)
