(** Sparse real matrices in compressed sparse row (CSR) format.

    Built from coordinate (COO) triplets; duplicate entries are summed,
    which matches finite-difference and MNA stamping. Column indices within
    each row are kept sorted, which the merge-based operations rely on.
    The index work of {!of_triplets} and {!add} is {!Csr}'s, shared with
    {!Csparse}. *)

type t

val of_triplets : rows:int -> cols:int -> (int * int * float) list -> t
(** Sort once, then fill; duplicate [(i, j)] entries are summed in sorted
    order. *)

val of_csr :
  rows:int ->
  cols:int ->
  row_ptr:int array ->
  col_idx:int array ->
  values:float array ->
  t
(** Wrap pre-built CSR arrays without copying. The caller promises
    [row_ptr] ascending with [row_ptr.(rows) = Array.length values] and
    sorted column indices per row; used by {!Rfkit_circuit.Mna}'s pattern
    cache to share index arrays across Newton iterations. *)

val csr : t -> int array * int array * float array
(** Underlying [(row_ptr, col_idx, values)]. Shared, not copied — treat as
    read-only. *)

val rows : t -> int
val cols : t -> int
val nnz : t -> int
val density : t -> float
(** Fraction of stored entries: [nnz / (rows * cols)]. *)

val matvec : t -> Vec.t -> Vec.t
val matvec_t : t -> Vec.t -> Vec.t
val to_dense : t -> Mat.t

val of_dense : ?drop_tol:float -> Mat.t -> t
(** Entries with [|v| <= drop_tol] (default [0.]) are dropped. *)

val scale : float -> t -> t

val add : t -> t -> t
(** Pattern-merging sum; O(nnz a + nnz b). *)

val of_diag : Vec.t -> t
val scaled_identity : int -> float -> t
(** [scaled_identity n a] is [a * I_n]; combined with {!add} this covers
    gmin and shift stamping without touching the cached pattern. *)

val matmat : t -> Mat.t -> Mat.t
(** Sparse-times-dense product, used for monodromy/sensitivity propagation
    where the right-hand side is a dense block of columns. *)

val iter : (int -> int -> float -> unit) -> t -> unit
(** [iter f m] applies [f i j v] to every stored entry in row order. *)

val memory_bytes : t -> int
(** Approximate storage footprint (values + indices). *)
