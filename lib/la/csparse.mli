(** Sparse complex matrices in CSR format, the complex counterpart of
    {!Sparse}.

    Frequency-domain systems [(G + j omega C)] are assembled from the real
    sparse stamps without densifying: {!of_real}, {!scale} and {!add}
    fold them into one matrix, and {!Csparse_lu} factors it in place,
    reading its columns (and any fill-reducing symmetric order) through
    an index map rather than a permuted or transposed copy.
    {!of_triplets} sums duplicate coordinates as {!Sparse.of_triplets}
    does; both share their index work through {!Csr}. *)

type t

val of_triplets : rows:int -> cols:int -> (int * int * Cx.t) list -> t
(** Duplicate [(i, j)] coordinates are summed, as in {!Sparse.of_triplets}. *)

val of_csr :
  rows:int ->
  cols:int ->
  row_ptr:int array ->
  col_idx:int array ->
  values:Cx.t array ->
  t
(** Adopt pre-built CSR arrays (no copy); lengths are validated. *)

val csr : t -> int array * int array * Cx.t array
(** [(row_ptr, col_idx, values)] — shared, not copied. *)

val of_real : Sparse.t -> t
val rows : t -> int
val cols : t -> int
val nnz : t -> int
val scale : Cx.t -> t -> t
val add : t -> t -> t
val matvec : t -> Cvec.t -> Cvec.t
val to_dense : t -> Cmat.t
