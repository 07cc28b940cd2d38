(** Compressed sparse row storage shared by {!Sparse} and {!Csparse}.

    Holds the record and the index-only halves of the two algorithms that
    build a new pattern: the triplet sort/dedupe behind [of_triplets] and
    the sorted-column merge behind [add]. Both return slot maps; each
    field scatters its operands' values through them in one loop of its
    own, summing where a slot repeats. Without flambda, code that is
    generic over a scalar boxes every float it touches, so no value of
    either field passes through this module. *)

type 'v t = {
  nrows : int;
  ncols : int;
  row_ptr : int array;  (** length [nrows + 1] *)
  col_idx : int array;  (** sorted within each row *)
  values : 'v array;
}

val of_csr :
  string ->
  rows:int ->
  cols:int ->
  row_ptr:int array ->
  col_idx:int array ->
  values:'v array ->
  'v t
(** Wrap pre-built arrays without copying after checking their lengths;
    the string names the caller in [Invalid_argument]. *)

val sort_triplets :
  string -> rows:int -> cols:int -> (int * int * 'v) array -> int array * int array * int array
(** Check the coordinates, sort the array in place by (row, column) and
    return [(row_ptr, col_idx, slot)]: sorted triplet [k] belongs in
    stored entry [slot.(k)], and duplicates of one coordinate are adjacent
    and share a slot. *)

val merge : string -> 'a t -> 'b t -> int array * int array * int array * int array
(** Pattern of the sum of two same-shape matrices: [(row_ptr, col_idx,
    slot_a, slot_b)], where entry [k] of the first matrix lands in stored
    entry [slot_a.(k)] and entry [k] of the second in [slot_b.(k)]. *)

val pattern_of_pairs :
  string -> rows:int -> cols:int -> int array -> int array -> int -> int array * int array
(** [pattern_of_pairs who ~rows ~cols pi pj len]: the CSR pattern
    [(row_ptr, col_idx)] of the first [len] coordinate pairs
    [(pi.(k), pj.(k))], columns ascending within each row and repeated
    pairs stored once. Two counting sorts, O(len + rows + cols), no
    comparisons. *)
