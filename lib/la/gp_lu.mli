(** The left-looking (Gilbert-Peierls) sparse LU shared by {!Sparse_lu}
    and {!Csparse_lu}.

    All control lives here once: the symbolic plan, reach/dependency and
    pivot bookkeeping, structural-closure capture, the frozen-pivot
    refactor replay, [factor_cached], the fill-reducing-order wrap, the
    index traversal of the solves and the per-domain ledger. A field
    supplies only {!KERNELS}: column-level loops over whole value arrays
    and index ranges. Without flambda a functor over scalar operations
    would box every float of the real hot loop, so no kernel takes or
    returns a single scalar. *)

val pivot_decay : float
(** A frozen pivot below [pivot_decay] times its column magnitude makes
    a refactor fail over to a fresh analysis. *)

type 'v buf = { mutable idx : int array; mutable va : 'v array; mutable len : int }
(** Growable parallel (index, value) arrays; the control reserves room
    before a kernel appends. *)

type gather = private { g_ptr : int array; g_rows : int array; g_src : int array }
(** Column [k] of [P A P^T] as [(row, slot of A's values)] pairs in
    [g_ptr.(k) .. g_ptr.(k+1) - 1], rows increasing. *)

module type KERNELS = sig
  type v
  type m

  exception Singular

  val name : string
  (** Module name prefixed to [Invalid_argument] messages. *)

  val zero : v
  val csr : m -> int array * int array * v array
  val rows : m -> int
  val cols : m -> int

  val scatter : v array -> bool array -> int array -> int -> gather -> v array -> int -> int
  (** [scatter x touched list nt g a k] adds column [k] of [P A P^T]
      (values [a]) into [x]: a row not yet [touched] is marked, appended
      to [list] and set to its first entry; the others accumulate.
      Returns the new length of [list]. *)

  val apply :
    v array -> int -> bool array -> int array -> int -> int array -> v array -> int -> int -> bool ->
    int
  (** [apply x piv touched list nt rows vals lo hi prune]: one L column,
      [x.(rows) -= vals * x.(piv)] over [lo .. hi-1], appending each row
      not yet [touched] to [list]; returns the new length of [list], or
      [-1] without touching [x] when [prune] and [x.(piv)] is zero. *)

  val argmax : v array -> int array -> int -> int array -> int
  (** [argmax x touch nt pinv]: first row of [touch.(0 .. nt-1)] with
      [pinv < 0] of strictly largest magnitude, [-1] if all are zero. *)

  val emit :
    v array -> int array -> int -> int array -> int -> bool -> v buf -> v buf -> v array -> int ->
    unit
  (** [emit x touch nt pinv piv prune l u udiag k] stores pivot [x.(piv)]
      as [udiag.(k)], appends each touched row in order to [u] (pivoted
      rows other than [piv]) or to [l] (divided by the pivot), dropping
      zeros when [prune], and clears [x]. *)

  val store :
    v array -> int -> int array -> int -> int -> v array -> int array -> int -> int -> v array ->
    v array -> int -> bool
  (** [store x piv lrows l0 l1 lvals urows u0 u1 uvals udiag k]: the
      frozen-pivot column; [false] when [x.(piv)] decayed below
      {!pivot_decay} of the L column magnitude, else fills [udiag.(k)],
      [uvals] and [lvals] (divided by the pivot) and clears [x]. *)

  val sweep : v array -> int -> v array option -> int array -> v array -> int -> int -> unit
  (** [sweep y k diag rows vals lo hi]: [y.(k) <- y.(k) / d.(k)] when
      [diag = Some d], then [y.(rows) -= vals * y.(k)] unless [y.(k)] is
      zero. *)

  val dot : v array -> int -> v array option -> int array -> v array -> int -> int -> unit
  (** [dot z k diag rows vals lo hi]: [z.(k) -= sum vals * z.(rows)] in
      storage order, then divided by [d.(k)] when [diag = Some d]. *)

  val gather_perm : v array -> int array -> v array
  (** [gather_perm src idx] is [dst] with [dst.(i) = src.(idx.(i))]. *)

  val scatter_perm : v array -> int array -> v array
  (** [scatter_perm src idx] is [dst] with [dst.(idx.(i)) = src.(i)]. *)
end

module Make (K : KERNELS) : sig
  type t
  type symbolic

  exception Singular

  val factor : ?perm:int array -> K.m -> t
  val solve : t -> K.v array -> K.v array
  val solve_transposed : t -> K.v array -> K.v array
  val nnz : t -> int

  val dim : t -> int
  (** Order of the factored matrix. *)

  val analyze : ?perm:int array -> K.m -> symbolic * t
  val refactor : symbolic -> K.m -> t
  val factor_cached : ?perm:int array -> symbolic option ref -> K.m -> t
  val counts : unit -> int * int
  val reset_counts : unit -> unit
  val fill_nnz : unit -> int
end
