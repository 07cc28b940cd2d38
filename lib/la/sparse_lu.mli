(** Sparse LU factorization (left-looking Gilbert-Peierls) with partial
    pivoting, plus an ILU(0) incomplete factor for Krylov preconditioning.

    The real instance of {!Gp_lu}: the elimination, symbolic plan,
    refactoring, ordering wrap and ledger are shared with {!Csparse_lu};
    this module supplies the float column kernels and the real-only
    {!ilu0}.

    Partial pivoting matters for MNA systems: voltage-source and inductor
    branch rows carry a structurally zero diagonal, so any no-pivot scheme
    breaks down immediately. The exact factor mirrors dense {!Lu}'s
    semantics ([L U = P A]); {!ilu0} keeps the matrix's own pattern, guards
    zero pivots instead of failing, and is only ever used inside a
    preconditioner where approximation is acceptable. *)

exception Singular
(** Rebinding of {!Lu.Singular}, so call sites can catch either factor's
    breakdown uniformly. *)

type t

val factor : ?perm:int array -> Sparse.t -> t
(** [factor ?perm a] LU-factors [a]; with [perm] (a fill-reducing order,
    [perm.(k)] = original index at position [k], e.g. from
    [Rfkit_struct.Order]) the factorization runs on the symmetric
    permutation [A[perm,perm]] and {!solve}/{!solve_transposed} wrap the
    permutation transparently — only fill changes, never the answer.
    @raise Singular if a column has no nonzero pivot candidate. *)

val solve : t -> Vec.t -> Vec.t
val solve_transposed : t -> Vec.t -> Vec.t
(** Solve [A^T x = b] from the same factorization (Krylov model order
    reduction needs left as well as right Krylov spaces). *)

val solve_mat : t -> Mat.t -> Mat.t
(** Column-by-column {!solve}. *)

val nnz : t -> int
(** Stored entries in [L] and [U] combined (fill-in included). *)

type symbolic
(** Structural elimination plan captured from one pivoting factorization:
    the pivot order, the structural L/U column patterns (closure, explicit
    zeros kept) and, per column, the set of earlier columns that update
    it. Valid for every matrix with the same sparsity pattern. *)

val analyze : ?perm:int array -> Sparse.t -> symbolic * t
(** Full partial-pivoting factorization that also records the symbolic
    plan for later {!refactor}s. The ordering, if any, is captured in the
    plan and re-applied by every {!refactor}.
    @raise Singular as {!factor}. *)

val refactor : symbolic -> Sparse.t -> t
(** Numeric refactorization with the analyzed pivot order frozen: no
    pivot search and no per-column scan over all previous pivots, the
    KLU-style fast path for Newton re-stamps of a fixed pattern.
    @raise Singular when a frozen pivot decayed below [1e-10] of its
    column magnitude (the caller should re-{!analyze}).
    @raise Invalid_argument when the matrix's sparsity pattern (shape,
    row pointers or column indices) differs from the analyzed one. *)

val factor_cached : ?perm:int array -> symbolic option ref -> Sparse.t -> t
(** Factor through a caller-held symbolic cache: reuse the cached plan
    when the sparsity pattern (compared index for index, not just by
    nnz) and the requested ordering match, transparently
    falling back to a fresh {!analyze} (updating the cache) on a pattern
    change, ordering change or pivot decay. Newton loops hold one cache
    per linearization site; the fill-reducing order is thus computed into
    the plan once and reused across all same-pattern refactorizations. *)

val counts : unit -> int * int
(** [(refactors, full_factorizations)] since {!reset_counts} — the
    refactor-vs-resymbolic split reported by [rfsim --stats]. Counted per
    domain: a domain sees only the factorizations it ran itself. *)

val reset_counts : unit -> unit

val fill_nnz : unit -> int
(** nnz(L+U) of the most recent factorization (full or re-) on the
    calling domain — the [fill_nnz=] observable of [rfsim --stats]. [0]
    until a sparse factorization has run there (or since
    {!reset_counts}). *)

type ilu

val ilu0 : Sparse.t -> ilu
(** Incomplete LU on the input's own sparsity pattern, no pivoting. Zero or
    tiny diagonals are replaced by 1.0 rather than raising: a degraded
    preconditioner still preconditions, while an exception would kill the
    surrounding GMRES ladder rung. *)

val ilu_apply : ilu -> Vec.t -> Vec.t
(** [ilu_apply f r] approximates [A^{-1} r]; shape matches
    {!Krylov.gmres}'s [precond] argument. *)
