(** Complex sparse LU factorization (left-looking Gilbert-Peierls) with
    partial pivoting — the complex instance of {!Gp_lu}, sharing all
    control (elimination, symbolic plan, refactoring, ordering wrap,
    ledger) with {!Sparse_lu} and supplying only [Cx.t] column kernels.

    Frequency-domain systems [(G + j omega C)] assemble as {!Csparse} and
    factor here directly, ending the dense [Cop.to_dense] + {!Clu}
    round-trip that made AC sweeps, HB block preconditioners and the noise
    engines quadratic in circuit size. Partial pivoting (on [Cx.abs]
    magnitudes) matters for the same reason as in the real factor:
    voltage-source and inductor branch rows carry a structurally zero
    diagonal. Semantics mirror dense {!Clu} ([L U = P A]). *)

exception Singular
(** Rebinding of {!Clu.Singular}, so call sites can catch either complex
    factor's breakdown uniformly (as {!Sparse_lu.Singular} rebinds
    {!Lu.Singular}). *)

type t

val factor : ?perm:int array -> Csparse.t -> t
(** [factor ?perm a] LU-factors [a]; with [perm] (a fill-reducing order,
    [perm.(k)] = original index at position [k], e.g. from
    [Rfkit_struct.Order] — orderings are pattern-only, so the real-valued
    circuit permutation serves the complex system unchanged) the
    factorization runs on the symmetric permutation [A[perm,perm]] and
    {!solve}/{!solve_transposed} wrap the permutation transparently — only
    fill changes, never the answer.
    @raise Singular if a column has no nonzero pivot candidate. *)

val solve : t -> Cvec.t -> Cvec.t

val solve_transposed : t -> Cvec.t -> Cvec.t
(** Solve [A^T x = b] (plain transpose, not conjugate) from the same
    factorization. *)

val solve_mat : t -> Cmat.t -> Cmat.t
(** Column-by-column {!solve}. *)

val nnz : t -> int
(** Stored entries in [L] and [U] combined (fill-in included). *)

type symbolic
(** Structural elimination plan captured from one pivoting factorization:
    the pivot order, the structural L/U column patterns (closure, explicit
    zeros kept) and, per column, the set of earlier columns that update
    it. Valid for every matrix with the same sparsity pattern — notably
    all harmonics k of an HB preconditioner [G_avg + j omega_k C_avg] and
    every frequency of an AC sweep. *)

val analyze : ?perm:int array -> Csparse.t -> symbolic * t
(** Full partial-pivoting factorization that also records the symbolic
    plan for later {!refactor}s. The ordering, if any, is captured in the
    plan and re-applied by every {!refactor}.
    @raise Singular as {!factor}. *)

val refactor : symbolic -> Csparse.t -> t
(** Numeric refactorization with the analyzed pivot order frozen: no
    pivot search and no per-column scan over all previous pivots, the
    KLU-style fast path for same-pattern re-stamps.
    @raise Singular when a frozen pivot decayed below [1e-10] of its
    column magnitude (the caller should re-{!analyze}).
    @raise Invalid_argument when the matrix's sparsity pattern (shape,
    row pointers or column indices) differs from the analyzed one. *)

val factor_cached : ?perm:int array -> symbolic option ref -> Csparse.t -> t
(** Factor through a caller-held symbolic cache: reuse the cached plan
    when the sparsity pattern (compared index for index, not just by
    nnz) and the requested ordering match, transparently
    falling back to a fresh {!analyze} (updating the cache) on a pattern
    change, ordering change or pivot decay. An HB solve holds one cache
    for all harmonic blocks across all Newton iterations; an AC sweep one
    cache for all frequencies. *)

val counts : unit -> int * int
(** [(refactors, full_factorizations)] since {!reset_counts} — the
    [clu_refactor]/[clu_full] split reported by [rfsim --stats]. Counted
    per domain: a domain sees only the factorizations it ran itself. *)

val reset_counts : unit -> unit

val fill_nnz : unit -> int
(** nnz(L+U) of the most recent complex factorization (full or re-) on
    the calling domain — the [clu_fill_nnz=] observable of
    [rfsim --stats]. [0] until a complex sparse factorization has run
    there (or since {!reset_counts}). *)
