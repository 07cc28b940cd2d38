(** Modified nodal analysis.

    Compiles a {!Netlist.t} into evaluators for the circuit DAE in the
    paper's form (eq. 3):

    {v d/dt q(x) + f(x) = b(t) v}

    where [x] stacks node voltages followed by branch currents (voltage
    sources and inductors). Every analysis in the library — DC, transient,
    AC, harmonic balance, shooting, the MPDE family, noise — consumes this
    interface, which is exactly why the paper writes the DAE split this
    way. *)

type t

val build : Netlist.t -> t
val size : t -> int
(** Total number of unknowns. *)

val n_nodes : t -> int
val netlist : t -> Netlist.t
val voltage : t -> Rfkit_la.Vec.t -> Device.node -> float
(** Ground-aware node voltage lookup ([0.] for ground). *)

val node : t -> string -> int
(** Unknown index of a named node. A lookup only: an unknown name is
    not added to the netlist.
    @raise Not_found for unknown names or ground. *)

val branch_index : t -> string -> int option
(** Unknown index of a named voltage source / inductor's branch current. *)

val eval_q : t -> Rfkit_la.Vec.t -> Rfkit_la.Vec.t
val eval_f : t -> Rfkit_la.Vec.t -> Rfkit_la.Vec.t
val eval_b : t -> float -> Rfkit_la.Vec.t
val dc_b : t -> Rfkit_la.Vec.t
(** Excitation with every source at its DC (average) value. *)

val jac_c : t -> Rfkit_la.Vec.t -> Rfkit_la.Mat.t
(** C(x) = dq/dx, dense. Kept as an independently-stamped shim so the
    sparse path can be cross-checked against it; new code should prefer
    {!jac_c_sparse}. *)

val jac_g : t -> Rfkit_la.Vec.t -> Rfkit_la.Mat.t
(** G(x) = df/dx, dense (shim, see {!jac_c}). *)

val jac_c_sparse : t -> Rfkit_la.Vec.t -> Rfkit_la.Sparse.t
(** C(x) stamped straight into CSR. The sparsity pattern is structural
    (state-independent), computed once per circuit and shared across all
    Newton iterations; only the values array is fresh per call. *)

val jac_g_sparse : t -> Rfkit_la.Vec.t -> Rfkit_la.Sparse.t
(** G(x) in CSR on the cached pattern. The pattern carries the full
    diagonal (explicit zeros where nothing stamps, e.g. voltage-source
    branch rows) so gmin/shift stamping and ILU(0) always find a slot. *)

val linear_gc_op : t -> Rfkit_la.Op.t * Rfkit_la.Op.t
(** Sparse (G, C) of the linear part (Jacobians at x = 0); exact when the
    circuit contains only linear elements — the ROM entry point. *)

val is_linear : t -> bool
val fundamentals : t -> float list
(** Distinct source frequencies, ascending. *)

val source_pattern : t -> string -> Rfkit_la.Vec.t
(** Unit-amplitude excitation pattern of the named source (AC analysis
    right-hand side).
    @raise Not_found if no such source. *)

val noise_sources : t -> Device.noise_source array
val noise_pattern : t -> Device.noise_source -> Rfkit_la.Vec.t
(** Unit current-injection vector of a noise generator. *)

(** {2 Structural pre-analysis}

    0/1-valued views of the device-stamped sparsity patterns, {e without}
    the forced diagonal the factored G pattern carries (an explicit-zero
    diagonal would make every row trivially matchable and hide real
    structural deficiencies from {!Rfkit_struct.Dm}). Cached per
    circuit. *)

val structural_g : t -> Rfkit_la.Sparse.t
(** Pattern of G = df/dx as stamped by the devices. *)

val structural_c : t -> Rfkit_la.Sparse.t
(** Pattern of C = dq/dx. *)

val structural_gc : t -> Rfkit_la.Sparse.t
(** Union pattern of G and C — the structure every dynamic analysis
    factors. *)

val structural_rank_g : t -> int
(** Structural rank of {!structural_g}; [< size c] proves the DC system
    singular for every value assignment. Cached. *)

val structural_rank_gc : t -> int
(** Structural rank of the union pattern; [< size c] proves d/dt q + f
    singular for all values and time steps. Cached. *)

val unknown_label : t -> int -> string
(** ["v(node)"] for node unknowns, ["i(DEV)"] for branch currents. *)

val unknown_origin : t -> int -> int option
(** Deck line attribution of an unknown: the earliest origin line among
    devices touching the node (or the owning device for a branch). *)

(** {2 Fill-reducing ordering}

    One ordering mode per circuit, inherited by every engine that factors
    this circuit's Jacobians (DC, transient, and HB through its
    DC/transient warm start). The permutation is computed lazily, once,
    on the union pattern and reused across all same-pattern
    refactorizations. *)

val set_ordering : t -> Rfkit_struct.Order.mode -> unit
(** Default is [Natural]. Changing the mode invalidates the cached
    permutation (engines' symbolic caches notice via
    {!Rfkit_la.Sparse_lu.factor_cached}'s ordering check). *)

val ordering : t -> Rfkit_struct.Order.mode

val ordering_perm : t -> int array option
(** The permutation for {!Rfkit_la.Sparse_lu.factor_cached}'s [?perm];
    [None] for mode [Natural] (or when the computed order is the
    identity). *)
