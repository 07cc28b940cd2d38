(** Node-connectivity scaffolding for the lint checks.

    A union-find structure over a netlist's nodes (plus ground), with the
    two device edge views the structural checks need: galvanic
    connectivity (L001) and DC conduction paths (L002/L003). *)

open Rfkit_circuit

type t

val create : node_count:int -> t
(** Fresh structure over nodes [0 .. node_count - 1]; [Netlist.gnd] is a
    valid node argument everywhere. *)

val union : t -> Device.node -> Device.node -> unit
val connected : t -> Device.node -> Device.node -> bool

val root : t -> Device.node -> int
(** Representative of a node's component: two nodes are connected iff
    their roots are equal. *)

val adds_cycle : t -> Device.node -> Device.node -> bool
(** Incrementally add an edge; [true] when both endpoints were already
    connected, i.e. the edge closes a cycle (self-edges included). Used
    for voltage-source/inductor loop detection. *)

val reaches_ground : t -> Device.node -> bool

val of_edges : node_count:int -> (Device.node * Device.node) list -> t

val galvanic_edges : Device.t -> (Device.node * Device.node) list
(** Terminal pairs joined by any electrical path through the device
    (capacitors included; controlled-source sense pins join nothing). *)

val dc_path_edges : Device.t -> (Device.node * Device.node) list
(** Terminal pairs joined by a DC conduction path (capacitors and
    current-source outputs excluded). *)

val of_netlist : edges_of:(Device.t -> (Device.node * Device.node) list) -> Netlist.t -> t
