(** Netlist builder: named nodes plus a device list.

    Nodes are created on first use; ["0"] and ["gnd"] map to the ground
    reference [-1]. The builder functions return [unit] and mutate the
    netlist, mirroring how a SPICE deck reads.

    Every builder takes an optional [?origin] — the 1-based deck line the
    card came from — which {!Deck.parse_string} populates so that lint and
    runtime diagnostics can cite the offending card.

    Node names are hashed: {!node}, {!find_node} and {!node_name} are
    O(1), so building a netlist is linear in the number of cards. Indices
    are dense and follow first use: the [k]-th distinct non-ground name is
    node [k]. *)

type t

val gnd : Device.node
val create : unit -> t
val node : t -> string -> Device.node
(** Index of a named node, creating it on first use. *)

val find_node : t -> string -> Device.node option
(** Index of a named node without creating it; [Some gnd] for ground
    spellings, [None] for names no card has mentioned. *)

val node_count : t -> int
val node_name : t -> Device.node -> string
(** Name of a node index: ["gnd"] for ground, ["nK"] for an index no
    card created. *)

val devices : t -> Device.t list
(** In insertion order. *)

val add : t -> Device.t -> unit

(** Convenience constructors; node arguments are names. *)

val resistor : t -> ?origin:int -> string -> string -> string -> float -> unit
val capacitor : t -> ?origin:int -> string -> string -> string -> float -> unit
val inductor : t -> ?origin:int -> string -> string -> string -> float -> unit
val vsource : t -> ?origin:int -> string -> string -> string -> Wave.t -> unit
val isource : t -> ?origin:int -> string -> string -> string -> Wave.t -> unit

val vccs :
  t -> ?origin:int -> string -> string -> string -> string -> string -> float -> unit
(** [vccs nl name p n cp cn gm]. *)

val diode :
  t ->
  ?origin:int ->
  string ->
  string ->
  string ->
  ?is:float ->
  ?nvt:float ->
  ?cj:float ->
  unit ->
  unit

val tanh_gm :
  t ->
  ?origin:int ->
  string ->
  string ->
  string ->
  string ->
  string ->
  gm:float ->
  vsat:float ->
  unit

val cubic_conductor :
  t -> ?origin:int -> string -> string -> string -> g1:float -> g3:float -> unit

val nl_capacitor :
  t -> ?origin:int -> string -> string -> string -> c0:float -> c1:float -> unit

val mult_vccs :
  t ->
  ?origin:int ->
  string ->
  string ->
  string ->
  a:string * string ->
  b:string * string ->
  k:float ->
  unit
(** [mult_vccs nl name p n ~a:(ap, an) ~b:(bp, bn) ~k]: current
    [k * v(a) * v(b)] from [p] to [n]. *)

val noise_current :
  t -> ?origin:int -> string -> string -> string -> white:float -> flicker_corner:float -> unit
(** Behavioural excess-noise generator (electrically inert). *)

val mosfet :
  t ->
  ?origin:int ->
  string ->
  d:string ->
  g:string ->
  s:string ->
  ?kp:float ->
  ?vth:float ->
  ?lambda:float ->
  ?cgs:float ->
  ?cgd:float ->
  unit ->
  unit
