(** Small-signal AC analysis.

    Linearizes the circuit at its DC operating point and solves
    [(G + j w C) X = B] per frequency, where [B] is the unit pattern of a
    designated source. Also exposes the linearized noise-to-output
    transfer needed by the AC noise analysis and the ROM comparisons. *)

type result = {
  freqs : float array;
  response : Rfkit_la.Cvec.t array;  (** full unknown vector per frequency *)
}

val system_op : Mna.t -> Rfkit_la.Vec.t -> float -> Rfkit_la.Cop.t
(** The linearized system [(G + j w C)] at the given operating point,
    folded from the sparse stamps into one {!Rfkit_la.Csparse} operator.
    The direct solves here factor it with {!Rfkit_la.Csparse_lu} (one
    symbolic analysis per sweep, the circuit's fill-reducing ordering
    applied). *)

val system_at : Mna.t -> Rfkit_la.Vec.t -> float -> Rfkit_la.Cmat.t
(** Dense lowering of {!system_op} — kept for tests and small-system
    inspection only; no solve path densifies anymore. *)

val sweep : ?x_op:Rfkit_la.Vec.t -> Mna.t -> source:string -> freqs:float array -> result
(** {!sweep_outcome}, raising {!Rfkit_solve.Error.No_convergence} on a
    failure (of the DC operating point or of the sweep). *)

val transfer : Mna.t -> result -> string -> Rfkit_la.Cx.t array
(** Complex node-voltage transfer of a named node across the sweep. *)

val solve_at :
  ?x_op:Rfkit_la.Vec.t -> Mna.t -> rhs:Rfkit_la.Vec.t -> freq:float -> Rfkit_la.Cvec.t
(** One linearized solve at a single frequency for an arbitrary real
    excitation pattern (noise sources, ROM validation). *)

val output_noise :
  ?x_op:Rfkit_la.Vec.t -> Mna.t -> node:string -> freqs:float array -> float array
(** {!output_noise_outcome}, raising like {!sweep}. *)

val sweep_outcome :
  ?x_op:Rfkit_la.Vec.t ->
  Mna.t ->
  source:string ->
  freqs:float array ->
  result Rfkit_solve.Supervisor.outcome
(** The AC sweep under the supervisor (engine ["ac"]), linearized at
    [x_op] or at the DC operating point: a failed DC comes back as the DC
    supervisor's own failure, a singular linearized system as a typed
    [Singular_jacobian] failure, and a pending interrupt or per-job
    deadline aborts between frequencies — the sweep runner and the
    service never see a bare exception from AC. *)

val output_noise_outcome :
  ?x_op:Rfkit_la.Vec.t ->
  Mna.t ->
  node:string ->
  freqs:float array ->
  float array Rfkit_solve.Supervisor.outcome
(** Output noise voltage PSD (V^2/Hz) at a node: sums
    [|H_k(jw)|^2 * S_k] over all device noise generators [k], each solved
    through the linearized network. Supervised (engine ["ac-noise"]) with
    the typed-failure contract of {!sweep_outcome}. *)

val two_port_z :
  ?x_op:Rfkit_la.Vec.t ->
  Mna.t ->
  port1:string * string ->
  port2:string * string ->
  freq:float ->
  Rfkit_la.Cmat.t
(** Open-circuit impedance matrix of a linear(ized) two-port at one
    frequency: each port is (node, current-source name); the named sources
    must already exist in the netlist (set them to DC 0) so the ports have
    well-defined injection patterns. *)

val log_freqs : f_start:float -> f_stop:float -> points_per_decade:int -> float array
