(** Time-domain envelope method (TD-ENV).

    Mixed initial/periodic boundary conditions on the MPDE: periodic along
    the fast axis, transient (backward Euler) along the slow axis. Each
    slow step solves one fast-periodic slice coupled to its predecessor
    (see {!Slice}); the output is the slowly evolving envelope of the
    fast-periodic solution — e.g. the turn-on or modulation transient of a
    mixer/PA without resolving millions of carrier cycles. *)

type options = {
  steps2 : int;   (** fast-axis BE steps per period *)
  n1 : int;       (** slow-axis steps over the simulated span *)
}

val default_options : options

type result = {
  circuit : Rfkit_circuit.Mna.t;
  f2 : float;
  t1s : Rfkit_la.Vec.t;           (** slow-time instants, length n1+1 *)
  slices : Rfkit_la.Mat.t array;  (** per slow instant: steps2 x n *)
}

val run_outcome :
  ?budget:Rfkit_solve.Supervisor.budget ->
  ?options:options ->
  Rfkit_circuit.Mna.t ->
  f1:float ->
  f2:float ->
  t1_stop:float ->
  result Rfkit_solve.Supervisor.outcome
(** March the envelope from the fast-periodic state at [t1 = 0] to
    [t1_stop]. [f1] identifies which source components live on the slow
    axis (see {!Mpde.split_wave_multi}); a source aligned with neither
    tone fails fast with {!Rfkit_solve.Supervisor.Unsupported}.
    Supervised: base attempt, then a retry with twice the slow-axis
    resolution (halving the coupling step). Stats count solved slices as
    iterations. *)

val envelope_magnitude : result -> string -> harmonic:int -> Rfkit_la.Vec.t
(** Amplitude of the given fast harmonic of a node voltage at each slow
    instant (the modulation envelope). *)
