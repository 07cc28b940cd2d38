(** Hierarchical Shooting (HS): the MPDE solved by shooting along the fast
    time scale per slow-time slice.

    The slow axis is discretized by backward differences into [n1] slices;
    each slice is a forced periodic problem along [t2] with a coupling
    term to its predecessor (see {!Slice}), solved by shooting.
    Gauss-Seidel sweeps around the (periodic) slow axis propagate the
    coupling until the bivariate solution settles. Like MFDTD this is a
    pure time-domain method, suited to strongly nonlinear fast dynamics. *)

type options = {
  n1 : int;             (** slow-axis slices *)
  steps2 : int;         (** fast-axis BE steps per period *)
  max_sweeps : int;
  tol : float;          (** slice-to-slice settlement, volts *)
}

val default_options : options

type result = {
  circuit : Rfkit_circuit.Mna.t;
  f1 : float;
  f2 : float;
  options : options;
  slices : Rfkit_la.Mat.t array;  (** per slow slice: steps2 x n fast trajectory *)
  sweeps : int;
}

val solve_outcome :
  ?budget:Rfkit_solve.Supervisor.budget ->
  ?options:options ->
  Rfkit_circuit.Mna.t ->
  f1:float ->
  f2:float ->
  result Rfkit_solve.Supervisor.outcome
(** Supervised solve: base attempt, then a fast-axis oversampling retry.
    Stats count Gauss-Seidel sweeps as iterations. A source frequency
    aligned with neither tone fails fast with
    {!Rfkit_solve.Supervisor.Unsupported}. *)

val node_grid : result -> string -> Rfkit_la.Mat.t
(** Bivariate node waveform, [n1] x [steps2]. *)

val node_diagonal : result -> string -> n:int -> Rfkit_la.Vec.t
