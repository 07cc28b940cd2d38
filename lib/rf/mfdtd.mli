(** Multivariate Finite Difference Time Domain (MFDTD).

    Solves the MPDE (paper eq. 4) on a uniform [n1 x n2] grid over
    [[0,T1) x [0,T2)] with backward differences for both partial
    derivatives and bi-periodic boundary conditions. Appropriate for
    strongly nonlinear circuits with no sinusoidal steady-state structure
    (the paper names power converters).

    The finite-difference view of {!Hbn}: on the periodic grid the
    backward difference is circulant, so the solve is {!Hbn.run} with
    [~derivative:Backward_difference] on an [[| n1; n2 |]] grid with tones
    [[| f1; f2 |]] — the same Newton loop, matrix-implicit GMRES and
    per-bin preconditioner as harmonic balance, which is exact for the
    difference operator of a linear circuit. This module only maps
    options and result fields. *)

type options = Hb2.options = {
  n1 : int;
  n2 : int;
  max_newton : int;
  tol : float;
  gmres_tol : float;
}
(** The two-tone grid options of {!Hb2}. *)

val default_options : options
(** A 16 x 32 grid, 50 Newton iterations, tolerance 1e-8, GMRES
    tolerance 1e-10. *)

type result = {
  circuit : Rfkit_circuit.Mna.t;
  f1 : float;
  f2 : float;
  options : options;
  grid : Rfkit_la.Vec.t;  (** flattened [(i1 * n2 + i2) * n + k] *)
  newton_iters : int;
  residual : float;
}

val solve_outcome :
  ?budget:Rfkit_solve.Supervisor.budget ->
  ?options:options ->
  Rfkit_circuit.Mna.t ->
  f1:float ->
  f2:float ->
  result Rfkit_solve.Supervisor.outcome
(** Supervised solve: {!Hbn}'s structural pre-flight, then a base attempt
    and a tightened-damping retry. GMRES stalls surface as
    {!Rfkit_solve.Supervisor.Krylov_stall}; a source frequency aligned
    with neither tone fails fast with
    {!Rfkit_solve.Supervisor.Unsupported}. *)

val node_grid : result -> string -> Rfkit_la.Mat.t
(** Bivariate waveform of a node voltage ([n1] x [n2]). *)

val node_diagonal : result -> string -> n:int -> Rfkit_la.Vec.t
(** [n] samples of the physical waveform x(t) = x^(t, t) over one slow
    period. *)
