(** Multivariate Finite Difference Time Domain (MFDTD).

    Solves the MPDE (paper eq. 4) on a uniform [n1 x n2] grid over
    [[0,T1) x [0,T2)] with backward differences for both partial
    derivatives and bi-periodic boundary conditions; Newton's method on
    all grid unknowns with matrix-implicit GMRES (block-Jacobi
    preconditioner) or a dense direct solve for small grids. Appropriate
    for strongly nonlinear circuits with no sinusoidal steady-state
    structure (the paper names power converters). *)

type linear_solver = Direct | Matrix_free_gmres

type options = {
  n1 : int;
  n2 : int;
  max_newton : int;
  tol : float;
  solver : linear_solver;
  gmres_tol : float;
}

val default_options : options

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
(** Supervised solve: base attempt, then a tightened-damping retry. GMRES
    stalls surface as {!Rfkit_solve.Supervisor.Krylov_stall}. *)

val node_grid : result -> string -> Rfkit_la.Mat.t
(** Bivariate waveform of a node voltage ([n1] x [n2]). *)

val node_diagonal : result -> string -> n:int -> Rfkit_la.Vec.t
(** [n] samples of the physical waveform x(t) = x^(t, t) over one slow
    period. *)
