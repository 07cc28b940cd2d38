(** Fast-axis slice solver shared by hierarchical shooting and the
    time-domain envelope method.

    A "slice" is the fast-time problem obtained from the MPDE after
    discretizing d/dt1 by backward differences at one slow-time point:

    {v dq(x)/dt2 + (q(x) - q_ref(t2)) / h1 + f(x) = b(t2) v}

    where [q_ref] comes from the neighbouring slow-time slice. With
    [h1 = infinity] (no coupling) this reduces to an ordinary forced
    periodic problem. Solved by backward-Euler shooting with monodromy:
    the steps are {!Rfkit_circuit.Tran.implicit_step} with the coupling
    term, the period integrator and the (M - I) Newton are
    {!Shooting.integrate} and {!Shooting.newton}. Each step has its own
    symbolic LU cache, each monodromy factor a fresh analysis. *)

type coupling = { h1 : float; q_ref : Rfkit_la.Vec.t array }
(** [q_ref.(k)] is the reference charge at fast step [k] (length = steps). *)

val solve_periodic_outcome :
  ?budget:Rfkit_solve.Supervisor.budget ->
  ?max_newton:int ->
  ?tol:float ->
  ?coupling:coupling ->
  Rfkit_circuit.Mna.t ->
  b:(float -> Rfkit_la.Vec.t) ->
  period2:float ->
  steps:int ->
  y0:Rfkit_la.Vec.t ->
  Rfkit_la.Mat.t Rfkit_solve.Supervisor.outcome
(** Periodic solution of the slice: trajectory of [steps] samples (the
    endpoint equals the start), [y0] seeding the shooting Newton. The
    fast step [k] sees the sources [b (k period2 / steps)].
    Supervised: base attempt, then a tightened-damping retry; NaN guards
    and fault hooks (engine ["slice"]) active in the inner Newton loops. *)
