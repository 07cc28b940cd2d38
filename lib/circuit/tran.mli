(** Transient analysis: implicit integration of the circuit DAE.

    Backward Euler and trapezoidal methods with Newton solves per step;
    fixed-step [run] plus a step-doubling adaptive driver. These are the
    "SPICE-type, time-domain" engines whose cost on widely separated time
    scales motivates the paper's Section 2 methods — and the baseline the
    benchmarks compare against. Their step, {!implicit_step}, is the one
    time-stepping core: shooting, the MPDE slices of hierarchical
    shooting and the envelope method, MMFT and the jitter ensemble step
    through it too. *)

exception Step_failed of { time : float; cause : Rfkit_solve.Supervisor.cause }
(** A failed step: its arrival instant and why (Newton stall, singular
    Jacobian, non-finite iterate). The same exception as
    {!Rfkit_solve.Newton.Step_failed}, so a Newton whose residual
    integrates steps ends with the step's cause. *)

type method_ = Backward_euler | Trapezoidal

type scheme = Be | Trap | Gear2 of Rfkit_la.Vec.t
(** One step's formula; [Gear2] carries the state one step before
    [x_prev]. *)

type result = {
  times : float array;
  states : Rfkit_la.Vec.t array;  (** state vector per time point *)
}

(** When one step's damped Newton stops: the Newton driver's stop record
    ({!Rfkit_solve.Newton.stop}), plain values per caller, since a
    transient, a shooting period, an MPDE slice and a noisy SDE step see
    different residual scales. *)
type stop = Rfkit_solve.Newton.stop = {
  max_iter : int;  (** iterations before the step fails *)
  res_abs : float;
  res_rel : float;
      (** converged when [|R(x)| <= res_rel * max 1 |b1| + res_abs]
          ([res_abs = neg_infinity]: never) *)
  step_rel : float;
      (** converged, without the update, when [|dx| <= step_rel * max 1 |x|]
          ([0.]: no step test) *)
  damping : float;  (** cap on [|dx|] per update *)
}

val default_stop : stop
(** The transient's: 50 iterations, [|R| <= 1e-9], no step test,
    damping 5. *)

val implicit_step :
  ?stop:stop ->
  ?solver:Dc.linear_solver ->
  ?symb:Rfkit_la.Sparse_lu.symbolic option ref ->
  ?engine:string ->
  ?rhs:Rfkit_la.Vec.t ->
  ?coupling:float * Rfkit_la.Vec.t ->
  Mna.t ->
  scheme:scheme ->
  x_prev:Rfkit_la.Vec.t ->
  t_prev:float ->
  dt:float ->
  Rfkit_la.Vec.t
(** One damped-Newton step from [(t_prev, x_prev)] to [t1 = t_prev + dt]
    on

    {v Be:    R(x) = (q(x) - q0)/dt + f(x) - b1
    Trap:  R(x) = (q(x) - q0)/dt + (f(x) + f0)/2 - (b1 + b0)/2
    Gear2: R(x) = (3 q(x) - 4 q0 + q_-1)/(2 dt) + f(x) - b1 v}

    with Jacobian [a_c C(x) + a_g G(x)] ([a_c] = 1/dt, 1/dt, 3/(2 dt);
    [a_g] = 1, 1/2, 1). [b1] is [b(t1)] unless [rhs] replaces it;
    [coupling] [(1/h1, q_ref)] adds the MPDE term [(q(x) - q_ref)/h1]
    to [R] and [1/h1] to [a_c]. The step is one run of
    {!Rfkit_solve.Newton.run} (DESIGN.md sec. 8, "One Newton driver")
    under [engine] (default ["tran"]) with [stop] (default
    {!default_stop}) and [solver]'s linear solve, the residual
    reference being [|b1|]. Sparse factors go through
    {!Rfkit_la.Sparse_lu.factor_cached} under {!Mna.ordering_perm}, with
    [symb] (default: a fresh cache) as the symbolic cache.
    @raise Step_failed *)

val step_jacobian :
  ?coupling:float * Rfkit_la.Vec.t ->
  Mna.t ->
  scheme:scheme ->
  dt:float ->
  Rfkit_la.Vec.t ->
  Rfkit_la.Sparse.t
(** The step's sparse Jacobian at [x], also the left-hand matrix of its
    monodromy recurrence. *)

val run :
  ?method_:method_ ->
  ?x0:Rfkit_la.Vec.t ->
  ?tol:float ->
  ?solver:Dc.linear_solver ->
  Mna.t ->
  t_stop:float ->
  dt:float ->
  result
(** Fixed-step transient from the DC operating point (or [x0]). *)

val default_budget : Rfkit_solve.Supervisor.budget
(** Step-count-sized budget used by {!run_outcome} (a transient's cost is
    its step count, not its per-step Newton depth); exposed so cascade
    layers can merge it with a shared wall clock. *)

val run_outcome :
  ?budget:Rfkit_solve.Supervisor.budget ->
  ?method_:method_ ->
  ?x0:Rfkit_la.Vec.t ->
  ?tol:float ->
  ?solver:Dc.linear_solver ->
  Mna.t ->
  t_stop:float ->
  dt:float ->
  result Rfkit_solve.Supervisor.outcome
(** {!run} under the solver supervisor. A failed step ends the attempt
    with the step's own cause: a non-finite iterate fails fast, while a
    Newton stall or a singular Jacobian retries the whole run at [dt/2]
    then [dt/8] before the typed failure. The stats count integration
    steps as iterations; the default budget is sized accordingly
    (millions of steps, 300 s wall clock). *)

val run_adaptive :
  ?method_:method_ ->
  ?x0:Rfkit_la.Vec.t ->
  ?tol:float ->
  ?solver:Dc.linear_solver ->
  ?lte_tol:float ->
  ?dt_min:float ->
  ?dt_max:float ->
  Mna.t ->
  t_stop:float ->
  dt0:float ->
  result
(** Step-doubling local-error control: each accepted step compares one
    [dt] step against two [dt/2] steps. *)

val certify :
  ?tol_scale:float ->
  ?method_:method_ ->
  Mna.t ->
  result ->
  Rfkit_solve.Certify.certificate
(** A-posteriori verification of a transient result: finiteness plus the
    re-evaluated {!implicit_step} residual of [method_] (the method that
    produced the result) at up to 64 steps spread across the run,
    normalized per step by the excitation scale. [tol_scale] multiplies
    every threshold.
    @raise Invalid_argument on an empty result. *)

val voltage_trace : Mna.t -> result -> string -> float array
(** Node-voltage waveform of a named node. *)

val sample_last_period : result -> per:float -> n:int -> (Rfkit_la.Vec.t -> float) -> Rfkit_la.Vec.t
(** Uniformly resample the last [per] seconds of a result into [n] points
    of a derived scalar (linear interpolation); used for spectra. *)
