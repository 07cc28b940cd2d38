(** Solver supervision: typed outcomes, declarative retry ladders, budgets.

    Every Newton/Krylov engine in the library runs its attempts under this
    supervisor. Instead of dying with a stringly exception on the first
    sign of trouble, an engine describes a {e ladder} of progressively
    more conservative strategies (tighten damping, gmin stepping, source
    amplitude ramping, warm-starting, grid escalation) and the supervisor
    executes them in order under iteration and wall-clock budgets,
    recording a structured per-attempt trace either way.

    The supervisor is engine-agnostic: an engine supplies a closure that
    interprets one strategy and reports back either a solution or a typed
    {!cause}. Causes marked fail-fast ({!Non_finite}, {!Unsupported})
    abort the ladder immediately — retrying NaN-polluted math only wastes
    the budget and hides the offending unknown. *)

(** Which budget axis ran out. *)
type budget_axis = Iterations | Wall_clock

(** Structured failure cause of a single attempt (or of the whole run). *)
type cause =
  | Singular_jacobian
      (** LU elimination met a zero pivot: the linearized system is rank
          deficient at the current iterate. *)
  | Newton_stall of { iterations : int; residual : float }
      (** The Newton iteration hit its cap without meeting tolerance;
          carries the final residual for triage. *)
  | Krylov_stall of { iterations : int; residual : float }
      (** The inner GMRES/CG run failed to reduce the linear residual. *)
  | Non_finite of { iter : int; index : int }
      (** A NaN/Inf appeared in unknown [index] at Newton iteration
          [iter]. Fail-fast: never retried. *)
  | Budget_exhausted of budget_axis
  | Unsupported of string
      (** Structural model limitation (wrong tone spacing, no oscillation
          detected, ...). Fail-fast: retrying cannot help. *)
  | Structurally_singular of { rank : int; size : int }
      (** The sparsity pattern's maximum matching is deficient: the
          system is singular for {e every} value assignment, proven
          before any factorization ran. Fail-fast; engines raise it from
          a pre-flight check with zero attempts spent (see
          {!structural_failure}). *)
  | Deadline_exceeded of { seconds : float }
      (** The job's cooperative wall-clock deadline ({!Deadline.arm})
          passed mid-attempt; carries the {e allotted} seconds (a config
          value), so renderings stay deterministic. Fail-fast: the clock
          does not reset between rungs. *)
  | Interrupted
      (** A process-wide interrupt (SIGINT/SIGTERM) was requested and
          {!Deadline.check} raised. Fail-fast. *)

(** One rung of a retry ladder. The engine interprets the payload; rungs
    an engine does not implement are skipped. *)
type strategy =
  | Base  (** the run exactly as configured *)
  | Tighten_damping of float  (** cap the Newton step inf-norm at this *)
  | Gmin_stepping of int  (** geometric gmin continuation, this many steps *)
  | Source_ramping of int  (** ramp source amplitudes up in this many steps *)
  | Warm_start of int  (** transient warm start over this many periods *)
  | Escalate_samples of int  (** multiply sample/harmonic counts by this *)
  | Refine_timestep of int  (** divide the time step by this *)
  | Enlarge_krylov of int
      (** restart the iterative linear solver with this factor applied to
          its restart basis / iteration allowance (GMRES(m) -> GMRES(f m),
          CG gets f x the iteration cap) *)

val strategy_name : strategy -> string
val cause_to_string : cause -> string

(** Iteration counts and residual of one attempt. [krylov_iterations] is
    the total inner linear-solver iteration count (0 for direct solves). *)
type stats = { iterations : int; residual : float; krylov_iterations : int }

val no_stats : stats

(** One executed rung: which strategy ran, what it cost, and — unless it
    was the winner — why it failed. *)
type attempt = { strategy : strategy; stats : stats; cause : cause option }

type budget = {
  attempt_iterations : int;  (** Newton-iteration cap per attempt *)
  total_iterations : int;  (** Newton-iteration cap across the ladder *)
  wall_clock : float;  (** seconds for the whole ladder *)
}

val default_budget : budget

(** Success report: the winning strategy, its stats, and the full attempt
    trail that led there. *)
type report = {
  engine : string;
  strategy : strategy;
  stats : stats;
  attempts : attempt list;  (** in execution order, winner last *)
  total_iterations : int;
  elapsed : float;
}

type failure = {
  f_engine : string;
  cause : cause;
  f_attempts : attempt list;  (** every rung that ran, with its cause *)
  f_elapsed : float;
}

type 'a outcome = Converged of 'a * report | Failed of failure

val map : ('a -> 'b) -> 'a outcome -> 'b outcome
(** Transform a converged value; a failure passes through unchanged. *)

val structural_failure : engine:string -> rank:int -> size:int -> failure
(** Zero-attempt {!failure} with cause {!Structurally_singular}: what an
    engine returns when its structural pre-flight rejects the system
    without spending any budget. *)

val reraise_abort : failure -> unit
(** Re-raise the {!Deadline} exception behind an {!Interrupted} or
    {!Deadline_exceeded} failure; return on any other. A caller that
    falls back to a default on failure calls it first, so an abort
    reaches the enclosing supervisor instead of degrading into the
    default. *)

val run :
  ?budget:budget ->
  engine:string ->
  ladder:strategy list ->
  attempt:(strategy -> iter_cap:int -> ('a * stats, cause * stats) result) ->
  unit ->
  'a outcome
(** Execute the ladder. Before each rung the budgets are checked (a
    violation yields [Failed] with {!Budget_exhausted} and the trace so
    far) and {!Faults.begin_attempt} is signalled so deterministic fault
    plans can count attempts. [iter_cap] passed to the attempt closure is
    the remaining iteration allowance; engines must not exceed it.
    {!Deadline.Expired} and {!Deadline.Interrupted} escaping an attempt
    (engines poll via {!Guard.check}) are converted to [Failed] with the
    matching typed cause; the aborted attempt's iteration counts are
    recorded as zero. *)

val pp_report : Format.formatter -> report -> unit
val pp_failure : Format.formatter -> failure -> unit

val report_to_string : report -> string
val failure_to_string : failure -> string
(** Multi-line rendering of the attempt ladder, one rung per line, as
    printed by [rfsim] on convergence failure. *)
