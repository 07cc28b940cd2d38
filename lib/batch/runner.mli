(** Parallel sweep execution across OCaml 5 domains.

    A bounded pool of [domains] workers drains the job list through an
    atomic cursor. Each job is one pass through the {!Pipeline}: parse
    the deck with the job's parameter bindings (no lint: the sweep lints
    its first point before dispatch), one [Mna.build], one request to the
    analysis table ([Spec.Hb] runs the whole PSS cascade), and a
    canonical JSON payload built from the typed outcome. Payloads land in
    a slot array indexed by job id, so report order never depends on the
    domain count — the determinism contract {!Report} relies on. A
    failed job carries its typed cause in the payload; only a bug
    outside the engines can still surface as an ["exception: ..."]
    cause.

    Jobs are memoized through {!Cache} (payloads carry only key-covered
    content). Failed jobs are recorded, not cached and not fatal: a
    budget-bound failure is wall-clock dependent and must not be
    replayed from disk as a permanent fact.

    {b Crash safety.} With a {!Journal} attached, every job completion
    is made durable before the next job is claimed; with a replay
    attached ([--resume]), journaled jobs are served from the journal
    (failed payloads inline) or the cache (ok/suspect by key) without
    re-execution. {!request_stop} (wired to SIGINT/SIGTERM by the CLI)
    closes the dispatch gate: in-flight jobs drain under the [grace]
    clamp, unclaimed jobs stay pending, and jobs the clamp kills are
    {e discarded} — journaling them as failed would make the resumed
    report differ from an uninterrupted run's. *)

type status = Pipeline.status = Ok | Suspect | Failed

type job_result = {
  job : Expand.job;
  status : status;
  cached : bool;  (** served by {!Cache} this run *)
  replayed : bool;  (** served from the journal of a prior run *)
  payload : string;  (** canonical JSON object; the cached unit *)
  wall : float;  (** seconds; telemetry only, never reported on stdout *)
  newton : int;
  krylov : int;
}

type config = {
  deck_text : string;  (** verbatim deck; hashed into every cache key *)
  node : string;  (** output node for ac/tran/hb/shooting payloads *)
  domains : int;  (** worker domains, >= 1 *)
  budget : Rfkit_solve.Supervisor.budget option;
      (** per-job budget; [None] keeps each engine's own default *)
  tol_scale : float;  (** certification threshold multiplier *)
  ordering : Rfkit_struct.Order.mode;
      (** fill-reducing ordering applied to every job's factorizations;
          part of the cache key (orderings perturb results in the last
          float digits, so cached payloads must not cross modes) *)
  stats : bool;
      (** emit one [stats:] line per executed job on stderr (cache hits
          are silent); its [fill_nnz] is the job's own last
          factorization, read from its domain's ledger *)
  deadline : float option;
      (** per-job wall-clock limit: a job past it is quarantined as a
          typed [Deadline_exceeded] failure instead of wedging its
          domain. [None]: unlimited. *)
  grace : float;
      (** drain budget (seconds) after {!request_stop}: in-flight jobs
          past it are killed via the {!Rfkit_solve.Deadline} clamp *)
}

type outcome = {
  results : job_result option array;
      (** indexed by job id; [None] = never claimed, or killed by the
          drain clamp — pending for resume either way *)
  interrupted : bool;  (** a stop request arrived during the run *)
}

val request_stop : grace:float -> unit
(** Signal-handler safe. Stop dispatching new jobs and start the drain
    clock; see {!Rfkit_solve.Deadline.begin_drain}. *)

val status_name : status -> string
(** ["ok"], ["suspect"] or ["failed"], as payloads and journals spell it. *)

val job_key : config -> Expand.job -> string
(** The job's content-addressed cache key (exposed for tests). *)

val run_hash : config -> Expand.job list -> string
(** The run identity a sweep journals under: a hash over the job count,
    the [deadline] setting and every job's {!job_key}. [rfsim sweep] and
    the service compute it the same way, so a sweep resumes across the
    two. *)

val run_one :
  config ->
  cache:Cache.t ->
  telemetry:Telemetry.t ->
  ?journal:Journal.t ->
  ?replay:Journal.replay ->
  Expand.job ->
  job_result option
(** [None] when the job was killed by the drain clamp (discarded, not
    journaled). *)

val run :
  config ->
  cache:Cache.t ->
  telemetry:Telemetry.t ->
  ?journal:Journal.t ->
  ?replay:Journal.replay ->
  Expand.job list ->
  outcome
(** Execute all jobs (sets the process-wide interrupt action to [Note]
    for drain semantics). The job list must be in expansion order (as
    {!Expand.expand} returns it). *)
