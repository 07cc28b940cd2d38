(** The rfsim simulation service: the batch runner as a fault-contained
    daemon behind a Unix-domain socket.

    A single select-based event loop owns all protocol state; worker
    domains execute jobs through {!Rfkit_batch.Runner.run_one} against a
    shared warm cache and a per-sweep {!Rfkit_batch.Journal}. Robustness
    contract:

    - admission is bounded: a sweep whose jobs do not all fit in the
      queue is refused with a typed [overloaded] response, never
      buffered or blocked on;
    - a submitted deck goes through the same pre-flight as [rfsim
      sweep] ({!Rfkit_batch.Pipeline.prepare} at the first sweep point)
      and a refusal is a typed [bad-request] before admission;
    - runs journal under the same hash [rfsim sweep] uses
      ({!Rfkit_batch.Runner.run_hash}), so a client
      resubmitting after a crash (its own, a torn connection, or a
      server kill -9 and restart) replays completed jobs and receives a
      report byte-identical to an uninterrupted run;
    - SIGTERM/SIGINT (routed through {!Rfkit_solve.Deadline.begin_drain}
      by the CLI) drains in-flight jobs under the grace clamp and leaves
      every unfinished sweep's journal resumable;
    - idle connections and half-sent frames are reaped on a timer. *)

type config = {
  socket_path : string;
  workers : int;  (** worker domains, >= 1 *)
  queue_cap : int;  (** admission queue capacity, in jobs *)
  client_inflight : int;  (** max concurrent sweeps per connection *)
  cache_dir : string;
  no_cache : bool;  (** bypass cache AND journal (no crash recovery) *)
  telemetry_path : string option;
  ordering : Rfkit_struct.Order.mode;
  budget : Rfkit_solve.Supervisor.budget option;
  job_deadline : float option;
  grace : float;  (** drain budget after SIGTERM/SIGINT, seconds *)
  idle_timeout : float option;  (** reap idle ownerless connections *)
  request_timeout : float option;  (** reap half-sent (slowloris) frames *)
  max_frame : int;
}

val default_config : config

type stop = {
  drained_sweeps : int;  (** sweeps still unfinished at shutdown *)
  served_sweeps : int;  (** sweeps admitted over the server's lifetime *)
}

val run : config -> stop
(** Serve until a drain is requested (via
    {!Rfkit_solve.Deadline.begin_drain}, normally from the CLI's signal
    handler). Prints one ready line on stdout once accepting; sets the
    process-wide interrupt action to [Note]. In-process callers (tests)
    must {!Rfkit_solve.Deadline.clear_interrupt} and restore the [Raise]
    action afterwards. *)
