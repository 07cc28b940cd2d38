(* The rfsim simulation service: the batch runner lifted into a
   fault-contained daemon.

   One main-domain event loop (Unix.select over a Unix-domain listen
   socket, a self-pipe, and every client connection) owns ALL mutable
   protocol state — connections, sweeps, result slots. Worker domains
   touch none of it: they pop tasks from the bounded {!Squeue}, execute
   them through {!Rfkit_batch.Runner.run_one} (same cache, same journal,
   same deadline/drain machinery as `rfsim sweep`), and post completions
   through a mutex-protected list plus a self-pipe byte. The separation
   is the fault-containment argument: a diverging or deadline-killed job
   can wedge at most its worker slot, never the accept loop.

   Robustness properties, each load-bearing:

   - {b Bounded admission.} A sweep is admitted only if ALL its jobs fit
     in the queue ({!Squeue.push_all} is all-or-nothing); otherwise the
     client gets a typed [overloaded] response immediately. Nothing ever
     buffers past the cap and the accept loop never blocks on a full
     queue.
   - {b Crash recovery.} Every admitted sweep journals through
     {!Rfkit_batch.Journal} under the same run hash `rfsim sweep`
     computes, so a client resubmitting after a server crash (or to a
     restarted server) replays completed jobs from the journal and the
     resumed report is byte-identical to an uninterrupted one.
   - {b Graceful drain.} SIGTERM/SIGINT (via {!Rfkit_solve.Deadline})
     closes the listen socket and the queue; in-flight jobs drain under
     the grace clamp, queued jobs are discarded un-journaled (pending
     for resume), owners get a typed interrupted [done] frame.
   - {b Timeouts.} Idle connections and half-sent requests (slowloris)
     are reaped on the select tick; a dead client streaming nothing
     cannot hold a connection slot forever, and a slow writer is
     bounded by the per-connection output cap. *)

module Spec = Rfkit_batch.Spec
module Expand = Rfkit_batch.Expand
module Runner = Rfkit_batch.Runner
module Pipeline = Rfkit_batch.Pipeline
module Cache = Rfkit_batch.Cache
module Journal = Rfkit_batch.Journal
module Telemetry = Rfkit_batch.Telemetry
module Report = Rfkit_batch.Report
module Json = Rfkit_batch.Json
module Deadline = Rfkit_solve.Deadline
module Faults = Rfkit_solve.Faults

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

let default_config =
  {
    socket_path = "rfsim.sock";
    workers = 1;
    queue_cap = 64;
    client_inflight = 4;
    cache_dir = ".rfsim-cache";
    no_cache = false;
    telemetry_path = None;
    ordering = Rfkit_struct.Order.Natural;
    budget = None;
    job_deadline = None;
    grace = 2.0;
    idle_timeout = None;
    request_timeout = Some 10.0;
    max_frame = Frame.default_max_frame;
  }

type stop = {
  drained_sweeps : int;  (** sweeps still unfinished at shutdown *)
  served_sweeps : int;  (** sweeps admitted over the server's lifetime *)
}

(* ------------------------------------------------------------- state -- *)

type sweep = {
  sw_run : string;
  sw_cfg : Runner.config;
  sw_total : int;
  sw_results : Runner.job_result option array;
  mutable sw_consumed : int;  (** tasks that have come back (any way) *)
  sw_ack_replayed : int;  (** journal records found at admission *)
  sw_cancelled : bool Atomic.t;  (** read by workers to skip queued jobs *)
  mutable sw_owner : Unix.file_descr option;
  sw_events : bool;
  sw_journal : Journal.t option;
  sw_replay : Journal.replay option;
}

type task = { t_sweep : sweep; t_job : Expand.job }

type conn = {
  c_fd : Unix.file_descr;
  c_framer : Frame.t;
  c_out : string Queue.t;  (** pending writes, head partially sent *)
  mutable c_out_ofs : int;  (** bytes of the head already written *)
  mutable c_out_bytes : int;
  mutable c_last : float;  (** last read/write activity (timeouts) *)
  mutable c_close_after_flush : bool;
}

type completion = {
  cp_sweep : sweep;
  cp_job : int;
  cp_result : Runner.job_result option;
}

(* a slow reader may buffer this much rendered output before we declare
   it dead; report streams for realistic sweeps are far below this *)
let max_out_bytes = 64 * 1024 * 1024
let max_connections = 256

let run (cfg : config) : stop =
  (* a peer that vanishes mid-write must surface as EPIPE, not kill us *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  Deadline.set_interrupt_action Deadline.Note;
  let t_start = Unix.gettimeofday () in
  let cache = Cache.create ~enabled:(not cfg.no_cache) ~dir:cfg.cache_dir () in
  let telemetry =
    Telemetry.create ?log_path:cfg.telemetry_path ~progress:false ~total:0 ()
  in
  let emit_server event fields = Telemetry.emit telemetry ~job:(-1) ~event fields in
  (* startup recovery scan: journals on disk are interrupted runs; they
     resume when their client resubmits (the run hash matches) *)
  let journals_found =
    if cfg.no_cache then 0 else Journal.count ~dir:cfg.cache_dir
  in
  if journals_found > 0 then begin
    Printf.eprintf
      "serve: %d interrupted run(s) journaled under %s; resubmitting a \
       matching sweep resumes it\n%!"
      journals_found cfg.cache_dir;
    emit_server "server-recovered" [ ("journals", Json.int journals_found) ]
  end;

  (* listen socket; refuse to clobber anything that is not a socket *)
  (match Unix.lstat cfg.socket_path with
  | { Unix.st_kind = Unix.S_SOCK; _ } -> Unix.unlink cfg.socket_path
  | _ -> failwith (cfg.socket_path ^ ": exists and is not a socket")
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
  let lfd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_UNIX cfg.socket_path);
  Unix.listen lfd 64;
  Unix.set_nonblock lfd;

  (* self-pipe: workers post completions, then write one byte so the
     select loop wakes even while otherwise idle *)
  let pipe_r, pipe_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock pipe_r;
  Unix.set_nonblock pipe_w;
  let comp_lock = Mutex.create () in
  let completions : completion list ref = ref [] in
  let wake () =
    try ignore (Unix.write_substring pipe_w "." 0 1)
    with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  in
  let post cp =
    Mutex.lock comp_lock;
    completions := cp :: !completions;
    Mutex.unlock comp_lock;
    wake ()
  in

  let queue : task Squeue.t = Squeue.create ~cap:cfg.queue_cap in
  let live_workers = Atomic.make cfg.workers in
  let worker () =
    let rec loop () =
      match Squeue.pop queue with
      | None -> ()
      | Some { t_sweep = sw; t_job = job } ->
          let result =
            (* cancelled or draining: discard unstarted jobs (they stay
               pending in the journal, exactly like batch-mode drain) *)
            if Atomic.get sw.sw_cancelled || Deadline.interrupt_requested ()
            then None
            else
              Runner.run_one sw.sw_cfg ~cache ~telemetry ?journal:sw.sw_journal
                ?replay:sw.sw_replay job
          in
          post { cp_sweep = sw; cp_job = job.Expand.id; cp_result = result };
          loop ()
    in
    loop ();
    ignore (Atomic.fetch_and_add live_workers (-1));
    wake ()
  in
  let workers = Array.init cfg.workers (fun _ -> Domain.spawn worker) in

  let conns : (Unix.file_descr, conn) Hashtbl.t = Hashtbl.create 16 in
  let sweeps : (string, sweep) Hashtbl.t = Hashtbl.create 16 in
  let st_accepted = ref 0 in
  let st_submitted = ref 0 in
  let st_jobs_done = ref 0 in
  let st_jobs_failed = ref 0 in
  let st_jobs_replayed = ref 0 in
  let st_overloaded = ref 0 in

  let send c body =
    if not c.c_close_after_flush then begin
      let line = Frame.encode body in
      Queue.add line c.c_out;
      c.c_out_bytes <- c.c_out_bytes + String.length line;
      if c.c_out_bytes > max_out_bytes then c.c_close_after_flush <- true
    end
  in
  let close_conn c =
    Hashtbl.remove conns c.c_fd;
    (try Unix.close c.c_fd with Unix.Unix_error _ -> ());
    (* a torn owner keeps its sweep running; the journal makes the
       results replayable when the client reconnects and resubmits *)
    Hashtbl.iter
      (fun _ sw -> if sw.sw_owner = Some c.c_fd then sw.sw_owner <- None)
      sweeps
  in
  let owner_conn sw =
    Option.bind sw.sw_owner (fun fd -> Hashtbl.find_opt conns fd)
  in

  let counts results =
    let b2i b = if b then 1 else 0 in
    Array.fold_left
      (fun (ok, su, fl, rp) r ->
        match r with
        | Some (r : Runner.job_result) ->
            ( ok + b2i (r.Runner.status = Runner.Ok),
              su + b2i (r.Runner.status = Runner.Suspect),
              fl + b2i (r.Runner.status = Runner.Failed),
              rp + b2i r.Runner.replayed )
        | None -> (ok, su, fl, rp))
      (0, 0, 0, 0) results
  in

  let finish_sweep sw =
    let complete = Array.for_all Option.is_some sw.sw_results in
    let cancelled = Atomic.get sw.sw_cancelled in
    let interrupted = not complete && not cancelled in
    let ok, suspect, failed, replayed = counts sw.sw_results in
    (match owner_conn sw with
    | Some c ->
        Array.iteri
          (fun id r ->
            match r with
            | Some r ->
                send c
                  (Protocol.report_event ~run:sw.sw_run ~job:id
                     ~line:(Report.line r))
            | None -> ())
          sw.sw_results;
        send c
          (Protocol.done_event ~run:sw.sw_run ~jobs:sw.sw_total ~ok ~suspect
             ~failed ~replayed ~cancelled ~interrupted)
    | None -> ());
    (match sw.sw_journal with
    | None -> ()
    | Some j ->
        (* delete the journal only when the results were DELIVERED: a
           complete-but-ownerless sweep keeps it so the client's
           resubmission replays everything byte-identically *)
        if complete && not cancelled && owner_conn sw <> None then
          Journal.finish_run j
        else Journal.close j);
    Hashtbl.remove sweeps sw.sw_run;
    emit_server "server-done"
      [
        ("run", Json.str sw.sw_run);
        ("ok", Json.int ok);
        ("suspect", Json.int suspect);
        ("failed", Json.int failed);
        ("replayed", Json.int replayed);
        ("cancelled", Json.bool cancelled);
        ("interrupted", Json.bool interrupted);
      ]
  in

  let process_completion cp =
    let sw = cp.cp_sweep in
    sw.sw_consumed <- sw.sw_consumed + 1;
    (match cp.cp_result with
    | Some r ->
        sw.sw_results.(cp.cp_job) <- Some r;
        incr st_jobs_done;
        if r.Runner.status = Runner.Failed then incr st_jobs_failed;
        if r.Runner.replayed then incr st_jobs_replayed;
        if sw.sw_events then (
          match owner_conn sw with
          | Some c ->
              send c
                (Protocol.job_event ~run:sw.sw_run ~job:cp.cp_job
                   ~status:(Runner.status_name r.Runner.status) ~cached:r.Runner.cached
                   ~replayed:r.Runner.replayed)
          | None -> ())
    | None -> ());
    if sw.sw_consumed = sw.sw_total then finish_sweep sw
  in
  let drain_completions () =
    Mutex.lock comp_lock;
    let cps = List.rev !completions in
    completions := [];
    Mutex.unlock comp_lock;
    List.iter process_completion cps
  in

  let outstanding () =
    Hashtbl.fold (fun _ sw acc -> acc + (sw.sw_total - sw.sw_consumed)) sweeps 0
  in

  let status_body () =
    let cs = Cache.stats cache in
    let queued = Squeue.length queue in
    let out = outstanding () in
    Json.obj
      [
        ("serve", Json.str "ok");
        ("uptime", Json.num (Unix.gettimeofday () -. t_start));
        ("connections", Json.int (Hashtbl.length conns));
        ("sweeps", Json.int (Hashtbl.length sweeps));
        ("inflight", Json.int (max 0 (out - queued)));
        ("queued", Json.int queued);
        ("queue_cap", Json.int cfg.queue_cap);
        ("workers", Json.int cfg.workers);
        ("accepted", Json.int !st_accepted);
        ("submitted", Json.int !st_submitted);
        ("jobs_done", Json.int !st_jobs_done);
        ("jobs_failed", Json.int !st_jobs_failed);
        ("jobs_replayed", Json.int !st_jobs_replayed);
        ("overloaded", Json.int !st_overloaded);
        ( "cache",
          Json.obj
            [
              ("hits", Json.int cs.Cache.hits);
              ("misses", Json.int cs.Cache.misses);
              ("evictions", Json.int cs.Cache.evictions);
              ("stores", Json.int cs.Cache.stores);
              ("entries", Json.int cs.Cache.entries);
              ("bytes", Json.int cs.Cache.bytes);
            ] );
        ( "journals",
          Json.int (if cfg.no_cache then 0 else Journal.count ~dir:cfg.cache_dir)
        );
      ]
  in

  let refuse_overloaded c detail =
    incr st_overloaded;
    emit_server "server-overloaded" detail;
    send c (Protocol.error ~detail Protocol.Overloaded)
  in

  let handle_submit c (s : Protocol.submit) =
    let spec =
      try
        Ok
          ( List.map Spec.parse_axis s.Protocol.s_params,
            List.map Spec.parse_corner s.Protocol.s_corners,
            Spec.parse_analyses s.Protocol.s_defaults s.Protocol.s_analyses )
      with Spec.Spec_error msg -> Error msg
    in
    match spec with
    | Error msg ->
        send c
          (Protocol.error ~detail:[ ("detail", Json.str msg) ]
             Protocol.Bad_request)
    | Ok (axes, corners, analyses) -> (
        (* the pipeline's pre-flight at the first sweep point, like
           `rfsim sweep`: a broken deck is refused before admission *)
        let refusal =
          if s.Protocol.s_no_lint then None
          else
            let overrides =
              List.map
                (fun (a : Spec.axis) -> (a.Spec.a_name, a.Spec.a_values.(0)))
                axes
            in
            match Pipeline.prepare ~overrides ~lint:true s.Protocol.s_deck with
            | Error r -> Some (Pipeline.refusal_to_string r)
            | Ok _ -> None
        in
        match refusal with
        | Some msg ->
            send c
              (Protocol.error ~detail:[ ("detail", Json.str msg) ]
                 Protocol.Bad_request)
        | None -> (
            let jobs = Expand.expand ~axes ~corners ~analyses in
            let total = List.length jobs in
            let rcfg =
              {
                Runner.deck_text = s.Protocol.s_deck;
                node = s.Protocol.s_node;
                domains = cfg.workers;
                budget = cfg.budget;
                tol_scale = 1.0;
                ordering = cfg.ordering;
                stats = false;
                deadline = cfg.job_deadline;
                grace = cfg.grace;
              }
            in
            let run = Runner.run_hash rcfg jobs in
            match Hashtbl.find_opt sweeps run with
            | Some sw ->
                (* identical sweep already in flight (e.g. the client
                   retried after a torn connection): adopt this
                   connection as the owner instead of re-running *)
                sw.sw_owner <- Some c.c_fd;
                send c
                  (Protocol.ack ~run ~jobs:sw.sw_total
                     ~replayed:sw.sw_ack_replayed ~attached:true)
            | None ->
                let owned =
                  Hashtbl.fold
                    (fun _ sw acc ->
                      if sw.sw_owner = Some c.c_fd then acc + 1 else acc)
                    sweeps 0
                in
                if owned >= cfg.client_inflight then
                  refuse_overloaded c
                    [
                      ("reason", Json.str "client-inflight");
                      ("cap", Json.int cfg.client_inflight);
                    ]
                else begin
                  let journal_existed =
                    (not cfg.no_cache)
                    && Journal.exists ~dir:cfg.cache_dir ~run
                  in
                  let replay =
                    if journal_existed then
                      Journal.load ~dir:cfg.cache_dir ~run
                    else None
                  in
                  let journal =
                    if cfg.no_cache then None
                    else Some (Journal.create ~dir:cfg.cache_dir ~run ~total)
                  in
                  let sw =
                    {
                      sw_run = run;
                      sw_cfg = rcfg;
                      sw_total = total;
                      sw_results = Array.make total None;
                      sw_consumed = 0;
                      sw_ack_replayed =
                        (match replay with
                        | None -> 0
                        | Some r -> Hashtbl.length r.Journal.r_finished);
                      sw_cancelled = Atomic.make false;
                      sw_owner = Some c.c_fd;
                      sw_events = s.Protocol.s_events;
                      sw_journal = journal;
                      sw_replay = replay;
                    }
                  in
                  let tasks = List.map (fun j -> { t_sweep = sw; t_job = j }) jobs in
                  if not (Squeue.push_all queue tasks) then begin
                    (* refused: undo the journal open — delete it only if
                       this submission created it (a pre-existing journal
                       is a real interrupted run we must not destroy) *)
                    (match journal with
                    | Some j ->
                        if journal_existed then Journal.close j
                        else Journal.finish_run j
                    | None -> ());
                    refuse_overloaded c
                      [
                        ("queued", Json.int (Squeue.length queue));
                        ("cap", Json.int cfg.queue_cap);
                        ("jobs", Json.int total);
                      ]
                  end
                  else begin
                    Hashtbl.replace sweeps run sw;
                    incr st_submitted;
                    emit_server "server-submit"
                      [
                        ("run", Json.str run);
                        ("jobs", Json.int total);
                        ("replayed", Json.int sw.sw_ack_replayed);
                      ];
                    send c
                      (Protocol.ack ~run ~jobs:total
                         ~replayed:sw.sw_ack_replayed ~attached:false)
                  end
                end))
  in

  let handle_frame c body =
    match Protocol.request_of_json body with
    | Error msg ->
        send c
          (Protocol.error ~detail:[ ("detail", Json.str msg) ]
             Protocol.Bad_request)
    | Ok Protocol.Status -> send c (status_body ())
    | Ok (Protocol.Poll { p_run }) -> (
        match Hashtbl.find_opt sweeps p_run with
        | None -> send c (Protocol.error Protocol.Unknown_run)
        | Some sw ->
            let completed =
              Array.fold_left
                (fun acc r -> if Option.is_some r then acc + 1 else acc)
                0 sw.sw_results
            in
            send c
              (Json.obj
                 [
                   ("poll", Json.str "ok");
                   ("run", Json.str sw.sw_run);
                   ("total", Json.int sw.sw_total);
                   ("completed", Json.int completed);
                   ("cancelled", Json.bool (Atomic.get sw.sw_cancelled));
                 ]))
    | Ok (Protocol.Cancel { c_run }) -> (
        match Hashtbl.find_opt sweeps c_run with
        | None -> send c (Protocol.error Protocol.Unknown_run)
        | Some sw ->
            Atomic.set sw.sw_cancelled true;
            send c
              (Json.obj
                 [ ("ok", Json.str "cancelled"); ("run", Json.str c_run) ]))
    | Ok (Protocol.Submit s) -> handle_submit c s
  in

  let read_buf = Bytes.create 65536 in
  let handle_readable c =
    match Unix.read c.c_fd read_buf 0 (Bytes.length read_buf) with
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      -> ()
    | exception Unix.Unix_error (_, _, _) -> close_conn c
    | 0 -> close_conn c
    | n ->
        c.c_last <- Unix.gettimeofday ();
        List.iter
          (function
            | Frame.Frame body -> handle_frame c body
            | Frame.Oversized k ->
                send c
                  (Protocol.error
                     ~detail:
                       [ ("bytes", Json.int k); ("max", Json.int cfg.max_frame) ]
                     Protocol.Frame_too_large))
          (Frame.feed c.c_framer (Bytes.sub_string read_buf 0 n))
  in
  let handle_writable c =
    match Queue.peek_opt c.c_out with
    | None -> ()
    | Some line -> (
        let len = String.length line - c.c_out_ofs in
        match Unix.write_substring c.c_fd line c.c_out_ofs len with
        | exception
            Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
          -> ()
        | exception Unix.Unix_error (_, _, _) -> close_conn c
        | n ->
            c.c_last <- Unix.gettimeofday ();
            c.c_out_bytes <- c.c_out_bytes - n;
            if n = len then begin
              ignore (Queue.pop c.c_out);
              c.c_out_ofs <- 0;
              if Queue.is_empty c.c_out && c.c_close_after_flush then
                close_conn c
            end
            else c.c_out_ofs <- c.c_out_ofs + n)
  in

  let accept_ready = ref true in
  let rec accept_loop () =
    match Unix.accept ~cloexec:true lfd with
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
    | exception Unix.Unix_error (_, _, _) -> ()
    | fd, _ ->
        incr st_accepted;
        if Faults.accept_sabotage () then begin
          (* injected torn connection: close unread so the client
             exercises its reconnect/backoff path *)
          (try Unix.close fd with Unix.Unix_error _ -> ());
          accept_loop ()
        end
        else if Hashtbl.length conns >= max_connections then begin
          (* best-effort typed refusal on a fresh (still blocking) fd *)
          let line =
            Frame.encode
              (Protocol.error
                 ~detail:[ ("reason", Json.str "connections") ]
                 Protocol.Overloaded)
          in
          (try ignore (Unix.write_substring fd line 0 (String.length line))
           with Unix.Unix_error _ -> ());
          (try Unix.close fd with Unix.Unix_error _ -> ());
          incr st_overloaded;
          accept_loop ()
        end
        else begin
          Unix.set_nonblock fd;
          Hashtbl.replace conns fd
            {
              c_fd = fd;
              c_framer = Frame.create ~max_frame:cfg.max_frame ();
              c_out = Queue.create ();
              c_out_ofs = 0;
              c_out_bytes = 0;
              c_last = Unix.gettimeofday ();
              c_close_after_flush = false;
            };
          accept_loop ()
        end
  in

  let conn_owns_sweep c =
    Hashtbl.fold
      (fun _ sw acc -> acc || sw.sw_owner = Some c.c_fd)
      sweeps false
  in
  let check_timeouts now =
    let doomed = ref [] in
    Hashtbl.iter
      (fun _ c ->
        let slow_request =
          match (cfg.request_timeout, Frame.partial_since c.c_framer) with
          | Some limit, Some since -> now -. since > limit
          | _ -> false
        in
        let idle =
          match cfg.idle_timeout with
          | Some limit ->
              now -. c.c_last > limit
              && Frame.partial_since c.c_framer = None
              && not (conn_owns_sweep c)
          | None -> false
        in
        if slow_request then begin
          send c
            (Protocol.error
               ~detail:[ ("detail", Json.str "request timed out mid-frame") ]
               Protocol.Bad_request);
          c.c_close_after_flush <- true
        end
        else if idle then doomed := c :: !doomed)
      conns;
    List.iter close_conn !doomed
  in

  emit_server "server-start"
    [
      ("socket", Json.str cfg.socket_path);
      ("workers", Json.int cfg.workers);
      ("queue_cap", Json.int cfg.queue_cap);
    ];
  (* the ready line is the startup handshake scripts wait for *)
  print_string
    (Json.obj
       [
         ("serve", Json.str "ready");
         ("socket", Json.str cfg.socket_path);
         ("workers", Json.int cfg.workers);
         ("queue_cap", Json.int cfg.queue_cap);
       ]
    ^ "\n");
  flush stdout;

  let draining = ref false in
  let drain_deadline = ref infinity in
  let running = ref true in
  while !running do
    let now = Unix.gettimeofday () in
    if Deadline.interrupt_requested () && not !draining then begin
      (* graceful drain: stop accepting, close the queue (workers discard
         unstarted tasks), let in-flight jobs finish under the clamp *)
      draining := true;
      drain_deadline := now +. cfg.grace +. 2.0;
      emit_server "server-drain" [ ("grace", Json.num cfg.grace) ];
      Printf.eprintf "serve: draining (grace %.1fs)\n%!" cfg.grace;
      (try Unix.close lfd with Unix.Unix_error _ -> ());
      accept_ready := false;
      Squeue.close queue
    end;
    if !draining then begin
      drain_completions ();
      if
        (Atomic.get live_workers = 0 && outstanding () = 0)
        || now > !drain_deadline
      then begin
        (* unfinished sweeps get a typed interrupted done frame; their
           journals stay on disk for resume *)
        let leftover = Hashtbl.fold (fun _ sw acc -> sw :: acc) sweeps [] in
        List.iter finish_sweep leftover;
        running := false
      end
    end;
    if !running then begin
      check_timeouts now;
      let conn_fds = Hashtbl.fold (fun fd _ acc -> fd :: acc) conns [] in
      let rfds =
        (if !accept_ready then [ lfd ] else []) @ (pipe_r :: conn_fds)
      in
      let wfds =
        Hashtbl.fold
          (fun fd c acc -> if Queue.is_empty c.c_out then acc else fd :: acc)
          conns []
      in
      match Unix.select rfds wfds [] 0.1 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | exception Unix.Unix_error (Unix.EBADF, _, _) ->
          (* a fd closed between collection and select (e.g. the listen
             socket at drain start); next iteration rebuilds the sets *)
          ()
      | readable, writable, _ ->
          if List.memq pipe_r readable then begin
            (let drained = ref false in
             while not !drained do
               match Unix.read pipe_r read_buf 0 (Bytes.length read_buf) with
               | exception
                   Unix.Unix_error
                     ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
                   drained := true
               | 0 -> drained := true
               | _ -> ()
             done);
            drain_completions ()
          end;
          if !accept_ready && List.memq lfd readable then accept_loop ();
          List.iter
            (fun fd ->
              match Hashtbl.find_opt conns fd with
              | Some c -> handle_readable c
              | None -> ())
            readable;
          List.iter
            (fun fd ->
              match Hashtbl.find_opt conns fd with
              | Some c -> handle_writable c
              | None -> ())
            writable;
          drain_completions ()
    end
  done;

  (* best-effort flush of the interrupted done frames, then teardown *)
  let flush_until = Unix.gettimeofday () +. 0.5 in
  let rec flush_outputs () =
    let wfds =
      Hashtbl.fold
        (fun fd c acc -> if Queue.is_empty c.c_out then acc else fd :: acc)
        conns []
    in
    if wfds <> [] && Unix.gettimeofday () < flush_until then begin
      (match Unix.select [] wfds [] 0.05 with
      | exception Unix.Unix_error (_, _, _) -> ()
      | _, writable, _ ->
          List.iter
            (fun fd ->
              match Hashtbl.find_opt conns fd with
              | Some c -> handle_writable c
              | None -> ())
            writable);
      flush_outputs ()
    end
  in
  flush_outputs ();
  Hashtbl.iter (fun _ c -> try Unix.close c.c_fd with Unix.Unix_error _ -> ()) conns;
  if Atomic.get live_workers = 0 then Array.iter Domain.join workers;
  (try Unix.close pipe_r with Unix.Unix_error _ -> ());
  (try Unix.close pipe_w with Unix.Unix_error _ -> ());
  (try Unix.unlink cfg.socket_path with Unix.Unix_error _ -> ());
  let drained = Hashtbl.length sweeps in
  emit_server "server-stop"
    [
      ("drained", Json.int drained);
      ("submitted", Json.int !st_submitted);
    ];
  Telemetry.close telemetry;
  { drained_sweeps = drained; served_sweeps = !st_submitted }
