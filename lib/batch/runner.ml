(* Parallel job execution across OCaml 5 domains.

   The scheduler is a bounded pool over an atomic job cursor: each domain
   repeatedly claims the next unclaimed job index and runs it to
   completion. Results land in a slot array indexed by job id, so the
   report order is the canonical expansion order regardless of which
   domain finished when — determinism lives in the data layout, not in
   any ordering of the domains.

   A failed job never kills the sweep: engines already escalate through
   their Supervisor ladders (and HB through the whole PSS cascade), and a
   job that still fails is recorded as a typed failure in its slot.
   Failures are NOT cached: a budget-bound failure is wall-clock
   dependent, and freezing one into the content-addressed store would
   replay a transient as a permanent fact. *)

open Rfkit_circuit
module La = Rfkit_la
module Rf = Rfkit_rf
module Sup = Rfkit_solve.Supervisor
module Deadline = Rfkit_solve.Deadline
module Faults = Rfkit_solve.Faults

type status = Pipeline.status = Ok | Suspect | Failed

type job_result = {
  job : Expand.job;
  status : status;
  cached : bool;
  replayed : bool;
  payload : string;
  wall : float;
  newton : int;
  krylov : int;
}

type config = {
  deck_text : string;
  node : string;
  domains : int;
  budget : Sup.budget option;  (** [None]: each engine's own default *)
  tol_scale : float;
  ordering : Rfkit_struct.Order.mode;
  stats : bool;
  deadline : float option;  (** per-job wall-clock limit, seconds *)
  grace : float;  (** drain budget after a stop request, seconds *)
}

type outcome = { results : job_result option array; interrupted : bool }

let request_stop ~grace = Deadline.begin_drain ~grace

(* ---------------------------------------------------------- payloads -- *)

let payload_ok ~status ~analysis ~engine ~certificate ~newton ~krylov ~data =
  Json.obj
    [
      ("status", Json.str (match status with Suspect -> "suspect" | _ -> "ok"));
      ("analysis", Json.str (Spec.analysis_name analysis));
      ("engine", Json.str engine);
      ("certificate", Json.str certificate);
      ("newton", Json.int newton);
      ("krylov", Json.int krylov);
      ("data", data);
    ]

let payload_failed ~analysis ~cause =
  Json.obj
    [
      ("status", Json.str "failed");
      ("analysis", Json.str (Spec.analysis_name analysis));
      ("cause", Json.str cause);
    ]

let status_of_payload payload =
  if String.length payload >= 15 && String.sub payload 0 15 = {|{"status":"ok",|} then Ok
  else if
    String.length payload >= 20 && String.sub payload 0 20 = {|{"status":"suspect",|}
  then Suspect
  else Failed

let dc_data c x =
  let nl = Mna.netlist c in
  let nodes = Netlist.node_count nl in
  let voltages =
    List.init nodes (fun i ->
        ("v(" ^ Netlist.node_name nl i ^ ")", Json.num x.(i)))
  in
  (* branch-current unknowns (voltage sources, inductors) follow the node
     block; their labels are already canonical ["i(DEV)"] *)
  let currents =
    List.init (Mna.size c - nodes) (fun k ->
        let i = nodes + k in
        (Mna.unknown_label c i, Json.num x.(i)))
  in
  let volt n = if n < 0 then 0.0 else x.(n) in
  let power =
    List.fold_left
      (fun acc d ->
        match d with
        | Device.Vsource { name; p; n; _ } -> (
            match Mna.branch_index c name with
            | Some b -> acc +. Float.abs ((volt p -. volt n) *. x.(b))
            | None -> acc)
        | _ -> acc)
      0.0 (Netlist.devices nl)
  in
  Json.obj (voltages @ currents @ [ ("power", Json.num power) ])

let ac_data c node (res : Ac.result) =
  Json.obj
    [
      ("freq", Json.arr (Array.to_list (Array.map Json.num res.Ac.freqs)));
      ( "mag",
        Json.arr
          (Array.to_list
             (Array.map (fun z -> Json.num (La.Cx.abs z)) (Ac.transfer c res node))) );
    ]

let tran_data c node (res : Tran.result) =
  let trace = Tran.voltage_trace c res node in
  let n = Array.length trace in
  Json.obj
    [
      ("t_end", Json.num res.Tran.times.(n - 1));
      ("v_end", Json.num trace.(n - 1));
      ("v_min", Json.num (Array.fold_left min trace.(0) trace));
      ("v_max", Json.num (Array.fold_left max trace.(0) trace));
    ]

let harmonics_data node n sol =
  Json.obj
    [
      ( "harmonics",
        Json.arr
          (List.init (n + 1) (fun k ->
               Json.num (Rf.Pss.harmonic_amplitude sol node k))) );
    ]

(* ------------------------------------------------------------ execute -- *)

(* One job: the pipeline's parse (no lint — the sweep linted its first
   point up front) and one Mna.build, one table request, one payload. *)
let execute cfg (job : Expand.job) =
  let analysis = job.Expand.analysis in
  let failed cause newton = (Failed, payload_failed ~analysis ~cause, newton, 0) in
  match Pipeline.prepare ~overrides:job.Expand.params ~lint:false cfg.deck_text with
  | Error refusal -> failed (Pipeline.refusal_to_string refusal) 0
  | Ok deck ->
      let c = Pipeline.circuit ~ordering:cfg.ordering deck in
      (* every payload but dc's reads the output node *)
      let node = match analysis with Spec.Dc -> None | _ -> Some cfg.node in
      let finish req data =
        let outcome = Pipeline.run ?budget:cfg.budget ~certify:cfg.tol_scale ?node c req in
        match outcome with
        | Pipeline.Failed f ->
            failed
              (Sup.cause_to_string (Pipeline.failure_cause f))
              (Pipeline.failure_iterations f)
        | Pipeline.Converged r ->
            let status = Pipeline.status outcome in
            let certificate =
              match r.Pipeline.certificate with
              | None -> "none"
              | Some _ -> if status = Suspect then "suspect" else "certified"
            in
            ( status,
              payload_ok ~status ~analysis ~engine:r.Pipeline.engine ~certificate
                ~newton:r.Pipeline.newton ~krylov:r.Pipeline.krylov
                ~data:(data r.Pipeline.value),
              r.Pipeline.newton,
              r.Pipeline.krylov )
      in
      let ((_, _, newton, krylov) as result) =
        match analysis with
        | Spec.Dc -> finish Pipeline.Dc (dc_data c)
        | Spec.Ac { f_start; f_stop; points_per_decade } ->
            let freqs = Ac.log_freqs ~f_start ~f_stop ~points_per_decade in
            finish (Pipeline.Ac { source = None; freqs }) (ac_data c cfg.node)
        | Spec.Tran { t_stop; dt } ->
            finish (Pipeline.Tran { t_stop; dt }) (tran_data c cfg.node)
        | Spec.Hb { freq; harmonics } ->
            finish (Pipeline.Pss { freq; harmonics }) (harmonics_data cfg.node harmonics)
        | Spec.Shooting { freq; steps } ->
            finish (Pipeline.Shooting { freq; steps }) (fun res ->
                harmonics_data cfg.node 8 (Rf.Pss.of_shooting res))
      in
      (* the stats line goes to stderr (never part of the deterministic
         stdout contract) *)
      if cfg.stats then begin
        let x = La.Vec.create (Mna.size c) in
        let g = Mna.jac_g_sparse c x in
        Printf.eprintf
          "stats: job=%d analysis=%s unknowns=%d nnz(G)=%d newton=%d gmres=%d \
           fill_nnz=%d ordering=%s\n"
          job.Expand.id
          (Spec.analysis_name analysis)
          (Mna.size c) (La.Sparse.nnz g) newton krylov
          (La.Sparse_lu.fill_nnz ())
          (Rfkit_struct.Order.mode_to_string cfg.ordering)
      end;
      result

(* ------------------------------------------------------------- pool -- *)

let budget_tag = function
  | None -> "budget=default"
  | Some (b : Sup.budget) ->
      Printf.sprintf "budget=%d:%d:%.9g" b.Sup.attempt_iterations
        b.Sup.total_iterations b.Sup.wall_clock

let job_key cfg (job : Expand.job) =
  Cache.key ~deck_text:cfg.deck_text ~params:job.Expand.params
    ~analysis_tag:(Spec.analysis_tag job.Expand.analysis)
    ~options:
      [
        "node=" ^ cfg.node;
        budget_tag cfg.budget;
        Printf.sprintf "certify-scale=%.9g" cfg.tol_scale;
        (* orderings permute the elimination, perturbing results in the
           last float digits: cached payloads must not cross modes *)
        "ordering=" ^ Rfkit_struct.Order.mode_to_string cfg.ordering;
      ]

(* run identity: a hash over every job's cache key (deck, params,
   analysis, engine options) plus the job count and the deadline config —
   anything that can change what the journal records. A --resume against
   a different spec simply finds no journal. *)
let run_hash cfg jobs =
  Hash.digest
    (String.concat "\n"
       (Printf.sprintf "jobs=%d" (List.length jobs)
       :: Printf.sprintf "deadline=%s"
            (match cfg.deadline with
            | None -> "none"
            | Some s -> Printf.sprintf "%.9g" s)
       :: List.map (job_key cfg) jobs))

let status_name = function Ok -> "ok" | Suspect -> "suspect" | Failed -> "failed"

let contains_substring haystack needle =
  let hn = String.length haystack and nn = String.length needle in
  let rec at i = i + nn <= hn && (String.sub haystack i nn = needle || at (i + 1)) in
  at 0

(* A job that died of Interrupted (or of the drain clamp's Expired, which
   renders as a deadline cause) while a stop was pending would have
   completed in an uninterrupted run — journaling it as failed would make
   the resumed report differ from the uninterrupted one. Such jobs are
   discarded: no journal record, slot stays empty, resume re-executes. *)
let killed_by_drain ~status ~payload =
  status = Failed
  && Deadline.interrupt_requested ()
  && (contains_substring payload {|"cause":"interrupted|}
     || contains_substring payload {|"cause":"deadline exceeded|})

let run_one cfg ~cache ~telemetry ?journal ?replay (job : Expand.job) =
  let id = job.Expand.id in
  let finish_record ~status ~key ~payload =
    match journal with
    | None -> ()
    | Some j ->
        Journal.record_finish j ~job:id ~status:(status_name status) ~key
          ~payload:(match status with Failed -> Some payload | _ -> None)
  in
  (* crash/interrupt chaos fires at the completion boundary, i.e. right
     after the finish record is durable — the point a real crash is most
     likely to interleave with *)
  let completion_boundary () =
    match Faults.job_completed () with
    | `Continue -> ()
    | `Interrupt -> request_stop ~grace:cfg.grace
  in
  let fresh () =
    let key = job_key cfg job in
    Telemetry.emit telemetry ~job:id ~event:"started"
      [ ("analysis", Json.str (Spec.analysis_tag job.Expand.analysis)) ];
    (match journal with Some j -> Journal.record_start j ~job:id | None -> ());
    let t0 = Unix.gettimeofday () in
    match Cache.lookup cache key with
    | Some payload ->
        Telemetry.emit telemetry ~job:id ~event:"cache-hit"
          [ ("key", Json.str key) ];
        let status = status_of_payload payload in
        finish_record ~status ~key ~payload;
        completion_boundary ();
        Some
          {
            job;
            status;
            cached = true;
            replayed = false;
            payload;
            wall = Unix.gettimeofday () -. t0;
            newton = 0;
            krylov = 0;
          }
    | None ->
        (match cfg.deadline with
        | Some seconds -> Deadline.arm ~seconds
        | None -> ());
        let status, payload, newton, krylov =
          Fun.protect ~finally:Deadline.disarm (fun () ->
              try
                Faults.stall ~job:id;
                execute cfg job
              with
              | Deadline.Expired seconds ->
                  ( Failed,
                    payload_failed ~analysis:job.Expand.analysis
                      ~cause:
                        (Sup.cause_to_string (Sup.Deadline_exceeded { seconds })),
                    0, 0 )
              | Deadline.Interrupted ->
                  ( Failed,
                    payload_failed ~analysis:job.Expand.analysis
                      ~cause:(Sup.cause_to_string Sup.Interrupted),
                    0, 0 )
              | e ->
                  ( Failed,
                    payload_failed ~analysis:job.Expand.analysis
                      ~cause:("exception: " ^ Printexc.to_string e),
                    0, 0 ))
        in
        let wall = Unix.gettimeofday () -. t0 in
        if killed_by_drain ~status ~payload then begin
          Telemetry.emit telemetry ~job:id ~event:"aborted"
            [ ("wall", Printf.sprintf "%.6f" wall) ];
          None
        end
        else begin
          (match status with
          | Failed ->
              Telemetry.emit telemetry ~job:id ~event:"failed"
                [
                  ("wall", Printf.sprintf "%.6f" wall);
                  ("newton", Json.int newton);
                  ("krylov", Json.int krylov);
                ]
          | Ok | Suspect ->
              Cache.store cache key payload;
              Telemetry.emit telemetry ~job:id ~event:"finished"
                [
                  ("wall", Printf.sprintf "%.6f" wall);
                  ("newton", Json.int newton);
                  ("krylov", Json.int krylov);
                ]);
          finish_record ~status ~key ~payload;
          completion_boundary ();
          Some { job; status; cached = false; replayed = false; payload; wall; newton; krylov }
        end
  in
  match
    Option.bind replay (fun r -> Hashtbl.find_opt r.Journal.r_finished id)
  with
  | None -> fresh ()
  | Some e -> (
      let payload =
        match e.Journal.e_payload with
        | Some p -> Some p (* failed jobs replay their inlined bytes *)
        | None -> Cache.lookup cache e.Journal.e_key
      in
      match payload with
      | Some payload ->
          Telemetry.emit telemetry ~job:id ~event:"replayed"
            [ ("key", Json.str e.Journal.e_key) ];
          Some
            {
              job;
              status = status_of_payload payload;
              cached = false;
              replayed = true;
              payload;
              wall = 0.;
              newton = 0;
              krylov = 0;
            }
      | None ->
          (* the cache entry was evicted out from under the journal
             (gc pins should prevent this); recompute rather than fail *)
          fresh ())

let run cfg ~cache ~telemetry ?journal ?replay jobs =
  Deadline.set_interrupt_action Deadline.Note;
  let jobs_a = Array.of_list jobs in
  let n = Array.length jobs_a in
  Array.iter
    (fun (j : Expand.job) ->
      Telemetry.emit telemetry ~job:j.Expand.id ~event:"queued"
        [ ("analysis", Json.str (Spec.analysis_tag j.Expand.analysis)) ])
    jobs_a;
  let results = Array.make n None in
  let next = Atomic.make 0 in
  let worker () =
    let rec loop () =
      (* a pending stop closes the dispatch gate: in-flight jobs drain
         (bounded by the grace clamp), queued jobs stay unclaimed for
         resume *)
      if not (Deadline.interrupt_requested ()) then begin
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          results.(i) <- run_one cfg ~cache ~telemetry ?journal ?replay jobs_a.(i);
          loop ()
        end
      end
    in
    loop ()
  in
  let d = max 1 cfg.domains in
  if d = 1 then worker ()
  else begin
    let helpers = Array.init (d - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    Array.iter Domain.join helpers
  end;
  { results; interrupted = Deadline.interrupt_requested () }
