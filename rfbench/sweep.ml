(* The sweep group: a seeded corner/parameter job mix of small decks
   through Batch.Runner, cold (compute, cache writes, fsynced journal) and
   warm (hashing, cache reads, report), plus a closed optimization loop to
   a met mask spec. Per-job overhead layers dominate; the numerics are
   small.

   Cold passes and optimizations share one cache directory per run and
   stay cold through a per-pass comment line on the deck: every key is
   new, so every job misses and is computed, stored and journaled, while
   the 256 fan-out subdirectories are made once per run, not per pass.
   With a fresh directory per pass the cold throughput followed the
   disk's mkdir latency, which swung 5x on a 2-vCPU cloud VM, and drifted
   26 % there between two sets of runs while CPU-bound metrics drifted
   5-11 %.

   The timed passes run at one domain. On a two-vCPU host a two-domain
   pass waits at every stop-the-world minor collection for whichever vCPU
   the host has stolen, and its throughput swung 2-3x between otherwise
   identical runs. The two-domain pass still runs as a correctness gate
   and as the traced run's runner.domain_speedup. *)

open Rfkit
open Common
module B = Batch

type size = { points : int; cold_reps : int; warm_reps : int; opt_reps : int }

let size = function
  | Large -> { points = 8; cold_reps = 2; warm_reps = 20; opt_reps = 8 }
  | Small -> { points = 4; cold_reps = 2; warm_reps = 6; opt_reps = 4 }

(* scratch directories live under the checkout, one tree per process *)
let root = Filename.concat ".rfbench" (Printf.sprintf "run-%d" (Unix.getpid ()))
let counter = ref 0

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let fresh_dir tag =
  incr counter;
  let d = Filename.concat root (Printf.sprintf "%s-%d" tag !counter) in
  mkdir_p d;
  d

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

type sweep = { cfg : B.Runner.config; jobs : B.Expand.job list }

let config ~deck ~node =
  {
    B.Runner.deck_text = deck;
    node;
    domains = 1;
    budget = None;
    tol_scale = 1.0;
    ordering = Rfkit_struct.Order.Btf_amd;
    stats = false;
    deadline = None;
    grace = 2.0;
  }

(* the run identity rfsim sweep journals under *)
let run_hash cfg jobs =
  B.Hash.digest
    (String.concat "\n"
       (Printf.sprintf "jobs=%d" (List.length jobs)
       :: "deadline=none" :: List.map (B.Runner.job_key cfg) jobs))

(* lint pre-flight at the first sweep point, then spec parse and
   expansion, as rfsim sweep does before dispatching *)
let load_sweep (s : Gen.sweep) =
  let axes = List.map B.Spec.parse_axis s.Gen.axes in
  let corners = List.map B.Spec.parse_corner s.Gen.corners in
  let analyses = B.Spec.parse_analyses s.Gen.defaults s.Gen.analyses in
  let overrides =
    (match corners with c :: _ -> c.B.Spec.c_overrides | [] -> [])
    @ List.map (fun a -> (a.B.Spec.a_name, a.B.Spec.a_values.(0))) axes
  in
  let nl, located =
    Trace.span ~layer:"deck" "deck.parse_string_located" (fun () ->
        Rfkit_circuit.Deck.parse_string_located ~overrides s.Gen.deck)
  in
  let ds = Trace.span ~layer:"lint" "lint.run" (fun () -> Lint.run nl located) in
  if Lint.has_errors ds then failwith ("sweep deck fails lint: " ^ s.Gen.name);
  seti_add "lint.diagnostics" (List.length ds);
  let jobs =
    Trace.span ~layer:"batch" "batch.expand" (fun () -> B.Expand.expand ~axes ~corners ~analyses)
  in
  { cfg = config ~deck:s.Gen.deck ~node:s.Gen.node; jobs }

let opt_spec () = Opt.Spec.of_strings Gen.opt_spec
let opt_vars () = List.map Opt.Loop.parse_var Gen.opt_vars

let opt_analysis = B.Spec.Ac { f_start = 1e3; f_stop = 1e8; points_per_decade = 100 }

let opt_config = config ~deck:Gen.opt_deck ~node:"out"

let opt_options = { Opt.Optim.default_options with max_evals = 200 }

type t = {
  size : size;
  sweeps : sweep list;
  jobs : int;
  spec : Opt.Spec.t;
  vars : Opt.Loop.var list;
  cold_cache : B.Cache.t;  (** every cold pass; salt 0 is the warm store *)
  opt_cache : B.Cache.t;
  mutable passes : int;  (** salts handed out so far *)
  mutable reference : string;  (** report of the salt-0 cold pass *)
  mutable last_cold : B.Runner.job_result option array list;
  mutable last_warm : B.Runner.job_result option array list;
  mutable evals : int;
  mutable opt_met : bool;
  mutable opt_trace : string list;  (** eval trace lines of the last run *)
}

let generate ~seed scale = Gen.sweep_mix (Prng.make ~stream:3 seed) ~points:(size scale).points

let load scale mix =
  let sweeps = List.map load_sweep mix in
  {
    size = size scale;
    sweeps;
    jobs = List.fold_left (fun n (s : sweep) -> n + List.length s.jobs) 0 sweeps;
    spec = opt_spec ();
    vars = opt_vars ();
    cold_cache = B.Cache.create ~dir:(Filename.concat root "cold") ();
    opt_cache = B.Cache.create ~dir:(Filename.concat root "opt") ();
    passes = 0;
    reference = "";
    last_cold = [];
    last_warm = [];
    evals = 0;
    opt_met = false;
    opt_trace = [];
  }

(* a pass's own deck text: same circuit, new cache keys *)
let salted ~salt (cfg : B.Runner.config) =
  { cfg with deck_text = Printf.sprintf "* rfbench pass %d\n%s" salt cfg.deck_text }

let next_salt t =
  let salt = t.passes in
  t.passes <- salt + 1;
  salt

let telemetry () = B.Telemetry.create ~progress:false ~total:0 ()

let report results =
  let b = Buffer.create 4096 in
  List.iter
    (Array.iter (function
      | Some r ->
          Buffer.add_string b (B.Report.line r);
          Buffer.add_char b '\n'
      | None -> Buffer.add_string b "missing\n"))
    results;
  Buffer.contents b

let all_ok results = List.for_all B.Report.all_ok results

(* every sweep of the mix through the runner against [cache], each under
   its own fsynced journal when [journal] *)
let pass ?(journal = false) ?(domains = 1) ~salt t cache =
  List.map
    (fun s ->
      let cfg = { (salted ~salt s.cfg) with B.Runner.domains } in
      let journal =
        if journal then
          Some
            (B.Journal.create ~dir:(B.Cache.dir cache) ~run:(run_hash cfg s.jobs)
               ~total:(List.length s.jobs))
        else None
      in
      let o =
        Trace.span ~layer:"batch" "batch.runner.run" (fun () ->
            B.Runner.run cfg ~cache ~telemetry:(telemetry ()) ?journal s.jobs)
      in
      Option.iter B.Journal.finish_run journal;
      o.B.Runner.results)
    t.sweeps

let cold ?domains t =
  let salt = next_salt t in
  let results = pass ~journal:true ?domains ~salt t t.cold_cache in
  t.last_cold <- results;
  let r = report results in
  if salt = 0 then t.reference <- r;
  (all_ok results, r)

(* served from the salt-0 cold pass's entries *)
let warm t =
  let results = pass ~salt:0 t t.cold_cache in
  t.last_warm <- results;
  (all_ok results, report results)

let optimize t =
  let cfg = salted ~salt:(next_salt t) opt_config in
  let lines = ref [] in
  let o =
    Trace.span ~layer:"opt" "opt.loop.run" (fun () ->
        Opt.Loop.run cfg ~cache:t.opt_cache ~telemetry:(telemetry ()) ~spec:t.spec
          ~emit:(fun l -> lines := l :: !lines)
          ~options:opt_options ~analysis:opt_analysis t.vars)
  in
  t.opt_trace <- List.rev !lines;
  t.evals <- o.Opt.Loop.o_evals;
  t.opt_met <-
    (match o.Opt.Loop.o_best with Some e -> e.Opt.Loop.e_score.Opt.Spec.met | None -> false);
  o

let ops t =
  let s = t.size in
  let jobs = float_of_int t.jobs in
  [
    { metric = "sweep_cold_jobs_per_s"; reps = s.cold_reps;
      value = (fun sec -> jobs /. sec);
      run = (fun () -> let ok, r = cold t in ok && r = t.reference) };
    { metric = "sweep_warm_jobs_per_s"; reps = s.warm_reps;
      value = (fun sec -> jobs /. sec);
      run = (fun () -> let ok, r = warm t in ok && r = t.reference) };
    { metric = "optimize_s"; reps = s.opt_reps; value = seconds;
      run = (fun () -> ignore (optimize t); t.opt_met) };
  ]

let hit_ratio cache f =
  let s0 = B.Cache.stats cache in
  let r = f () in
  let s1 = B.Cache.stats cache in
  let hits = s1.B.Cache.hits - s0.B.Cache.hits and misses = s1.B.Cache.misses - s0.B.Cache.misses in
  (r, float_of_int hits /. float_of_int (max 1 (hits + misses)))

let gates t =
  [
    ("sweep.cold_all_ok", fun () -> fst (cold t));
    ( "sweep.two_domains_identical",
      fun () ->
        let ok, r = cold ~domains:2 t in
        ok && r = t.reference );
    ( "sweep.warm_byte_identical",
      fun () ->
        let ok, r = warm t in
        ok && r = t.reference );
    ("sweep.warm_hit_ratio", fun () -> snd (hit_ratio t.cold_cache (fun () -> warm t)) = 1.0);
    ("sweep.optimize_met", fun () -> ignore (optimize t); t.opt_met);
  ]

(* ---- traced-run probes -------------------------------------------------- *)

let mean_wall results =
  let n = ref 0 and s = ref 0.0 in
  List.iter
    (Array.iter (function
      | Some r ->
          incr n;
          s := !s +. r.B.Runner.wall
      | None -> ()))
    results;
  !s /. float_of_int (max 1 !n)

(* A warm pass job by job through Runner.run_one, so every job gets its
   own span; the timed passes are timed whole and never read the global
   LU counters. *)
let serial_pass t cache =
  List.map
    (fun s ->
      Array.of_list
        (List.map
           (fun job ->
             Trace.span ~layer:"batch" "batch.runner.run_one" (fun () ->
                 B.Runner.run_one (salted ~salt:0 s.cfg) ~cache ~telemetry:(telemetry ()) job))
           s.jobs))
    t.sweeps

let probe t =
  seti "expand.jobs" t.jobs;
  seti "journal.records" t.jobs;
  set "runner.cold_job_s" (mean_wall t.last_cold);
  set "runner.warm_job_s" (mean_wall t.last_warm);
  (* cold pass at one domain against the same pass at two *)
  let cold_at domains =
    snd (timed (fun () -> ignore (pass ~journal:true ~domains ~salt:(next_salt t) t t.cold_cache)))
  in
  let t1 = cold_at 1 and t2 = cold_at 2 in
  set "runner.domain_speedup" (t1 /. t2);
  let cache = t.cold_cache in
  let (), ratio =
    hit_ratio cache (fun () ->
        Trace.span ~layer:"bench" "probe.warm_pass" (fun () ->
            let r = serial_pass t cache in
            ignore (Trace.span ~layer:"batch" "batch.report.line" (fun () -> report r))))
  in
  set "cache.hit_ratio" ratio;
  let st = B.Cache.stats cache in
  set "cache.entry_bytes" (float_of_int st.B.Cache.bytes /. float_of_int (max 1 st.B.Cache.entries));
  let keys =
    List.concat_map (fun s -> List.map (B.Runner.job_key (salted ~salt:0 s.cfg)) s.jobs) t.sweeps
  in
  let n = float_of_int (List.length keys) in
  let payloads =
    List.map
      (fun k -> (k, Trace.span ~layer:"batch" "batch.cache.lookup" (fun () -> B.Cache.lookup cache k)))
      keys
  in
  set "cache.lookup_s"
    (snd (timed (fun () -> List.iter (fun k -> ignore (B.Cache.lookup cache k)) keys)) /. n);
  let scratch = B.Cache.create ~dir:(fresh_dir "store") () in
  set "cache.store_s"
    (snd
       (timed (fun () ->
            List.iter
              (fun (k, p) ->
                Trace.span ~layer:"batch" "batch.cache.store" (fun () ->
                    B.Cache.store scratch k (Option.value p ~default:"{}")))
              payloads))
    /. n);
  let j = B.Journal.create ~dir:(fresh_dir "journal") ~run:"probe" ~total:(List.length keys) in
  set "journal.record_s"
    (snd
       (timed (fun () ->
            List.iteri
              (fun i k ->
                Trace.span ~layer:"batch" "batch.journal.record_finish" (fun () ->
                    B.Journal.record_finish j ~job:i ~status:"ok" ~key:k ~payload:None))
              keys))
    /. n);
  B.Journal.close j;
  let o, t_opt = timed (fun () -> optimize t) in
  (* a revisit is an eval whose parameter bindings an earlier eval had *)
  let params line =
    match String.index_opt line '}' with Some i -> String.sub line 0 i | None -> line
  in
  let strip line =
    let key = "\"params\":" in
    let k = String.length key in
    let rec find i =
      if i + k > String.length line then line
      else if String.sub line i k = key then params (String.sub line i (String.length line - i))
      else find (i + 1)
    in
    find 0
  in
  let distinct = List.length (List.sort_uniq compare (List.map strip t.opt_trace)) in
  seti "opt.evals" o.Opt.Loop.o_evals;
  seti "opt.revisits" (o.Opt.Loop.o_evals - distinct);
  set "opt.eval_s" (t_opt /. float_of_int (max 1 o.Opt.Loop.o_evals))
