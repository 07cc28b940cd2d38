(* Batch subsystem: hashing, spec expansion, the content-addressed cache,
   domain-parallel determinism, and the .param deck plumbing it rides on. *)

open Rfkit_batch
open Rfkit_circuit
module La = Rfkit_la
module Sup = Rfkit_solve.Supervisor

let contains_sub ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let check_str = Alcotest.(check string)
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------- SHA-1 -- *)

let test_sha1_vectors () =
  check_str "empty" "da39a3ee5e6b4b0d3255bfef95601890afd80709" (Hash.digest "");
  check_str "abc" "a9993e364706816aba3e25717850c26c9cd0d89d" (Hash.digest "abc");
  check_str "two-block"
    "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
    (Hash.digest "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  (* length landing exactly on the 55/56-byte padding boundary *)
  check_str "55 bytes" (Hash.digest (String.make 55 'a')) (Hash.digest (String.make 55 'a'));
  check_str "million a"
    "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
    (Hash.digest (String.make 1_000_000 'a'))

(* -------------------------------------------------------------- spec -- *)

let test_axis_grammar () =
  let a = Spec.parse_axis "R1=1k:10k:log:8" in
  check_str "name upper" "R1" a.Spec.a_name;
  check_int "8 points" 8 (Array.length a.Spec.a_values);
  Alcotest.(check (float 1e-9)) "log lo" 1e3 a.Spec.a_values.(0);
  Alcotest.(check (float 1e-6)) "log hi" 1e4 a.Spec.a_values.(7);
  (* log spacing: constant ratio *)
  let r01 = a.Spec.a_values.(1) /. a.Spec.a_values.(0)
  and r67 = a.Spec.a_values.(7) /. a.Spec.a_values.(6) in
  Alcotest.(check (float 1e-9)) "constant ratio" r01 r67;
  let b = Spec.parse_axis "c2=0:5:lin:6" in
  check_str "lowercase name uppercased" "C2" b.Spec.a_name;
  Alcotest.(check (float 1e-12)) "lin step" 1.0 (b.Spec.a_values.(1) -. b.Spec.a_values.(0));
  let c = Spec.parse_axis "L1=1n,2.2n,4.7n" in
  check_int "comma list" 3 (Array.length c.Spec.a_values);
  Alcotest.(check (float 1e-18)) "suffix" 2.2e-9 c.Spec.a_values.(1);
  let d = Spec.parse_axis "VDD=3.3" in
  check_int "single value" 1 (Array.length d.Spec.a_values)

let expect_spec_error what f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Spec_error" what
  | exception Spec.Spec_error _ -> ()

let test_axis_errors () =
  expect_spec_error "no equals" (fun () -> Spec.parse_axis "R1");
  expect_spec_error "bad scale" (fun () -> Spec.parse_axis "R1=1:2:cubic:4");
  expect_spec_error "log zero endpoint" (fun () -> Spec.parse_axis "R1=0:1k:log:4");
  expect_spec_error "one-point grid" (fun () -> Spec.parse_axis "R1=1:2:lin:1");
  expect_spec_error "bad count" (fun () -> Spec.parse_axis "R1=1:2:lin:x");
  expect_spec_error "bad number" (fun () -> Spec.parse_axis "R1=zap");
  expect_spec_error "unknown analysis" (fun () ->
      Spec.parse_analyses Spec.default_defaults "dc,warp");
  expect_spec_error "empty analyses" (fun () ->
      Spec.parse_analyses Spec.default_defaults "");
  expect_spec_error "corner without colon" (fun () -> Spec.parse_corner "fast");
  expect_spec_error "corner without overrides" (fun () -> Spec.parse_corner "fast:")

let test_corner_grammar () =
  let c = Spec.parse_corner "fast:R1=900,C1=0.9n" in
  check_str "name" "fast" c.Spec.c_name;
  check_int "two overrides" 2 (List.length c.Spec.c_overrides);
  Alcotest.(check (float 1e-15)) "suffix value" 0.9e-9 (List.assoc "C1" c.Spec.c_overrides)

(* ------------------------------------------------------------ expand -- *)

let axes2 = [ Spec.parse_axis "R1=1k,2k"; Spec.parse_axis "C2=10p,20p,30p" ]

let test_expand_shape () =
  let analyses = [ Spec.Dc; Spec.Tran { t_stop = 1e-6; dt = 1e-9 } ] in
  let corners = [ Spec.parse_corner "fast:C2=1p,X=1"; Spec.parse_corner "slow:X=2" ] in
  let jobs = Expand.expand ~axes:axes2 ~corners ~analyses in
  check_int "count" (2 * 6 * 2) (List.length jobs);
  check_int "count agrees" (List.length jobs) (Expand.count ~axes:axes2 ~corners ~analyses);
  List.iteri (fun i (j : Expand.job) -> check_int "sequential ids" i j.Expand.id) jobs;
  let j0 = List.nth jobs 0 in
  check_str "corner order" "fast" j0.Expand.corner;
  (* C2 is swept, so the fast corner's C2 override must lose to the axis *)
  Alcotest.(check (float 0.0)) "axis wins over corner" 10e-12
    (List.assoc "C2" j0.Expand.params);
  Alcotest.(check (float 0.0)) "corner-only param survives" 1.0
    (List.assoc "X" j0.Expand.params);
  (* params sorted by name *)
  check_bool "params sorted" true
    (List.for_all
       (fun (j : Expand.job) ->
         let names = List.map fst j.Expand.params in
         names = List.sort String.compare names)
       jobs);
  (* analyses innermost: job 0 dc, job 1 tran, same bindings *)
  let j1 = List.nth jobs 1 in
  check_bool "analysis innermost" true (j1.Expand.analysis <> j0.Expand.analysis);
  check_bool "same point" true (j0.Expand.params = j1.Expand.params);
  (* first axis slowest: R1 flips only every |C2| * |analyses| jobs *)
  let j4 = List.nth jobs 4 in
  Alcotest.(check (float 0.0)) "first axis slowest" 1000.0
    (List.assoc "R1" j4.Expand.params);
  let j6 = List.nth jobs 6 in
  Alcotest.(check (float 0.0)) "first axis advances" 2000.0
    (List.assoc "R1" j6.Expand.params)

let test_expand_nominal () =
  let jobs = Expand.expand ~axes:[] ~corners:[] ~analyses:[ Spec.Dc ] in
  check_int "one job" 1 (List.length jobs);
  check_str "implicit corner" "nominal" (List.hd jobs).Expand.corner

(* ------------------------------------------------------------- cache -- *)

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let d = Printf.sprintf "_batch_test_cache_%d_%d" (Unix.getpid ()) !n in
    if Sys.file_exists d then () else Unix.mkdir d 0o755;
    d

let test_cache_key () =
  let k ?(deck = "deck") ?(params = [ ("R1", 1e3) ]) ?(tag = "dc")
      ?(options = [ "node=out" ]) () =
    Cache.key ~deck_text:deck ~params ~analysis_tag:tag ~options
  in
  check_int "hex length" 40 (String.length (k ()));
  check_str "deterministic" (k ()) (k ());
  check_bool "deck text covered" true (k () <> k ~deck:"deck2" ());
  check_bool "params covered" true (k () <> k ~params:[ ("R1", 2e3) ] ());
  check_bool "tag covered" true (k () <> k ~tag:"tran[1:2]" ());
  check_bool "options covered" true (k () <> k ~options:[ "node=a" ] ());
  (* length prefixing: shifting a byte across a field boundary must not
     produce the same key *)
  check_bool "field boundaries" true
    (Cache.key ~deck_text:"ab" ~params:[] ~analysis_tag:"c" ~options:[]
    <> Cache.key ~deck_text:"a" ~params:[] ~analysis_tag:"bc" ~options:[])

let test_cache_roundtrip () =
  let dir = fresh_dir () in
  let c = Cache.create ~dir () in
  let key = Cache.key ~deck_text:"d" ~params:[] ~analysis_tag:"dc" ~options:[] in
  Alcotest.(check (option string)) "miss first" None (Cache.lookup c key);
  Cache.store c key {|{"status":"ok","x":1}|};
  Alcotest.(check (option string)) "hit after store" (Some {|{"status":"ok","x":1}|})
    (Cache.lookup c key);
  let st = Cache.stats c in
  check_int "one miss" 1 st.Cache.misses;
  check_int "one hit" 1 st.Cache.hits;
  check_int "one store" 1 st.Cache.stores

let test_cache_corrupt_recovery () =
  let dir = fresh_dir () in
  let c = Cache.create ~dir () in
  let key = Cache.key ~deck_text:"d" ~params:[] ~analysis_tag:"dc" ~options:[] in
  Cache.store c key {|{"status":"ok","x":1}|};
  (* find the entry file and garble it *)
  let sub = Filename.concat dir (String.sub key 0 2) in
  let entry = Filename.concat sub (key ^ ".jsonl") in
  check_bool "entry exists" true (Sys.file_exists entry);
  let oc = open_out entry in
  output_string oc "garbage, no checksum line";
  close_out oc;
  Alcotest.(check (option string)) "corrupt entry is a miss" None (Cache.lookup c key);
  check_bool "corrupt entry deleted" false (Sys.file_exists entry);
  let st = Cache.stats c in
  check_int "eviction counted" 1 st.Cache.evictions;
  (* checksum mismatch (valid shape, wrong hash) also evicts *)
  Cache.store c key {|{"status":"ok","x":1}|};
  let oc = open_out entry in
  output_string oc "{\"status\":\"ok\",\"x\":2}\n#sha1:";
  output_string oc (Hash.digest "something else");
  output_string oc "\n";
  close_out oc;
  Alcotest.(check (option string)) "checksum mismatch is a miss" None (Cache.lookup c key);
  check_int "second eviction" 2 (Cache.stats c).Cache.evictions

let test_cache_disabled () =
  let dir = fresh_dir () in
  let c = Cache.create ~enabled:false ~dir () in
  let key = Cache.key ~deck_text:"d" ~params:[] ~analysis_tag:"dc" ~options:[] in
  Cache.store c key "payload";
  Alcotest.(check (option string)) "no-cache bypasses" None (Cache.lookup c key);
  check_int "nothing stored" 0 (Cache.stats c).Cache.stores

(* ------------------------------------------------- runner determinism -- *)

let sweep_deck =
  "* parametric two-pole RC low-pass\n\
   .param R1=1k C2=100p\n\
   V1 in 0 DC 1\n\
   R1 in a {R1}\n\
   C1 a 0 1n\n\
   R2 a out 5k\n\
   C2 out 0 {C2}\n\
   .end\n"

let quiet_telemetry n = Telemetry.create ~progress:false ~total:n ()

let sweep_cfg ?(domains = 1) ?deadline () =
  {
    Runner.deck_text = sweep_deck;
    node = "out";
    domains;
    budget = None;
    tol_scale = 1.0;
    ordering = Rfkit_struct.Order.Natural;
    stats = false;
    deadline;
    grace = 2.0;
  }

let run_sweep ?(domains = 1) ?(cache = Cache.create ~enabled:false ~dir:"_unused" ())
    ~axes ~analyses () =
  Rfkit_solve.Deadline.clear_interrupt ();
  let jobs = Expand.expand ~axes ~corners:[] ~analyses in
  let cfg = sweep_cfg ~domains () in
  let telemetry = quiet_telemetry (List.length jobs) in
  let outcome = Runner.run cfg ~cache ~telemetry jobs in
  Telemetry.close telemetry;
  Array.map
    (function Some r -> r | None -> Alcotest.fail "unexpected empty slot")
    outcome.Runner.results

let report_lines results =
  Array.to_list (Array.map Report.line results)

let test_jobs1_vs_jobs4_identical () =
  let axes = [ Spec.parse_axis "R1=500:5k:log:4" ] in
  let analyses = [ Spec.Dc; Spec.Ac { f_start = 1e3; f_stop = 1e6; points_per_decade = 3 } ] in
  let r1 = run_sweep ~domains:1 ~axes ~analyses () in
  let r4 = run_sweep ~domains:4 ~axes ~analyses () in
  Alcotest.(check (list string)) "byte-identical reports"
    (report_lines r1) (report_lines r4)

let qcheck_jobs_determinism =
  QCheck.Test.make ~count:8 ~name:"sweep report independent of domain count"
    QCheck.(pair (int_range 1 4) (list_of_size Gen.(int_range 1 3) (int_range 100 10_000)))
    (fun (extra_domains, ohms) ->
      QCheck.assume (ohms <> []);
      let values = String.concat "," (List.map string_of_int ohms) in
      let axes = [ Spec.parse_axis ("R1=" ^ values) ] in
      let analyses = [ Spec.Dc ] in
      let a = run_sweep ~domains:1 ~axes ~analyses () in
      let b = run_sweep ~domains:(1 + extra_domains) ~axes ~analyses () in
      report_lines a = report_lines b)

let test_runner_cache_rerun () =
  let dir = fresh_dir () in
  let cache = Cache.create ~dir () in
  let axes = [ Spec.parse_axis "R1=1k,2k,3k" ] in
  let cold = run_sweep ~cache ~axes ~analyses:[ Spec.Dc ] () in
  check_bool "cold run computes" true
    (Array.for_all (fun r -> not r.Runner.cached) cold);
  let warm = run_sweep ~cache ~axes ~analyses:[ Spec.Dc ] () in
  check_bool "warm run all cached" true
    (Array.for_all (fun r -> r.Runner.cached) warm);
  Alcotest.(check (list string)) "warm report identical"
    (report_lines cold) (report_lines warm);
  let st = Cache.stats cache in
  check_int "3 misses then 3 hits" 3 st.Cache.misses;
  check_int "hits" 3 st.Cache.hits;
  (* corrupt one entry: recovered by recompute, never fatal *)
  let jobs = Expand.expand ~axes ~corners:[] ~analyses:[ Spec.Dc ] in
  let cfg = sweep_cfg () in
  let key = Runner.job_key cfg (List.hd jobs) in
  let entry = Filename.concat (Filename.concat dir (String.sub key 0 2)) (key ^ ".jsonl") in
  let oc = open_out entry in
  output_string oc "truncated";
  close_out oc;
  let healed = run_sweep ~cache ~axes ~analyses:[ Spec.Dc ] () in
  Alcotest.(check (list string)) "healed report identical"
    (report_lines cold) (report_lines healed);
  check_int "eviction recorded" 1 (Cache.stats cache).Cache.evictions;
  check_bool "entry rewritten" true (Sys.file_exists entry)

let test_failed_job_does_not_kill_sweep () =
  (* hb on a deck with no periodic source: that job fails, dc succeeds *)
  let axes = [ Spec.parse_axis "R1=1k" ] in
  let analyses = [ Spec.Dc; Spec.Hb { freq = None; harmonics = 4 } ] in
  let results = run_sweep ~axes ~analyses () in
  check_int "both jobs reported" 2 (Array.length results);
  check_bool "dc ok" true (results.(0).Runner.status = Runner.Ok);
  check_bool "hb failed" true (results.(1).Runner.status = Runner.Failed);
  check_bool "failure is typed in payload" true
    (contains_sub ~sub:"periodic" results.(1).Runner.payload)

(* Identities pinned as literals: a change to the key or run-hash material
   would orphan every existing cache entry and journal (and rfbench's own
   copy of the run hash), so both must stay byte-stable. *)
let test_identities_pinned () =
  let cfg = sweep_cfg () in
  let axes = [ Spec.parse_axis "R1=500,2k" ] in
  let analyses =
    [ Spec.Dc; Spec.Ac { f_start = 1e3; f_stop = 1e8; points_per_decade = 10 } ]
  in
  let jobs = Expand.expand ~axes ~corners:[] ~analyses in
  check_str "job key" "79df2c95ba284a325f3f0c04e4d8666ab2d1898e"
    (Runner.job_key cfg (List.hd jobs));
  check_str "run hash" "5b8c8b55b93e24b00006c23b6ddb3861e0581b43"
    (Runner.run_hash cfg jobs)

(* ------------------------------------------------------------- pipeline -- *)

let read_example name =
  match Pipeline.read_deck ("../examples/decks/" ^ name) with
  | Ok text -> text
  | Error r -> Alcotest.fail (Pipeline.refusal_to_string r)

let test_preflight_refusals () =
  (match Pipeline.prepare ~lint:true (read_example "bad/underdet.cir") with
  | Error (Pipeline.Lint_fatal ds) ->
      check_bool "L021 among the findings" true
        (List.exists (fun d -> d.Rfkit_lint.Diagnostic.code = "L021") ds)
  | _ -> Alcotest.fail "a structurally singular deck must be refused");
  (match Pipeline.prepare ~lint:false (read_example "bad/underdet.cir") with
  | Ok deck -> check_int "no lint, no findings" 0 (List.length deck.Pipeline.diagnostics)
  | Error r -> Alcotest.fail (Pipeline.refusal_to_string r));
  match Pipeline.prepare ~lint:false "V1 a 0 DC 1\nR1 a 0 {RX}\n" with
  | Error (Pipeline.Parse_failed { line; _ } as r) ->
      check_int "parse error line" 2 line;
      check_bool "rendered with its line" true
        (contains_sub ~sub:"deck line 2" (Pipeline.refusal_to_string r))
  | _ -> Alcotest.fail "an undefined parameter must be a parse refusal"

let expect_unsupported what msg = function
  | Pipeline.Failed
      (Pipeline.Engine { Sup.cause = Sup.Unsupported m; f_attempts = []; _ }) ->
      check_str what msg m
  | _ -> Alcotest.failf "%s: expected a zero-attempt Unsupported failure" what

let lowpass_deck () =
  match Pipeline.prepare ~lint:true sweep_deck with
  | Ok deck -> deck
  | Error r -> Alcotest.fail (Pipeline.refusal_to_string r)

let test_missing_periodic_source_typed () =
  let c = Pipeline.circuit (lowpass_deck ()) in
  let msg = "no periodic source in the deck (supply --freq)" in
  expect_unsupported "hb" msg
    (Pipeline.run c (Pipeline.Hb { freq = None; harmonics = 4; solver = Rfkit_rf.Hb.Direct }));
  expect_unsupported "pss" msg (Pipeline.run c (Pipeline.Pss { freq = None; harmonics = 4 }));
  expect_unsupported "shooting" msg
    (Pipeline.run c (Pipeline.Shooting { freq = None; steps = 64 }));
  expect_unsupported "named source" "no source V9 in deck"
    (Pipeline.run c (Pipeline.Ac { source = Some "V9"; freqs = [| 1e3 |] }));
  (* the sweep payload carries the same typed cause, not an exception *)
  let results =
    run_sweep ~axes:[ Spec.parse_axis "R1=1k" ]
      ~analyses:[ Spec.Hb { freq = None; harmonics = 4 } ]
      ()
  in
  check_bool "typed cause in the payload" true
    (contains_sub ~sub:({|"cause":"|} ^ msg ^ {|"|}) results.(0).Runner.payload)

(* AC and noise seed from the DC operating point; a DC failure must come
   back as the DC supervisor's own typed failure, cause intact *)
let test_ac_noise_keep_dc_cause () =
  let deck =
    match Pipeline.prepare ~lint:false (read_example "bad/underdet.cir") with
    | Ok d -> d
    | Error r -> Alcotest.fail (Pipeline.refusal_to_string r)
  in
  let c = Pipeline.circuit deck in
  let freqs = [| 1e3; 1e4 |] in
  let check what = function
    | Pipeline.Failed (Pipeline.Engine f) ->
        check_str (what ^ " engine") "dc" f.Sup.f_engine;
        check_bool (what ^ " cause") true
          (match f.Sup.cause with Sup.Structurally_singular _ -> true | _ -> false)
    | _ -> Alcotest.failf "%s: expected the DC failure" what
  in
  check "ac" (Pipeline.run c (Pipeline.Ac { source = None; freqs }));
  check "noise" (Pipeline.run c (Pipeline.Noise { node = "out"; freqs }));
  (* an interrupt during the DC seed is the DC supervisor's typed
     Interrupted, which rfsim turns into exit 5 *)
  let module D = Rfkit_solve.Deadline in
  let c = Pipeline.circuit (lowpass_deck ()) in
  D.set_interrupt_action D.Raise;
  D.request_interrupt ();
  match
    Fun.protect ~finally:D.clear_interrupt (fun () ->
        Pipeline.run c (Pipeline.Ac { source = None; freqs }))
  with
  | Pipeline.Failed (Pipeline.Engine { Sup.f_engine = "dc"; cause = Sup.Interrupted; _ }) -> ()
  | _ -> Alcotest.fail "an interrupted DC seed must fail typed as Interrupted"

(* an output node the deck lacks is refused before any engine runs, and
   the refused job counts no factorization of an earlier one *)
let test_unknown_node_typed () =
  let c = Pipeline.circuit (lowpass_deck ()) in
  let msg = "no node zzz in deck" and freqs = [| 1e3 |] in
  ignore (Pipeline.run c Pipeline.Dc);
  let refused = Pipeline.run ~node:"zzz" c (Pipeline.Ac { source = None; freqs }) in
  expect_unsupported "ac" msg refused;
  check_int "refused job factors nothing" 0 (La.Sparse_lu.fill_nnz ());
  expect_unsupported "tran" msg
    (Pipeline.run ~node:"zzz" c (Pipeline.Tran { t_stop = 1e-6; dt = 1e-8 }));
  expect_unsupported "noise" msg (Pipeline.run c (Pipeline.Noise { node = "zzz"; freqs }));
  expect_unsupported "ground" "no node 0 in deck"
    (Pipeline.run ~node:"0" c (Pipeline.Ac { source = None; freqs }));
  let cfg = { (sweep_cfg ()) with Runner.node = "zzz" } in
  let jobs = Expand.expand ~axes:[] ~corners:[] ~analyses:[ Spec.Dc; Spec.Tran { t_stop = 1e-6; dt = 1e-8 } ] in
  let outcome =
    Runner.run cfg
      ~cache:(Cache.create ~enabled:false ~dir:"_unused" ())
      ~telemetry:(quiet_telemetry 2) jobs
  in
  match outcome.Runner.results with
  | [| Some dc; Some tran |] ->
      check_bool "dc reads no node" true (dc.Runner.status = Runner.Ok);
      check_bool "swept tran typed" true
        (contains_sub ~sub:({|"cause":"|} ^ msg ^ {|"|}) tran.Runner.payload)
  | _ -> Alcotest.fail "jobs never ran"

let test_job_parse_error_typed () =
  let cfg = { (sweep_cfg ()) with Runner.deck_text = "V1 a 0 DC 1\nR1 a 0 {RX}\n" } in
  let jobs = Expand.expand ~axes:[] ~corners:[] ~analyses:[ Spec.Dc ] in
  let outcome =
    Runner.run cfg
      ~cache:(Cache.create ~enabled:false ~dir:"_unused" ())
      ~telemetry:(quiet_telemetry 1) jobs
  in
  match outcome.Runner.results.(0) with
  | Some r ->
      check_bool "failed" true (r.Runner.status = Runner.Failed);
      check_bool "typed parse cause" true
        (contains_sub ~sub:{|"cause":"deck line 2: |} r.Runner.payload)
  | None -> Alcotest.fail "job never ran"

(* ------------------------------------------------------------ telemetry -- *)

let test_telemetry_log () =
  let log = Printf.sprintf "_batch_test_telemetry_%d.jsonl" (Unix.getpid ()) in
  let axes = [ Spec.parse_axis "R1=1k,2k" ] in
  let jobs = Expand.expand ~axes ~corners:[] ~analyses:[ Spec.Dc ] in
  let cfg = sweep_cfg () in
  let telemetry = Telemetry.create ~log_path:log ~progress:false ~total:2 () in
  let _ = Runner.run cfg ~cache:(Cache.create ~enabled:false ~dir:"_unused" ()) ~telemetry jobs in
  Telemetry.close telemetry;
  let ic = open_in log in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  (* queued + started + finished per job *)
  check_int "3 events per job" 6 (List.length !lines);
  check_bool "events are tagged json" true
    (List.for_all (fun l -> String.length l > 0 && l.[0] = '{') !lines);
  check_int "2 finished" 2
    (List.length
       (List.filter
          (contains_sub ~sub:{|"event":"finished"|})
          !lines));
  Sys.remove log

(* ---------------------------------------------------------- journal -- *)

module Deadline = Rfkit_solve.Deadline
module Faults = Rfkit_solve.Faults

let test_journal_roundtrip () =
  let dir = fresh_dir () in
  let run = Hash.digest "spec-a" in
  let j = Journal.create ~dir ~run ~total:3 in
  Journal.record_start j ~job:0;
  Journal.record_finish j ~job:0 ~status:"ok" ~key:(Hash.digest "k0") ~payload:None;
  Journal.record_start j ~job:1;
  (* a failed job's payload is inlined and must replay byte-exactly,
     including floats that do not survive a parse/re-render cycle *)
  let failed = {|{"status":"failed","analysis":"dc","cause":"x","v":0.1}|} in
  Journal.record_finish j ~job:1 ~status:"failed" ~key:(Hash.digest "k1")
    ~payload:(Some failed);
  Journal.record_start j ~job:2;
  Journal.close j;
  check_bool "journal kept by close" true (Journal.exists ~dir ~run);
  (match Journal.load ~dir ~run with
  | None -> Alcotest.fail "journal did not load"
  | Some r ->
      check_str "run id" run r.Journal.r_run;
      check_int "total" 3 r.Journal.r_total;
      check_int "two finished" 2 (Hashtbl.length r.Journal.r_finished);
      check_int "three started" 3 (List.length r.Journal.r_started);
      let e0 = Hashtbl.find r.Journal.r_finished 0 in
      check_str "ok status" "ok" e0.Journal.e_status;
      Alcotest.(check (option string)) "ok payload lives in the cache" None
        e0.Journal.e_payload;
      let e1 = Hashtbl.find r.Journal.r_finished 1 in
      Alcotest.(check (option string)) "failed payload byte-exact"
        (Some failed) e1.Journal.e_payload);
  let keys = Journal.referenced_keys ~dir in
  check_bool "finish keys pinned" true
    (Hashtbl.mem keys (Hash.digest "k0") && Hashtbl.mem keys (Hash.digest "k1"));
  check_int "one journal counted" 1 (Journal.count ~dir);
  (* reopen (resume) appends; finish_run deletes *)
  let j2 = Journal.create ~dir ~run ~total:3 in
  Journal.record_finish j2 ~job:2 ~status:"ok" ~key:(Hash.digest "k2") ~payload:None;
  (match Journal.load ~dir ~run with
  | Some r -> check_int "resume appended" 3 (Hashtbl.length r.Journal.r_finished)
  | None -> Alcotest.fail "reopened journal did not load");
  Journal.finish_run j2;
  check_bool "finish_run deletes" false (Journal.exists ~dir ~run)

let test_journal_torn_line () =
  let dir = fresh_dir () in
  let run = Hash.digest "spec-torn" in
  let j = Journal.create ~dir ~run ~total:2 in
  Journal.record_finish j ~job:0 ~status:"ok" ~key:(Hash.digest "k") ~payload:None;
  Journal.close j;
  (* simulate a crash mid-write: a torn, checksum-less final line *)
  let file = Journal.path ~dir ~run in
  let oc = open_out_gen [ Open_append ] 0o644 file in
  output_string oc {|{"c":"deadbeef","v":{"event":"finish","job":1,"st|};
  close_out oc;
  match Journal.load ~dir ~run with
  | None -> Alcotest.fail "torn line must not poison the journal"
  | Some r ->
      check_int "intact records survive" 1 (Hashtbl.length r.Journal.r_finished);
      check_bool "torn record skipped" false (Hashtbl.mem r.Journal.r_finished 1)

(* replay is a last-wins map keyed by job id: appending the same finish
   records again, in any order, must not change what resume replays *)
let qcheck_journal_replay_idempotent =
  QCheck.Test.make ~count:30 ~name:"journal replay idempotent and order-insensitive"
    QCheck.(list_of_size Gen.(int_range 1 12) (pair (int_range 0 20) (int_range 0 2)))
    (fun records ->
      (* distinct job ids: order across different ids must not matter *)
      let seen = Hashtbl.create 8 in
      let records =
        List.filter
          (fun (id, _) ->
            if Hashtbl.mem seen id then false
            else begin
              Hashtbl.add seen id ();
              true
            end)
          records
      in
      let status = function 0 -> "ok" | 1 -> "suspect" | _ -> "failed" in
      let write order ~dup =
        let dir = fresh_dir () in
        let run = Hash.digest "spec-q" in
        let j = Journal.create ~dir ~run ~total:32 in
        let emit (id, s) =
          Journal.record_finish j ~job:id ~status:(status s)
            ~key:(Hash.digest (string_of_int id))
            ~payload:(if s = 2 then Some {|{"status":"failed"}|} else None)
        in
        List.iter emit order;
        if dup then List.iter emit order;
        Journal.close j;
        match Journal.load ~dir ~run with
        | None -> Alcotest.fail "journal did not load"
        | Some r ->
            List.sort compare
              (Hashtbl.fold
                 (fun id e acc -> (id, e.Journal.e_status, e.Journal.e_key) :: acc)
                 r.Journal.r_finished [])
      in
      write records ~dup:false = write (List.rev records) ~dup:true)

(* ------------------------------------------------- resume and drain -- *)

let run_journaled ?(domains = 1) ?deadline ?replay ~cache ~dir ~run ~axes
    ~analyses () =
  Deadline.clear_interrupt ();
  let jobs = Expand.expand ~axes ~corners:[] ~analyses in
  let cfg = sweep_cfg ~domains ?deadline () in
  let telemetry = quiet_telemetry (List.length jobs) in
  let journal = Journal.create ~dir ~run ~total:(List.length jobs) in
  let outcome = Runner.run cfg ~cache ~telemetry ~journal ?replay jobs in
  Telemetry.close telemetry;
  if outcome.Runner.interrupted then Journal.close journal
  else Journal.finish_run journal;
  outcome

let lines_of outcome =
  List.filter_map
    (Option.map Report.line)
    (Array.to_list outcome.Runner.results)

let test_runner_resume_replay () =
  let dir = fresh_dir () in
  let run = Hash.digest "resume-spec" in
  let cache = Cache.create ~dir () in
  let axes = [ Spec.parse_axis "R1=1k,2k" ] in
  (* hb fails (no periodic source): exercises the inline-payload replay *)
  let analyses = [ Spec.Dc; Spec.Hb { freq = None; harmonics = 4 } ] in
  let full = run_journaled ~cache ~dir ~run ~axes ~analyses () in
  check_bool "uninterrupted run deletes journal" false (Journal.exists ~dir ~run);
  (* simulate a crashed run: journal as it would be left mid-flight *)
  let j = Journal.create ~dir ~run ~total:4 in
  let cfg = sweep_cfg () in
  let jobs = Expand.expand ~axes ~corners:[] ~analyses in
  List.iteri
    (fun i job ->
      if i < 3 then
        let r = Option.get (List.nth (Array.to_list full.Runner.results) i) in
        Journal.record_finish j ~job:i
          ~status:(match r.Runner.status with
                   | Runner.Ok -> "ok"
                   | Runner.Suspect -> "suspect"
                   | Runner.Failed -> "failed")
          ~key:(Runner.job_key cfg job)
          ~payload:
            (if r.Runner.status = Runner.Failed then Some r.Runner.payload
             else None))
    jobs;
  Journal.close j;
  let replay =
    match Journal.load ~dir ~run with
    | Some r -> r
    | None -> Alcotest.fail "no replay"
  in
  let resumed = run_journaled ~cache ~dir ~run ~replay ~axes ~analyses () in
  Alcotest.(check (list string)) "resumed report byte-identical"
    (lines_of full) (lines_of resumed);
  let results = Array.map Option.get resumed.Runner.results in
  check_int "three replayed" 3
    (Array.fold_left (fun n r -> if r.Runner.replayed then n + 1 else n) 0 results);
  check_bool "pending job re-executed" true (not results.(3).Runner.replayed);
  check_bool "resumed run deletes journal" false (Journal.exists ~dir ~run)

let test_runner_interrupt_drain () =
  let dir = fresh_dir () in
  let run = Hash.digest "drain-spec" in
  let cache = Cache.create ~dir () in
  let axes = [ Spec.parse_axis "R1=1k,2k,3k,4k" ] in
  let analyses = [ Spec.Dc ] in
  (* baseline for the byte-identical contract *)
  let full = run_journaled ~cache ~dir ~run:(Hash.digest "drain-base") ~axes ~analyses () in
  (* simulated SIGINT after the first completion: dispatch gate closes *)
  Faults.arm_process { Faults.process_none with interrupt_after = Some 1 };
  let interrupted = run_journaled ~cache:(Cache.create ~enabled:false ~dir ())
      ~dir ~run ~axes ~analyses () in
  Faults.disarm_process ();
  check_bool "flagged interrupted" true interrupted.Runner.interrupted;
  let completed =
    Array.fold_left
      (fun n -> function Some _ -> n + 1 | None -> n)
      0 interrupted.Runner.results
  in
  check_bool "some jobs left pending" true (completed < 4);
  check_bool "journal left resumable" true (Journal.exists ~dir ~run);
  (* resume completes the sweep and matches the uninterrupted report *)
  let replay =
    match Journal.load ~dir ~run with
    | Some r -> r
    | None -> Alcotest.fail "no replay after interrupt"
  in
  let resumed = run_journaled ~cache ~dir ~run ~replay ~axes ~analyses () in
  check_bool "resume completes" true (not resumed.Runner.interrupted);
  Alcotest.(check (list string)) "post-interrupt resume byte-identical"
    (lines_of full) (lines_of resumed);
  Deadline.clear_interrupt ()

let test_deadline_quarantine () =
  (* wedge job 0 in a busy loop: the per-job deadline must quarantine it
     as a typed failure while the rest of the sweep completes *)
  Deadline.clear_interrupt ();
  Faults.arm_process { Faults.process_none with stall_job = Some 0 };
  let axes = [ Spec.parse_axis "R1=1k,2k" ] in
  let jobs = Expand.expand ~axes ~corners:[] ~analyses:[ Spec.Dc ] in
  let cfg = sweep_cfg ~deadline:0.05 () in
  let telemetry = quiet_telemetry (List.length jobs) in
  let outcome =
    Runner.run cfg
      ~cache:(Cache.create ~enabled:false ~dir:"_unused" ())
      ~telemetry jobs
  in
  Telemetry.close telemetry;
  Faults.disarm_process ();
  let results = Array.map Option.get outcome.Runner.results in
  check_bool "stalled job quarantined" true
    (results.(0).Runner.status = Runner.Failed);
  check_bool "typed deadline cause" true
    (contains_sub ~sub:"deadline exceeded" results.(0).Runner.payload);
  (* the allotted seconds, not a measured time: deterministic rendering *)
  check_bool "allotted budget rendered" true
    (contains_sub ~sub:"0.05s budget" results.(0).Runner.payload);
  check_bool "other job unaffected" true (results.(1).Runner.status = Runner.Ok)

(* ---------------------------------------------------- cache bounding -- *)

let test_cache_gc_lru_and_pins () =
  let dir = fresh_dir () in
  let c = Cache.create ~dir () in
  let key i = Cache.key ~deck_text:"d" ~params:[ ("I", float_of_int i) ] ~analysis_tag:"dc" ~options:[] in
  let path k = Filename.concat (Filename.concat dir (String.sub k 0 2)) (k ^ ".jsonl") in
  for i = 0 to 3 do
    Cache.store c (key i) (Printf.sprintf {|{"status":"ok","i":%d}|} i)
  done;
  (* pin down the LRU order explicitly via file times *)
  List.iteri
    (fun age i -> Unix.utimes (path (key i)) (float_of_int (1000 + age)) (float_of_int (1000 + age)))
    [ 0; 1; 2; 3 ];
  let entries, bytes = Cache.disk_usage ~dir in
  check_int "four entries" 4 entries;
  check_bool "bytes counted" true (bytes > 0);
  let st = Cache.stats c in
  check_int "stats entries" 4 st.Cache.entries;
  check_int "stats bytes" bytes st.Cache.bytes;
  (* oldest (key 0) is pinned: gc to 2 entries must spare it and evict
     the next-oldest instead *)
  let gs =
    Cache.gc ~dir ~max_entries:2 ~pinned:(fun k -> k = key 0) ()
  in
  check_int "examined all" 4 gs.Cache.gc_examined;
  check_int "evicted to cap" 2 gs.Cache.gc_evicted;
  check_int "pinned spared" 1 gs.Cache.gc_pinned;
  check_int "entries remaining" 2 gs.Cache.gc_entries;
  check_bool "pinned entry survives" true (Sys.file_exists (path (key 0)));
  check_bool "lru victim evicted" false (Sys.file_exists (path (key 1)));
  check_bool "newest survives" true (Sys.file_exists (path (key 3)));
  (* byte cap: gc everything unpinned *)
  let gs2 = Cache.gc ~dir ~max_bytes:1 () in
  check_int "byte cap evicts the rest" 2 gs2.Cache.gc_evicted;
  check_int "empty" 0 (fst (Cache.disk_usage ~dir))

let test_cache_hit_refreshes_lru () =
  let dir = fresh_dir () in
  let c = Cache.create ~dir () in
  let key i = Cache.key ~deck_text:"d" ~params:[ ("I", float_of_int i) ] ~analysis_tag:"dc" ~options:[] in
  let path k = Filename.concat (Filename.concat dir (String.sub k 0 2)) (k ^ ".jsonl") in
  Cache.store c (key 0) {|{"status":"ok","i":0}|};
  Cache.store c (key 1) {|{"status":"ok","i":1}|};
  (* make key 0 the LRU victim, then touch it with a hit *)
  Unix.utimes (path (key 0)) 1000.0 1000.0;
  Unix.utimes (path (key 1)) 2000.0 2000.0;
  ignore (Cache.lookup c (key 0));
  let gs = Cache.gc ~dir ~max_entries:1 () in
  check_int "one evicted" 1 gs.Cache.gc_evicted;
  check_bool "hit entry survives gc" true (Sys.file_exists (path (key 0)));
  check_bool "untouched entry evicted" false (Sys.file_exists (path (key 1)))

(* ----------------------------------------------------- deck .param -- *)

let test_param_basics () =
  let nl, dirs =
    Deck.parse_string ".param R=2k\nV1 in 0 DC 1\nR1 in out {R}\nR2 out 0 2k\n.end\n"
  in
  check_int "three devices" 3 (List.length (Netlist.devices nl));
  (match List.find_opt (function Deck.Param _ -> true | _ -> false) dirs with
  | Some (Deck.Param { name; value; used }) ->
      check_str "name" "R" name;
      Alcotest.(check (float 0.0)) "value" 2000.0 value;
      check_bool "used" true used
  | _ -> Alcotest.fail "no Param directive")

let test_param_forward_reference () =
  (* device line references a .param defined later in the deck *)
  let _, dirs = Deck.parse_string "R1 a 0 {RL}\n.param RL=50\n.end\n" in
  check_int "param present" 1
    (List.length (List.filter (function Deck.Param _ -> true | _ -> false) dirs))

let test_param_override_wins () =
  let nl, _ =
    Deck.parse_string ~overrides:[ ("r", 100.0) ]
      ".param R=2k\nV1 in 0 DC 1\nR1 in 0 {R}\n.end\n"
  in
  let c = Mna.build nl in
  match Dc.solve_outcome c with
  | Sup.Converged (x, _) ->
      (* 1 V across the overridden 100 ohms: branch current = 1/100 *)
      let i = Mna.branch_index c "V1" in
      (match i with
      | Some k -> Alcotest.(check (float 1e-9)) "override resistance" 0.01 (Float.abs x.(k))
      | None -> Alcotest.fail "no branch current")
  | Sup.Failed f -> Alcotest.failf "dc failed: %s" (Sup.failure_to_string f)

let test_param_undefined_is_clear () =
  match Deck.parse_string "R1 a 0 {NOPE}\n.end\n" with
  | _ -> Alcotest.fail "expected Parse_error"
  | exception Deck.Parse_error (line, msg) ->
      check_int "line" 1 line;
      check_bool "names the parameter" true (contains_sub ~sub:"NOPE" msg)

let test_param_lint_unused () =
  let _, located = Deck.parse_string_located ".param R=1k X=2\nR1 a 0 {R}\nV1 a 0 DC 1\n.end\n" in
  let ds = Rfkit_lint.Checks.param_hygiene located in
  check_int "one unused diagnostic" 1 (List.length ds);
  let d = List.hd ds in
  check_str "code" "L014" d.Rfkit_lint.Diagnostic.code;
  Alcotest.(check (option string)) "subject" (Some "X") d.Rfkit_lint.Diagnostic.subject

let test_param_lint_redefinition () =
  let _, located =
    Deck.parse_string_located ".param R=1k\n.param R=2k\nR1 a 0 {R}\nV1 a 0 DC 1\n.end\n"
  in
  let ds = Rfkit_lint.Checks.param_hygiene located in
  check_int "one redefinition diagnostic" 1 (List.length ds)

(* -------------------------------------------- sparse LU refactor reuse -- *)

let test_refactor_agrees_with_factor () =
  let nl, _ = Deck.parse_file "../examples/decks/rectifier.cir" in
  let c = Mna.build nl in
  let n = Mna.size c in
  let x1 = La.Vec.create n in
  let x2 = La.Vec.init n (fun i -> 0.3 +. (0.1 *. float_of_int i)) in
  let g1 = Mna.jac_g_sparse c x1 and g2 = Mna.jac_g_sparse c x2 in
  let symb, f1 = La.Sparse_lu.analyze g1 in
  let rhs = La.Vec.init n (fun i -> 1.0 +. float_of_int i) in
  let direct1 = La.Sparse_lu.solve (La.Sparse_lu.factor g1) rhs in
  let via1 = La.Sparse_lu.solve f1 rhs in
  Alcotest.(check (float 1e-10)) "analyze == factor at x1" 0.0
    (La.Vec.norm_inf (La.Vec.sub direct1 via1));
  (* same pattern, different values: numeric replay must match a fresh
     factorization *)
  let direct2 = La.Sparse_lu.solve (La.Sparse_lu.factor g2) rhs in
  let via2 = La.Sparse_lu.solve (La.Sparse_lu.refactor symb g2) rhs in
  Alcotest.(check (float 1e-10)) "refactor == factor at x2" 0.0
    (La.Vec.norm_inf (La.Vec.sub direct2 via2))

let test_factor_cached_counts () =
  let nl, _ = Deck.parse_file "../examples/decks/rectifier.cir" in
  let c = Mna.build nl in
  let n = Mna.size c in
  let g = Mna.jac_g_sparse c (La.Vec.create n) in
  La.Sparse_lu.reset_counts ();
  let cachev = ref None in
  let rhs = La.Vec.init n (fun i -> float_of_int (i + 1)) in
  let a = La.Sparse_lu.solve (La.Sparse_lu.factor_cached cachev g) rhs in
  let b = La.Sparse_lu.solve (La.Sparse_lu.factor_cached cachev g) rhs in
  Alcotest.(check (float 1e-12)) "cached solve agrees" 0.0
    (La.Vec.norm_inf (La.Vec.sub a b));
  let refactors, fulls = La.Sparse_lu.counts () in
  check_int "one full analysis" 1 fulls;
  check_int "one refactor" 1 refactors

(* the factorization ledger is per domain: a job factoring on one domain
   must not see (or clobber) the fill of a job running on another *)
let test_ledger_domain_local () =
  let tridiag n =
    La.Sparse.of_triplets ~rows:n ~cols:n
      (List.concat_map
         (fun i ->
           ((i, i, 4.0) :: (if i > 0 then [ (i, i - 1, -1.0) ] else []))
           @ if i < n - 1 then [ (i, i + 1, -1.0) ] else [])
         (List.init n Fun.id))
  in
  let dense n =
    La.Sparse.of_triplets ~rows:n ~cols:n
      (List.concat_map
         (fun i ->
           List.init n (fun j -> (i, j, if i = j then float_of_int n else 1.0)))
         (List.init n Fun.id))
  in
  La.Sparse_lu.reset_counts ();
  La.Csparse_lu.reset_counts ();
  ignore (La.Sparse_lu.factor (tridiag 5));
  ignore (La.Csparse_lu.factor (La.Csparse.of_real (tridiag 5)));
  let fill_a = La.Sparse_lu.fill_nnz () and cfill_a = La.Csparse_lu.fill_nnz () in
  let fill_b, cfill_b =
    Domain.join
      (Domain.spawn (fun () ->
           ignore (La.Sparse_lu.factor (dense 12));
           ignore (La.Csparse_lu.factor (La.Csparse.of_real (dense 12)));
           (La.Sparse_lu.fill_nnz (), La.Csparse_lu.fill_nnz ())))
  in
  Alcotest.(check bool) "the other domain's fill differs" true
    (fill_b <> fill_a && cfill_b <> cfill_a);
  check_int "real fill is this domain's" fill_a (La.Sparse_lu.fill_nnz ());
  check_int "complex fill is this domain's" cfill_a (La.Csparse_lu.fill_nnz ());
  check_int "real full count is this domain's" 1 (snd (La.Sparse_lu.counts ()));
  check_int "complex full count is this domain's" 1 (snd (La.Csparse_lu.counts ()))

let suite =
  [
    ( "batch.hash",
      [ Alcotest.test_case "sha1 vectors" `Quick test_sha1_vectors ] );
    ( "batch.spec",
      [
        Alcotest.test_case "axis grammar" `Quick test_axis_grammar;
        Alcotest.test_case "axis errors" `Quick test_axis_errors;
        Alcotest.test_case "corner grammar" `Quick test_corner_grammar;
      ] );
    ( "batch.expand",
      [
        Alcotest.test_case "shape and order" `Quick test_expand_shape;
        Alcotest.test_case "nominal corner" `Quick test_expand_nominal;
      ] );
    ( "batch.cache",
      [
        Alcotest.test_case "key derivation" `Quick test_cache_key;
        Alcotest.test_case "roundtrip" `Quick test_cache_roundtrip;
        Alcotest.test_case "corrupt recovery" `Quick test_cache_corrupt_recovery;
        Alcotest.test_case "disabled bypass" `Quick test_cache_disabled;
      ] );
    ( "batch.runner",
      [
        Alcotest.test_case "jobs=1 vs jobs=4" `Quick test_jobs1_vs_jobs4_identical;
        QCheck_alcotest.to_alcotest qcheck_jobs_determinism;
        Alcotest.test_case "cache rerun + heal" `Quick test_runner_cache_rerun;
        Alcotest.test_case "failed job isolated" `Quick test_failed_job_does_not_kill_sweep;
        Alcotest.test_case "telemetry log" `Quick test_telemetry_log;
        Alcotest.test_case "identities pinned" `Quick test_identities_pinned;
      ] );
    ( "batch.pipeline",
      [
        Alcotest.test_case "pre-flight refusals" `Quick test_preflight_refusals;
        Alcotest.test_case "missing periodic source is typed" `Quick
          test_missing_periodic_source_typed;
        Alcotest.test_case "ac and noise keep the DC cause" `Quick
          test_ac_noise_keep_dc_cause;
        Alcotest.test_case "job parse error is typed" `Quick test_job_parse_error_typed;
        Alcotest.test_case "unknown output node is typed" `Quick test_unknown_node_typed;
      ] );
    ( "batch.journal",
      [
        Alcotest.test_case "roundtrip" `Quick test_journal_roundtrip;
        Alcotest.test_case "torn line skipped" `Quick test_journal_torn_line;
        QCheck_alcotest.to_alcotest qcheck_journal_replay_idempotent;
      ] );
    ( "batch.recovery",
      [
        Alcotest.test_case "resume replays journal" `Quick test_runner_resume_replay;
        Alcotest.test_case "interrupt drains and resumes" `Quick test_runner_interrupt_drain;
        Alcotest.test_case "deadline quarantines stall" `Quick test_deadline_quarantine;
      ] );
    ( "batch.cache_gc",
      [
        Alcotest.test_case "lru eviction and pins" `Quick test_cache_gc_lru_and_pins;
        Alcotest.test_case "hit refreshes lru" `Quick test_cache_hit_refreshes_lru;
      ] );
    ( "batch.param",
      [
        Alcotest.test_case "basics" `Quick test_param_basics;
        Alcotest.test_case "forward reference" `Quick test_param_forward_reference;
        Alcotest.test_case "override wins" `Quick test_param_override_wins;
        Alcotest.test_case "undefined is clear" `Quick test_param_undefined_is_clear;
        Alcotest.test_case "lint unused" `Quick test_param_lint_unused;
        Alcotest.test_case "lint redefinition" `Quick test_param_lint_redefinition;
      ] );
    ( "batch.sparse_lu",
      [
        Alcotest.test_case "refactor agrees" `Quick test_refactor_agrees_with_factor;
        Alcotest.test_case "factor_cached counts" `Quick test_factor_cached_counts;
        Alcotest.test_case "ledger is domain-local" `Quick test_ledger_domain_local;
      ] );
  ]
