(* Opt subsystem: the measure catalogue, interpolation edge behavior,
   the spec language and its penalty aggregation, the gradient-free
   optimizers on analytic objectives, and the closed loop's determinism
   and kill-and-resume contracts. *)

open Rfkit_opt
module B = Rfkit_batch
module M = Rfkit_rf.Measures
module Deadline = Rfkit_solve.Deadline
module Faults = Rfkit_solve.Faults

let check_str = Alcotest.(check string)
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let checkf tol = Alcotest.(check (float tol))

(* ------------------------------------------- curve interpolation edges -- *)

(* one-pole magnitude curve on a log grid: |H| = 1/sqrt(1+(f/fc)^2) *)
let one_pole ~fc ~f_start ~f_stop ~ppd =
  let n =
    int_of_float (ceil (Float.log10 (f_stop /. f_start) *. float_of_int ppd))
    + 1
  in
  let freqs =
    Array.init n (fun i ->
        f_start *. (10.0 ** (float_of_int i /. float_of_int ppd)))
  in
  let mags =
    Array.map (fun f -> 1.0 /. sqrt (1.0 +. ((f /. fc) ** 2.0))) freqs
  in
  (freqs, mags)

let test_gain_at_edges () =
  let freqs, mags = one_pole ~fc:1e6 ~f_start:1e3 ~f_stop:1e9 ~ppd:10 in
  (* exact on a grid point *)
  (match M.gain_at ~freqs ~mags freqs.(7) with
  | Some g -> checkf 1e-12 "on-grid exact" mags.(7) g
  | None -> Alcotest.fail "on-grid gain_at returned None");
  (* endpoints included *)
  check_bool "left endpoint" true (M.gain_at ~freqs ~mags 1e3 <> None);
  check_bool "right endpoint" true (M.gain_at ~freqs ~mags 1e9 <> None);
  (* off-grid is typed None, never extrapolated *)
  check_bool "below range" true (M.gain_at ~freqs ~mags 999.0 = None);
  check_bool "above range" true (M.gain_at ~freqs ~mags 1.1e9 = None);
  (* interpolated value between samples stays between its brackets *)
  match M.gain_at ~freqs ~mags 1.5e6 with
  | Some g ->
      check_bool "bracketed" true
        (g < 1.0 /. sqrt 2.0 && g > 1.0 /. sqrt (1.0 +. 4.0))
  | None -> Alcotest.fail "mid-band gain_at returned None"

let qcheck_bw3db_interpolates =
  (* the -3 dB point of a one-pole response IS the pole frequency; the
     interpolated crossing must land within one grid-step ratio of it,
     far tighter than nearest-sample snapping on a 10/decade grid *)
  QCheck.Test.make ~count:50 ~name:"bw3db interpolates the crossing"
    QCheck.(float_range 4.5 7.5)
    (fun log_fc ->
      let fc = 10.0 ** log_fc in
      let freqs, mags = one_pole ~fc ~f_start:1e3 ~f_stop:1e9 ~ppd:10 in
      match M.bandwidth_3db ~freqs ~mags with
      | Some bw -> Float.abs (bw -. fc) /. fc < 0.02
      | None -> false)

let test_bw3db_edges () =
  (* flat curve never crosses: None, not an endpoint guess *)
  let freqs = [| 1e3; 1e4; 1e5 |] and mags = [| 1.0; 1.0; 1.0 |] in
  check_bool "no crossing" true (M.bandwidth_3db ~freqs ~mags = None);
  (* non-monotonic grid is a caller bug, typed loudly *)
  check_bool "bad grid raises" true
    (match M.bandwidth_3db ~freqs:[| 1e3; 1e3 |] ~mags:[| 1.0; 0.1 |] with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_band_measures () =
  let freqs, mags = one_pole ~fc:1e6 ~f_start:1e3 ~f_stop:1e9 ~ppd:10 in
  (* far above the pole the slope is 20 dB/decade: attenuation at 1e8 is
     ~40 dB worse than at 1e7, and the band minimum sits at the low edge *)
  (match M.band_attenuation_db ~freqs ~mags ~f_lo:1e8 ~f_hi:1e9 with
  | Some a -> check_bool "deep stopband" true (a > 35.0 && a < 45.0)
  | None -> Alcotest.fail "stopband returned None");
  (* band past the grid: None *)
  check_bool "band off grid" true
    (M.band_attenuation_db ~freqs ~mags ~f_lo:1e8 ~f_hi:2e9 = None);
  (* passband ripple of a monotone curve = edge-to-edge drop *)
  match M.ripple_db ~freqs ~mags ~f_lo:1e3 ~f_hi:1e4 with
  | Some r -> check_bool "tiny passband ripple" true (r >= 0.0 && r < 0.1)
  | None -> Alcotest.fail "ripple returned None"

let test_compression_curve () =
  (* soft limiter gain tanh(a)/a drops 1 dB near a = 0.62 *)
  let amps = Array.init 30 (fun i -> 0.01 *. (1.3 ** float_of_int i)) in
  let gains = Array.map (fun a -> Float.tanh a /. a) amps in
  (match M.compression_from_curve ~amps ~gains with
  | Some a1 -> check_bool "p1db in the textbook range" true (a1 > 0.5 && a1 < 0.75)
  | None -> Alcotest.fail "compression_from_curve returned None");
  (* a linear device never compresses: typed None *)
  check_bool "linear never compresses" true
    (M.compression_from_curve ~amps ~gains:(Array.map (fun _ -> 2.0) amps)
    = None)

(* --------------------------------------------------- measure catalogue -- *)

let test_measure_parse_fixpoint () =
  List.iter
    (fun s ->
      let m = Measure.parse s in
      check_str ("canonical " ^ s) (Measure.to_string m)
        (Measure.to_string (Measure.parse (Measure.to_string m))))
    [
      "gain@1meg"; "gain_db@1e6"; "bw3db"; "ripple@1k..100k";
      "stopband@2meg..10meg"; "thd"; "fund"; "harm_db@3"; "dc_power";
      "vdc@out"; "idc@V1"; "v_end"; "v_min"; "v_max"; "v_swing";
    ];
  (* engineering suffixes normalize to %.9g numbers *)
  check_str "suffix canonicalized" "gain@1000000" (Measure.to_string (Measure.parse "gain@1meg"));
  List.iter
    (fun s ->
      check_bool ("rejects " ^ s) true
        (match Measure.parse s with
        | exception Measure.Parse_error _ -> true
        | _ -> false))
    [ "bogus"; "gain"; "bw3db@1k"; "ripple@5"; "stopband@10..2"; "harm_db@-1" ]

let ac_payload =
  {|{"status":"ok","analysis":"ac","engine":"ac","certificate":"none","newton":0,"krylov":0,"data":{"freq":[1000,10000,100000],"mag":[1,0.707,0.1]}}|}

let test_measure_eval_payloads () =
  (match Measure.eval_string (Measure.parse "gain@1e4") ac_payload with
  | Some g -> checkf 1e-9 "ac gain" 0.707 g
  | None -> Alcotest.fail "ac gain eval failed");
  (* wrong analysis kind: None *)
  check_bool "dc measure on ac payload" true
    (Measure.eval_string (Measure.parse "vdc@out") ac_payload = None);
  (* failed payloads never evaluate *)
  check_bool "failed payload" true
    (Measure.eval_string (Measure.parse "gain@1e4")
       {|{"status":"failed","analysis":"ac","cause":"x"}|}
    = None);
  let dc =
    {|{"status":"ok","analysis":"dc","engine":"dc","certificate":"certified","newton":3,"krylov":0,"data":{"v(out)":0.5,"i(V1)":-0.0005,"power":0.0005}}|}
  in
  (match Measure.eval_string (Measure.parse "vdc@out") dc with
  | Some v -> checkf 1e-12 "vdc" 0.5 v
  | None -> Alcotest.fail "vdc eval failed");
  (match Measure.eval_string (Measure.parse "dc_power") dc with
  | Some p -> checkf 1e-12 "dc_power" 5e-4 p
  | None -> Alcotest.fail "dc_power eval failed");
  let hb =
    {|{"status":"suspect","analysis":"shooting","engine":"shooting","certificate":"suspect","newton":9,"krylov":4,"data":{"harmonics":[0.01,1.0,0.1,0.01]}}|}
  in
  (* shooting payloads satisfy hb measures; suspect still evaluates *)
  (match Measure.eval_string (Measure.parse "thd") hb with
  | Some t -> checkf 1e-9 "thd" (sqrt (0.01 +. 0.0001)) t
  | None -> Alcotest.fail "thd eval failed");
  match Measure.eval_string (Measure.parse "harm_db@2") hb with
  | Some d -> checkf 1e-9 "harm_db" (-20.0) d
  | None -> Alcotest.fail "harm_db eval failed"

(* ------------------------------------------------------- spec language -- *)

let test_spec_roundtrip () =
  let clauses =
    [
      "target:gain@1meg=0.5~0.05";
      "stopband@2meg..10meg>=40";
      "ripple@1k..100k<=0.5";
    ]
  in
  let s = Spec.of_strings clauses in
  (* canonical rendering is a fixpoint *)
  Alcotest.(check (list string))
    "roundtrip" (Spec.to_strings s)
    (Spec.to_strings (Spec.of_strings (Spec.to_strings s)));
  check_int "distinct measures" 3 (List.length (Spec.measures s));
  (* units normalize: 2meg..10meg becomes plain numbers *)
  check_bool "suffix normalized" true
    (List.mem "stopband@2000000..10000000>=40" (Spec.to_strings s));
  List.iter
    (fun bad ->
      check_bool ("rejects " ^ bad) true
        (match Spec.of_strings [ bad ] with
        | exception Spec.Parse_error _ -> true
        | _ -> false))
    [ "gain@1k"; "target:gain@1k=1"; "minimize:"; "target:gain@1k=1~0" ];
  (* two goals is a spec error *)
  check_bool "two goals rejected" true
    (match Spec.of_strings [ "minimize:dc_power"; "maximize:vdc@out" ] with
    | exception Spec.Parse_error _ -> true
    | _ -> false)

let test_spec_score () =
  let s = Spec.of_strings [ "minimize:dc_power"; "vdc@out>=0.4" ] in
  let lookup values m =
    Option.join (List.assoc_opt (Measure.to_string m) values)
  in
  (* feasible: penalty is just the objective *)
  let sc = Spec.score s (lookup [ ("dc_power", Some 2.0); ("vdc@out", Some 0.5) ]) in
  checkf 1e-9 "feasible penalty" 2.0 sc.Spec.penalty;
  check_bool "feasible" true sc.Spec.feasible;
  check_bool "met" true sc.Spec.met;
  check_int "verdicts goal-first" 2 (List.length sc.Spec.verdicts);
  (* violated constraint: weighted, normalized by max(1,|limit|) *)
  let sc = Spec.score s (lookup [ ("dc_power", Some 2.0); ("vdc@out", Some 0.3) ]) in
  checkf 1e-6 "violation penalty" (2.0 +. (Spec.default_weight *. 0.1)) sc.Spec.penalty;
  check_bool "not met" false sc.Spec.met;
  (match (List.nth sc.Spec.verdicts 1).Spec.v_margin with
  | Some m -> checkf 1e-9 "negative margin" (-0.1) m
  | None -> Alcotest.fail "constraint margin missing");
  (* unevaluable measure poisons the point *)
  let sc = Spec.score s (lookup [ ("vdc@out", Some 0.5) ]) in
  check_bool "unevaluable is infinite" true (sc.Spec.penalty = infinity);
  (* target-with-tolerance goal gates met *)
  let t = Spec.of_strings [ "target:vdc@out=0.5~0.01" ] in
  check_bool "target met" true
    (Spec.score t (lookup [ ("vdc@out", Some 0.505) ])).Spec.met;
  check_bool "target missed" false
    (Spec.score t (lookup [ ("vdc@out", Some 0.53) ])).Spec.met

(* ---------------------------------------------------------- optimizers -- *)

let qcheck_bowl_convergence =
  QCheck.Test.make ~count:30 ~name:"optimizers find a quadratic bowl minimum"
    QCheck.(triple bool (float_range 0.1 0.9) (float_range 0.1 0.9))
    (fun (use_nm, cx, cy) ->
      let f x = ((x.(0) -. cx) ** 2.0) +. ((x.(1) -. cy) ** 2.0) in
      let lo = [| 0.0; 0.0 |] and hi = [| 1.0; 1.0 |] in
      let options = { Optim.default_options with max_evals = 500; tol_x = 1e-4 } in
      let r =
        if use_nm then Optim.nelder_mead ~options ~lo ~hi ~f [| 0.5; 0.5 |]
        else Optim.pattern_search ~options ~lo ~hi ~f [| 0.5; 0.5 |]
      in
      r.Optim.reason = Optim.Converged
      && Float.abs (r.Optim.best_x.(0) -. cx) < 0.02
      && Float.abs (r.Optim.best_x.(1) -. cy) < 0.02)

let test_rosenbrock () =
  let f x =
    (100.0 *. ((x.(1) -. (x.(0) *. x.(0))) ** 2.0)) +. ((1.0 -. x.(0)) ** 2.0)
  in
  let options =
    { Optim.max_evals = 2000; tol_x = 1e-7; tol_f = 1e-12; init_step = 0.1 }
  in
  let r =
    Optim.nelder_mead ~options ~lo:[| -2.0; -2.0 |] ~hi:[| 2.0; 2.0 |] ~f
      [| -1.0; 1.0 |]
  in
  check_bool "reaches the banana valley floor" true (r.Optim.best_f < 1e-4);
  check_bool "near (1,1)" true
    (Float.abs (r.Optim.best_x.(0) -. 1.0) < 0.05
    && Float.abs (r.Optim.best_x.(1) -. 1.0) < 0.1)

let test_box_constraint () =
  (* unconstrained minimum at x=5 lies outside the box: the optimizer
     must settle on the wall, never evaluate past it *)
  let outside = ref false in
  let f x =
    if x.(0) > 1.0 +. 1e-12 then outside := true;
    (x.(0) -. 5.0) ** 2.0
  in
  let r = Optim.nelder_mead ~lo:[| 0.0 |] ~hi:[| 1.0 |] ~f [| 0.2 |] in
  check_bool "never leaves the box" false !outside;
  check_bool "a wall minimum converges" true (r.Optim.reason = Optim.Converged);
  checkf 1e-2 "pinned to the wall" 1.0 r.Optim.best_x.(0);
  let r = Optim.pattern_search ~lo:[| 0.0 |] ~hi:[| 1.0 |] ~f [| 0.2 |] in
  checkf 1e-2 "pattern pinned to the wall" 1.0 r.Optim.best_x.(0)

let test_nm_wall_collapse () =
  (* a bowl centred near the y = 0 wall: two clipped reflections land on
     (0, 0) and flatten the simplex onto y = 0, where it used to settle
     at (0.152, 0) with f = 0.0131 and report Converged *)
  let cx = 0.152127434689 and cy = 0.114580016419 in
  let f x = ((x.(0) -. cx) ** 2.0) +. ((x.(1) -. cy) ** 2.0) in
  let options = { Optim.default_options with max_evals = 500; tol_x = 1e-4 } in
  let lo = [| 0.0; 0.0 |] and hi = [| 1.0; 1.0 |] in
  let r = Optim.nelder_mead ~options ~lo ~hi ~f [| 0.5; 0.5 |] in
  check_bool "converged" true (r.Optim.reason = Optim.Converged);
  checkf 0.02 "x at the centre" cx r.Optim.best_x.(0);
  checkf 0.02 "y off the wall, at the centre" cy r.Optim.best_x.(1)

let test_budget_and_stop () =
  let evals = ref 0 in
  let f x =
    incr evals;
    x.(0) *. x.(0)
  in
  let options = { Optim.default_options with max_evals = 7 } in
  let r = Optim.nelder_mead ~options ~lo:[| -1.0 |] ~hi:[| 1.0 |] ~f [| 0.9 |] in
  check_bool "budget outcome" true (r.Optim.reason = Optim.Budget_exhausted);
  check_int "budget respected" 7 !evals;
  (* stop_when short-circuits as soon as the goal is attained *)
  let r =
    Optim.nelder_mead
      ~stop_when:(fun v -> v < 0.5)
      ~lo:[| -1.0 |] ~hi:[| 1.0 |]
      ~f:(fun x -> x.(0) *. x.(0))
      [| 0.9 |]
  in
  check_bool "stop_when converges early" true
    (r.Optim.reason = Optim.Converged && r.Optim.evaluations <= 3)

(* ------------------------------------------------------ the closed loop -- *)

let divider_deck =
  "* resistive divider for the optimize loop tests\n\
   .param R1=5k\n\
   V1 in 0 DC 1\n\
   R1 in out {R1}\n\
   R2 out 0 1k\n\
   .end\n"

let loop_cfg () =
  {
    B.Runner.deck_text = divider_deck;
    node = "out";
    domains = 1;
    budget = None;
    tol_scale = 1.0;
    ordering = Rfkit_struct.Order.Natural;
    stats = false;
    deadline = None;
    grace = 2.0;
  }

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let d = Printf.sprintf "_opt_test_cache_%d_%d" (Unix.getpid ()) !n in
    if Sys.file_exists d then () else Unix.mkdir d 0o755;
    d

(* vdc(out) = 1k/(R1+1k): the target 0.5 V sits at R1 = 1k *)
let divider_spec = Spec.of_strings [ "target:vdc@out=0.5~0.002" ]
let divider_vars = [ { Loop.v_name = "R1"; v_lo = 100.0; v_hi = 10e3; v_init = 5e3 } ]

let run_loop ?journal ?replay ~cache () =
  let buf = Buffer.create 512 in
  let telemetry = B.Telemetry.create ~progress:false ~total:100 () in
  let outcome =
    Loop.run (loop_cfg ()) ~cache ~telemetry ?journal ?replay
      ~emit:(fun l ->
        Buffer.add_string buf l;
        Buffer.add_char buf '\n')
      ~spec:divider_spec ~analysis:B.Spec.Dc divider_vars
  in
  B.Telemetry.close telemetry;
  (outcome, Buffer.contents buf)

let test_loop_converges_and_rerun_identical () =
  Deadline.clear_interrupt ();
  let dir = fresh_dir () in
  let cold, trace_cold = run_loop ~cache:(B.Cache.create ~dir ()) () in
  (match cold.Loop.o_best with
  | Some b ->
      check_bool "spec met" true b.Loop.e_score.Spec.met;
      checkf 60.0 "found R1 near 1k" 1000.0 (List.assoc "R1" b.Loop.e_params)
  | None -> Alcotest.fail "no best eval");
  check_bool "typed outcome" true (cold.Loop.o_result <> None);
  (* warm rerun: byte-identical trace, all evals served by the cache *)
  let warm_cache = B.Cache.create ~dir () in
  let warm, trace_warm = run_loop ~cache:warm_cache () in
  check_str "cold vs warm trace byte-identical" trace_cold trace_warm;
  let s = B.Cache.stats warm_cache in
  check_int "warm rerun misses nothing" 0 s.B.Cache.misses;
  check_bool "warm rerun all hits" true (s.B.Cache.hits = warm.Loop.o_evals)

let test_loop_interrupt_and_resume () =
  Deadline.clear_interrupt ();
  let dir = fresh_dir () in
  (* uninterrupted baseline *)
  let _, trace_full = run_loop ~cache:(B.Cache.create ~enabled:false ~dir ()) () in
  (* killed after 2 evals: outcome interrupted, journal kept *)
  let run = "opt-resume-test" in
  let cache = B.Cache.create ~dir () in
  let journal = B.Journal.create ~dir ~run ~total:100 in
  Faults.arm_process { Faults.process_none with interrupt_after = Some 2 };
  let killed, trace_part = run_loop ~journal ~cache () in
  Faults.disarm_process ();
  Deadline.clear_interrupt ();
  check_bool "flagged interrupted" true killed.Loop.o_interrupted;
  check_bool "no optimizer verdict yet" true (killed.Loop.o_result = None);
  check_int "two evals before the kill" 2 killed.Loop.o_evals;
  B.Journal.close journal;
  check_bool "journal kept" true (B.Journal.exists ~dir ~run);
  (* resume: journaled evals replay, the search continues, and the final
     trace equals the uninterrupted run's byte for byte *)
  let replay =
    match B.Journal.load ~dir ~run with
    | Some r -> r
    | None -> Alcotest.fail "no replay"
  in
  let resumed, trace_resumed = run_loop ~replay ~cache () in
  check_bool "resume completes" true (not resumed.Loop.o_interrupted);
  check_bool "resume picks up the partial trace" true
    (String.length trace_part > 0
    && String.sub trace_resumed 0 (String.length trace_part) = trace_part);
  check_str "resumed trace byte-identical to uninterrupted" trace_full
    trace_resumed

let test_loop_run_hash_stability () =
  let cfg = loop_cfg () in
  let options = Optim.default_options in
  let h ~max_evals =
    Loop.run_hash cfg ~spec:divider_spec ~analysis:B.Spec.Dc
      ~algo:Loop.Nelder_mead
      ~options:{ options with Optim.max_evals }
      ~weight:Spec.default_weight divider_vars
  in
  (* a bigger budget must find the same journal... *)
  check_str "budget-independent" (h ~max_evals:50) (h ~max_evals:500);
  (* ...but any trajectory-shaping change must not *)
  let other =
    Loop.run_hash cfg ~spec:divider_spec ~analysis:B.Spec.Dc
      ~algo:Loop.Pattern_search ~options ~weight:Spec.default_weight
      divider_vars
  in
  check_bool "algo-dependent" true (other <> h ~max_evals:50)

let test_var_grammar () =
  let v = Loop.parse_var "R1=1k:10k:2k" in
  check_str "name" "R1" v.Loop.v_name;
  checkf 1e-9 "lo" 1e3 v.Loop.v_lo;
  checkf 1e-9 "init" 2e3 v.Loop.v_init;
  checkf 1e-9 "midpoint default" 5.5e3 (Loop.parse_var "R1=1k:10k").Loop.v_init;
  List.iter
    (fun bad ->
      check_bool ("rejects " ^ bad) true
        (match Loop.parse_var bad with
        | exception Loop.Parse_error _ -> true
        | _ -> false))
    [ "R1"; "R1=1k"; "=1:2"; "R1=10k:1k"; "R1=1k:10k:50k"; "R1=a:b" ]

let suite =
  [
    ( "opt.measures",
      [
        Alcotest.test_case "gain_at edges" `Quick test_gain_at_edges;
        QCheck_alcotest.to_alcotest qcheck_bw3db_interpolates;
        Alcotest.test_case "bw3db edges" `Quick test_bw3db_edges;
        Alcotest.test_case "band measures" `Quick test_band_measures;
        Alcotest.test_case "compression curve" `Quick test_compression_curve;
        Alcotest.test_case "parse fixpoint" `Quick test_measure_parse_fixpoint;
        Alcotest.test_case "payload evaluation" `Quick test_measure_eval_payloads;
      ] );
    ( "opt.spec",
      [
        Alcotest.test_case "roundtrip" `Quick test_spec_roundtrip;
        Alcotest.test_case "scoring" `Quick test_spec_score;
      ] );
    ( "opt.optim",
      [
        QCheck_alcotest.to_alcotest qcheck_bowl_convergence;
        Alcotest.test_case "rosenbrock" `Quick test_rosenbrock;
        Alcotest.test_case "box constraint" `Quick test_box_constraint;
        Alcotest.test_case "nelder-mead off a collapsed wall simplex" `Quick
          test_nm_wall_collapse;
        Alcotest.test_case "budget and stop_when" `Quick test_budget_and_stop;
        Alcotest.test_case "var grammar" `Quick test_var_grammar;
      ] );
    ( "opt.loop",
      [
        Alcotest.test_case "converges; warm rerun identical" `Quick
          test_loop_converges_and_rerun_identical;
        Alcotest.test_case "interrupt and resume" `Quick
          test_loop_interrupt_and_resume;
        Alcotest.test_case "run-hash stability" `Quick
          test_loop_run_hash_stability;
      ] );
  ]
