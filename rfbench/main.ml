(* rfbench: the repository's end-to-end benchmark.

   rfbench --workload postlayout|rf|sweep --seed N --seconds S --trace 0|1

   Every workload runs all three operation groups (post-layout decks, rf
   engines, sweep/optimize), its own at full size and the other two at a
   small size, in a closed loop on one process: each operation starts when
   the previous one has finished. Inputs come from the seed; the amount of
   work does not. The last stdout line is the JSON result. *)

open Rfbench
open Common

let workloads =
  [
    ("postlayout", (Large, Small, Small));
    ("rf", (Small, Large, Small));
    ("sweep", (Small, Small, Large));
  ]

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("rfbench: " ^ s); exit 2) fmt

let args () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let rec go = function
    | "--workload" :: v :: rest -> workload := v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; go rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; go rest
    | "--trace" :: v :: rest -> trace := (match v with "0" -> Some false | "1" -> Some true | _ -> None); go rest
    | [] -> ()
    | a :: _ -> die "unexpected argument %s" a
  in
  go (List.tl (Array.to_list Sys.argv));
  match (List.assoc_opt !workload workloads, !seed, !seconds, !trace) with
  | Some scales, Some seed, Some seconds, Some trace when seconds > 0.0 ->
      (!workload, scales, seed, seconds, trace)
  | _ ->
      die "usage: rfbench --workload %s --seed N --seconds S --trace 0|1"
        (String.concat "|" (List.map fst workloads))

(* ---- machine fingerprint ------------------------------------------------ *)

(* a fixed scalar float loop; reported, never used to normalise a metric *)
let calibration () =
  let n = 20_000_000 in
  let _, t =
    timed (fun () ->
        let x = ref 1.0 in
        for i = 1 to n do
          x := (!x *. 1.0000001) +. (1.0 /. float_of_int i)
        done;
        Sys.opaque_identity !x)
  in
  float_of_int n /. t /. 1e6

let peak_rss_mb () =
  let from_status () =
    let ic = open_in "/proc/self/status" in
    Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
        let rec find () =
          match input_line ic with
          | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
              Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
                  float_of_int kb /. 1024.0)
          | _ -> find ()
        in
        find ())
  in
  try from_status ()
  with _ -> float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* ---- measurement -------------------------------------------------------- *)

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let attempted = ref 0
let failed = ref 0

let attempt f =
  incr attempted;
  match f () with
  | true -> ()
  | false -> incr failed
  | exception e ->
      Printf.eprintf "rfbench: operation raised %s\n%!" (Printexc.to_string e);
      incr failed

(* One round runs every operation's block once, in a fixed order, and
   records the time of each operation in the block. The heap is compacted
   before each block, outside the timing, so one block's major-GC debt
   does not land in the next block's time. *)
let round ops samples =
  List.iter
    (fun (op : op) ->
      Trace.span ~layer:"runtime" "gc.compact" Gc.compact;
      Trace.span ~layer:"bench" ("op." ^ op.metric) (fun () ->
          for _ = 1 to op.reps do
            let (), t = timed (fun () -> attempt op.run) in
            Hashtbl.replace samples op.metric
              (op.value t :: Option.value (Hashtbl.find_opt samples op.metric) ~default:[])
          done))
    ops

let min_rounds = 3

(* rounds until the next one would overrun [seconds], at least [min_rounds] *)
let measure ~seconds ~before_round ops =
  let samples = Hashtbl.create 16 in
  let t0 = Unix.gettimeofday () and rounds = ref 0 and round_times = ref [] in
  let go_on () =
    let elapsed = Unix.gettimeofday () -. t0 in
    !rounds < min_rounds || elapsed +. (elapsed /. float_of_int !rounds) <= seconds
  in
  while go_on () do
    before_round !rounds;
    let _, t = timed (fun () -> Trace.span ~layer:"bench" "phase.round" (fun () -> round ops samples)) in
    round_times := t :: !round_times;
    incr rounds
  done;
  (samples, List.rev !round_times)

(* ---- metric catalogue --------------------------------------------------- *)

let end_to_end =
  [
    ("setup_s", "s"); ("peak_rss_mb", "MB"); ("tran_s", "s"); ("ac_s", "s"); ("noise_s", "s");
    ("passive_s", "s"); ("pss_s", "s"); ("hb_gmres_s", "s"); ("multitone_s", "s"); ("mpde_s", "s");
    ("shooting_s", "s"); ("sweep_cold_jobs_per_s", "1/s"); ("sweep_warm_jobs_per_s", "1/s");
    ("optimize_s", "s"); ("optimize_evals", "count");
  ]

let per_layer =
  let lu p =
    [ (p ^ ".analyze_s", "s"); (p ^ ".refactor_s", "s"); (p ^ ".solve_s", "s"); (p ^ ".full", "count");
      (p ^ ".refactors", "count"); (p ^ ".reuse_ratio", "ratio"); (p ^ ".fill_nnz", "count");
      (p ^ ".alloc_mb", "MB") ]
  in
  [ ("deck.parse_s", "s"); ("lint.run_s", "s"); ("lint.diagnostics", "count"); ("struct.order_s", "s");
    ("struct.fill_ratio", "ratio"); ("mna.build_s", "s"); ("mna.stamp_s", "s");
    ("mna.unknowns", "count"); ("mna.nnz", "count") ]
  @ lu "sparse_lu" @ lu "csparse_lu"
  @ [ ("dc.newton_iters", "count"); ("dc.attempts", "count"); ("tran.steps", "count");
      ("tran.newton_iters", "count"); ("tran.retries", "count"); ("ac.points", "count");
      ("noise.sources", "count"); ("noise.solves", "count"); ("noise.s_per_solve", "s");
      ("noise.alloc_mb", "MB"); ("certify.s", "s"); ("certify.suspect", "count");
      ("pss.stages_tried", "count"); ("qpss.stages_tried", "count"); ("hb.newton_iters", "count");
      ("hb.jacobian_mb", "MB"); ("hb.gmres_iters", "count"); ("hb2.gmres_iters", "count");
      ("hbn.unknowns", "count"); ("hbn.gmres_iters", "count"); ("hbn.memory_mb", "MB");
      ("mmft.newton_iters", "count"); ("shooting.newton_iters", "count");
      ("shooting.steps", "count"); ("em.panels", "count"); ("em.ies3_build_s", "s");
      ("em.ies3_matvec_s", "s"); ("em.compression_ratio", "ratio"); ("em.krylov_iters", "count");
      ("rom.descriptor_s", "s"); ("rom.reduce_s", "s"); ("rom.order", "count");
      ("rom.transfer_s", "s"); ("expand.jobs", "count"); ("expand.s", "s");
      ("runner.cold_job_s", "s"); ("runner.warm_job_s", "s"); ("runner.domain_speedup", "ratio");
      ("cache.lookup_s", "s"); ("cache.store_s", "s"); ("cache.hit_ratio", "ratio");
      ("cache.entry_bytes", "bytes"); ("journal.record_s", "s"); ("journal.records", "count");
      ("opt.evals", "count"); ("opt.revisits", "count"); ("opt.eval_s", "s");
      ("gc.major_collections", "count"); ("gc.allocated_mb", "MB"); ("trace.coverage", "ratio");
      ("trace.overhead_ratio", "ratio"); ("self_share.postlayout_circuit", "ratio");
      ("self_share.rf_engines", "ratio"); ("self_share.sweep_warm_batch", "ratio") ]

(* ---- traced-run summaries ----------------------------------------------- *)

let metrics_of_trace ~traced_rounds ~round_times ~untraced_round =
  let spans = Trace.spans () in
  let under_phase p = Trace.under spans (fun n -> n = p) in
  let in_setup = List.filter (under_phase "phase.setup") spans in
  List.iter
    (fun (metric, span) -> set metric (Trace.total span in_setup))
    [ ("deck.parse_s", "deck.parse_string_located"); ("lint.run_s", "lint.run");
      ("struct.order_s", "struct.order"); ("mna.build_s", "mna.build"); ("expand.s", "batch.expand") ];
  let in_rounds = List.filter (under_phase "phase.round") spans in
  let per_round v = v /. float_of_int traced_rounds in
  set "certify.s"
    (per_round
       (List.fold_left
          (fun acc s ->
            if String.length s.Trace.name > 13 && String.sub s.Trace.name 0 13 = "solve.certify"
            then acc +. Trace.duration s
            else acc)
          0.0 in_rounds));
  let rounds_total = List.fold_left ( +. ) 0.0 round_times in
  (* coverage: share of the traced rounds' wall time that some span
     outside the benchmark's own glue accounts for *)
  let selfs = Trace.layer_self in_rounds in
  let glue = Option.value (Hashtbl.find_opt selfs "bench") ~default:0.0 in
  let covered = Hashtbl.fold (fun _ v acc -> acc +. v) selfs 0.0 -. glue in
  set "trace.coverage" (covered /. rounds_total);
  set "trace.overhead_ratio" (median round_times /. untraced_round);
  (* the share of a group's own operation time spent in the named layers *)
  let share ~ops ~layers scope =
    let keep = Trace.under scope (fun n -> List.mem n ops) in
    let tbl = Trace.layer_self ~keep scope in
    let total = Hashtbl.fold (fun _ v acc -> acc +. v) tbl 0.0 in
    let part = List.fold_left (fun acc l -> acc +. Option.value (Hashtbl.find_opt tbl l) ~default:0.0) 0.0 layers in
    part /. total
  in
  set "self_share.postlayout_circuit"
    (share ~ops:[ "op.tran_s"; "op.ac_s"; "op.noise_s"; "op.passive_s" ]
       ~layers:[ "circuit"; "la"; "struct" ] in_rounds);
  set "self_share.rf_engines"
    (share ~ops:[ "op.pss_s"; "op.hb_gmres_s"; "op.multitone_s"; "op.mpde_s"; "op.shooting_s" ]
       ~layers:[ "rf" ] in_rounds);
  set "self_share.sweep_warm_batch"
    (share ~ops:[ "probe.warm_pass" ] ~layers:[ "batch" ] spans)

(* ---- the run ------------------------------------------------------------ *)

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let () =
  let workload, (pl_scale, rf_scale, sw_scale), seed, seconds, trace = args () in
  let fingerprint =
    Printf.sprintf "{\"cores\":%d,\"ocaml\":%S,\"calibration_mops\":%s}"
      (Domain.recommended_domain_count ()) Sys.ocaml_version (json_number (calibration ()))
  in
  (* inputs: generated once from the seed, untimed *)
  let pl_in = Postlayout.generate ~seed pl_scale in
  let rf_in = Rf_engines.generate ~seed rf_scale in
  let sw_in = Sweep.generate ~seed sw_scale in
  let load () =
    Hashtbl.remove layer "lint.diagnostics";
    ( Postlayout.load pl_scale pl_in,
      Rf_engines.load rf_scale rf_in,
      Sweep.load sw_scale sw_in )
  in
  (* set-up: parse, lint, MNA build and ordering for the decks, spec
     parse and expansion for the sweeps. Timed at least five times and
     for at least a second, so a set-up of a few milliseconds still gets
     a steady median. *)
  let loaded = ref None and setup_times = ref [] and spent = ref 0.0 in
  while List.length !setup_times < 5 || (!spent < 1.0 && List.length !setup_times < 500) do
    Gc.compact ();
    let l, t = timed (fun () -> Trace.span ~layer:"bench" "phase.setup" load) in
    loaded := Some l;
    setup_times := t :: !setup_times;
    spent := !spent +. t
  done;
  (* the traced run records one more set-up for the per-layer figures *)
  if trace then begin
    Trace.enabled := true;
    loaded := Some (Trace.span ~layer:"bench" "phase.setup" load);
    Trace.enabled := false
  end;
  let pl, rf, sw = Option.get !loaded in
  (* correctness gates, outside the timings; a failed gate is a failed
     operation *)
  List.iter
    (fun (name, gate) ->
      attempt (fun () ->
          let ok, t = timed gate in
          Printf.eprintf "rfbench: gate %s %s (%.2fs)\n%!" name (if ok then "passed" else "FAILED") t;
          ok))
    (Postlayout.gates ~seed pl @ Rf_engines.gates rf @ Sweep.gates sw);
  let ops = Postlayout.ops pl @ Rf_engines.ops rf @ Sweep.ops sw in
  let gc0 = ref (Gc.quick_stat ()) and alloc0 = ref 0.0 in
  (* traced runs time round 0 without spans: the overhead baseline *)
  let before_round k =
    if trace && k = 1 then begin
      Trace.enabled := true;
      gc0 := Gc.quick_stat ();
      alloc0 := Gc.allocated_bytes ()
    end
  in
  let samples, round_times = measure ~seconds ~before_round ops in
  let metrics =
    if not trace then begin
      let m = Hashtbl.create 16 in
      Hashtbl.iter (fun k v -> Hashtbl.replace m k (median v)) samples;
      Hashtbl.replace m "setup_s" (median !setup_times);
      Hashtbl.replace m "optimize_evals" (float_of_int sw.Sweep.evals);
      Hashtbl.replace m "peak_rss_mb" (peak_rss_mb ());
      Printf.printf "{\"workload\":%S,\"seed\":%d,\"fingerprint\":%s,\"rounds\":%d,\"samples\":{%s}}\n"
        workload seed fingerprint (List.length round_times)
        (String.concat ","
           (Hashtbl.fold
              (fun k v acc ->
                Printf.sprintf "%S:[%s]" k (String.concat "," (List.map json_number (List.rev v))) :: acc)
              samples []));
      (m, end_to_end)
    end
    else begin
      let traced = List.tl round_times in
      let gc1 = Gc.quick_stat () in
      let n = float_of_int (List.length traced) in
      set "gc.major_collections" (float_of_int (gc1.Gc.major_collections - !gc0.Gc.major_collections) /. n);
      set "gc.allocated_mb" (mb (Gc.allocated_bytes () -. !alloc0) /. n);
      seti "certify.suspect" !suspects;
      Trace.span ~layer:"bench" "phase.probe" (fun () ->
          Postlayout.probe pl;
          Rf_engines.probe rf;
          Sweep.probe sw);
      Trace.enabled := false;
      metrics_of_trace ~traced_rounds:(List.length traced) ~round_times:traced
        ~untraced_round:(List.hd round_times);
      Sweep.mkdir_p ".rfbench";
      let path = Printf.sprintf ".rfbench/trace-%s-%d.jsonl" workload seed in
      Trace.write path (Trace.spans ());
      Printf.printf "{\"workload\":%S,\"seed\":%d,\"fingerprint\":%s,\"spans\":%S}\n" workload seed
        fingerprint path;
      (layer, per_layer)
    end
  in
  Sweep.rm_rf Sweep.root;
  let fields =
    List.map
      (fun (name, unit) ->
        let v =
          match Hashtbl.find_opt (fst metrics) name with
          | Some v -> v
          | None ->
              Printf.eprintf "rfbench: metric %s was not measured\n%!" name;
              incr failed;
              nan
        in
        Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" name (json_number v) unit)
      (snd metrics)
  in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    (!failed = 0) !attempted !failed (String.concat "," fields)
