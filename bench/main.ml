(* rfkit reproduction benchmark harness.

   Default mode regenerates every table and figure of the paper's
   evaluation (paper-vs-measured verdict lines), then times the kernel of
   each experiment with Bechamel. `--report-only` skips the timing pass;
   `--bench-only` skips the reproduction tables. *)

open Bechamel

let experiments =
  [
    ("fig1", Exp_fig1.report, Exp_fig1.bench_tests);
    ("fig2_3", Exp_fig2_3.report, Exp_fig2_3.bench_tests);
    ("fig4_5", Exp_fig4_5.report, Exp_fig4_5.bench_tests);
    ("table1", Exp_table1.report, Exp_table1.bench_tests);
    ("fig6", Exp_fig6.report, Exp_fig6.bench_tests);
    ("fig7", Exp_fig7.report, Exp_fig7.bench_tests);
    ("fig8", Exp_fig8.report, Exp_fig8.bench_tests);
    ("sec3", Exp_sec3.report, Exp_sec3.bench_tests);
    ("sec5", Exp_sec5.report, Exp_sec5.bench_tests);
    ("sec21", Exp_sec21.report, Exp_sec21.bench_tests);
    ("tones", Exp_tones.report, Exp_tones.bench_tests);
    ("ablations", Exp_ablations.report, Exp_ablations.bench_tests);
    ("sparsity", Exp_sparsity.report, Exp_sparsity.bench_tests);
    ("measures", Exp_measures.report, Exp_measures.bench_tests);
    ("batch", Exp_batch.report, Exp_batch.bench_tests);
    ("opt", Exp_opt.report, Exp_opt.bench_tests);
    ("setup", Exp_setup.report, Exp_setup.bench_tests);
  ]

let run_reports only =
  List.iter
    (fun (name, report, _) ->
      if only = None || only = Some name then report ())
    experiments

let run_benchmarks only =
  Util.section "Bechamel micro-benchmarks (one kernel per table/figure)";
  let tests =
    List.concat_map
      (fun (name, _, tests) -> if only = None || only = Some name then tests else [])
      experiments
  in
  let grouped = Test.make_grouped ~name:"rfkit" tests in
  let cfg =
    Benchmark.cfg ~limit:50 ~quota:(Time.second 1.0) ~kde:None
      ~stabilize:false ()
  in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] grouped in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name o acc -> (name, o) :: acc) results [] in
  let rows = List.sort (fun (a, _) (b, _) -> compare a b) rows in
  Printf.printf "  %-40s %-16s %-8s\n" "kernel" "time/run" "r^2";
  List.iter
    (fun (name, o) ->
      let time_ns =
        match Analyze.OLS.estimates o with Some (t :: _) -> t | _ -> nan
      in
      let pretty =
        if Float.is_nan time_ns then "n/a"
        else if time_ns > 1e9 then Printf.sprintf "%.2f s" (time_ns /. 1e9)
        else if time_ns > 1e6 then Printf.sprintf "%.2f ms" (time_ns /. 1e6)
        else if time_ns > 1e3 then Printf.sprintf "%.2f us" (time_ns /. 1e3)
        else Printf.sprintf "%.0f ns" time_ns
      in
      let r2 =
        match Analyze.OLS.r_square o with Some r -> Printf.sprintf "%.3f" r | None -> "-"
      in
      Printf.printf "  %-40s %-16s %-8s\n" name pretty r2)
    rows

let () =
  let args = Array.to_list Sys.argv in
  let report_only = List.mem "--report-only" args in
  let bench_only = List.mem "--bench-only" args in
  let only =
    List.find_map
      (fun a ->
        match String.index_opt a '=' with
        | Some i when String.length a > 7 && String.sub a 0 7 = "--only=" ->
            Some (String.sub a (i + 1) (String.length a - i - 1))
        | _ -> None)
      args
  in
  Printf.printf "rfkit %s reproduction harness -- %s\n" Rfkit.version
    "\"Tools and Methodology for RF IC Design\" (DAC 1998)";
  if not bench_only then run_reports only;
  if not report_only then run_benchmarks only;
  Util.section "done"
