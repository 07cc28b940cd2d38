(* rfsim: command-line front end over the rfkit analysis pipeline.

   Reads a SPICE-like deck (see Rfkit.Circuit.Deck for the grammar) and
   runs the analyses given on the command line or embedded as deck
   directives (.dc/.tran/.ac/.noise/.hb).

     rfsim lint circuit.cir [--json] [--strict]
     rfsim run circuit.cir
     rfsim dc circuit.cir
     rfsim tran circuit.cir --t-stop 1e-6 --dt 1e-9 --node out
     rfsim ac circuit.cir --f-start 1e3 --f-stop 1e9 --source V1 --node out
     rfsim hb circuit.cir --freq 1e6 --node out --harmonics 8
     rfsim hb circuit.cir --freq 1e6 --cascade

   Every analysis subcommand, and `run`, is one job through
   Rfkit.Batch.Pipeline followed by a text formatter in this file: the
   pipeline's pre-flight reads and parses the deck, runs the static
   netlist analyzer (Rfkit.Lint) and refuses an error-severity
   diagnostic unless --no-lint is given; its analysis table runs the
   engine, certifies the result and returns a typed outcome. The sweep
   runner and the service run the same pre-flight and the same table, so
   an analysis answers the same offline, swept and served.

   DC, transient and HB results are certified a posteriori (independent
   re-evaluation of the residuals; see Solve.Certify) unless --no-certify
   is given; --certify-scale multiplies every certification threshold.
   --cascade runs HB through the full PSS fallback chain
   (hb -> hb-gmres -> shooting -> tran-fft) and prints the escalation
   trace.

   Exit codes: 0 success; 1 usage or deck parse error; 2 lint fatal;
   3 convergence failure (the attempt ladder is printed on stderr);
   4 certification failure (the analysis converged but its result failed
   the a-posteriori checks; the certificate is printed on stdout);
   5 interrupted (SIGINT/SIGTERM — sweeps flush a partial report and
   leave a resumable journal; see --resume); 6 the client gave up (server
   unavailable or overloaded past the retry budget); 7 spec not met
   (rfsim optimize finished but its best point fails the --spec clauses);
   66 is reserved for the --inject-crash-after testing hook (simulated
   hard crash). Every engine failure is typed: no analysis ends in an
   uncaught exception.

   Closed-loop design optimization (see Rfkit.Opt):

     rfsim optimize lowpass.cir --var R1=50:10k:50 --var C2=5p:500p:5p \
       --analysis ac --spec 'gain_db@1e4>=-1' --spec 'stopband@1e7..1e8>=30'

   drives the deck's .param bindings with a gradient-free optimizer
   (Nelder-Mead or compass pattern search); every candidate is an
   ordinary cached sweep job, so revisited points are free, warm reruns
   are nearly all cache hits, and the run journal makes a killed
   optimization resumable. The per-eval trace on stdout is byte-identical
   regardless of cache warmth. `rfsim sweep --measure gain_db@1meg,bw3db`
   appends the same measure catalogue as a CSV trend table.

   The daemon pair:

     rfsim serve --socket rfsim.sock --jobs 4 --cache-dir .rfsim-cache
     rfsim client sweep circuit.cir --socket rfsim.sock --param R1=1k:10k:log:8
     rfsim client status --socket rfsim.sock

   serve executes submitted sweeps on a shared domain pool with one warm
   cache; every run journals under the same hash `rfsim sweep` uses, so
   kill -9 mid-sweep + restart + client retry resumes byte-identically. *)

open Rfkit
open Circuit
open Cmdliner
module Pipeline = Batch.Pipeline
module Sup = Solve.Supervisor

let exit_parse = 1
let exit_lint = 2
let exit_no_convergence = 3
let exit_certify = 4
let exit_interrupted = 5
let exit_unavailable = 6
let exit_spec = 7

let on_signals handle =
  try
    Sys.set_signal Sys.sigint (Sys.Signal_handle handle);
    Sys.set_signal Sys.sigterm (Sys.Signal_handle handle)
  with Invalid_argument _ | Sys_error _ -> ()

(* Single-run analyses: a SIGINT/SIGTERM flips one atomic; the engine's
   next Guard.check poll raises, the supervisor converts it into a typed
   Interrupted failure, and [die] exits 5 — instead of the process dying
   mid-write on a bare signal. *)
let install_single_run_signals () =
  on_signals (fun _ -> Solve.Deadline.request_interrupt ())

(* Sweep, optimize and serve: the first signal closes the dispatch gate
   and drains in-flight jobs under [grace]; a second force-quits like the
   shell default (128+SIGINT). *)
let install_drain_signals ~grace =
  on_signals (fun _ ->
      if Solve.Deadline.interrupt_requested () then Unix._exit 130
      else Batch.Runner.request_stop ~grace)

(* --stats flag state lives up here so [die] can emit a final stats line
   on an interrupted run (the supervisor report that would normally
   carry the counters never materializes) *)
let stats_enabled = ref false

(* on a typed failure: print the attempt ladder (or the escalation
   trace); exit 5 when the cause was an interrupt, 3 otherwise *)
let die (f : Pipeline.failure) =
  let cause =
    match f with
    | Pipeline.Engine f ->
        Printf.eprintf "%s\n" (Sup.failure_to_string f);
        if f.Sup.cause = Sup.Interrupted && !stats_enabled then
          Printf.eprintf "stats: interrupted engine=%s attempts=%d\n" f.Sup.f_engine
            (List.length f.Sup.f_attempts);
        f.Sup.cause
    | Pipeline.Chain f ->
        Printf.eprintf "%s\n" (Solve.Cascade.failure_to_string f);
        f.Solve.Cascade.x_cause
  in
  exit (match cause with Sup.Interrupted -> exit_interrupted | _ -> exit_no_convergence)

(* note non-first-rung recoveries so deck problems stay visible *)
let note_recovery (r : Sup.report) =
  match r.Sup.strategy with
  | Sup.Base -> ()
  | s ->
      Printf.eprintf "note: %s converged via %s after %d attempts\n" r.Sup.engine
        (Sup.strategy_name s) (List.length r.Sup.attempts)

(* testing hook: force the first N linear solves of an engine to report a
   singular Jacobian so the retry ladder (and exit codes) can be exercised
   from the command line *)
let arm_injection ~engine n =
  if n > 0 then
    Solve.Faults.arm
      { Solve.Faults.none with engine = Some engine; singular_attempts = n }

(* print the certificate; a Suspect verdict is a distinct exit code so
   scripted flows can tell "converged but not trustworthy" from "diverged" *)
let emit_certificate cert =
  print_endline (Solve.Certify.certificate_to_string cert);
  if not (Solve.Certify.is_certified cert) then exit exit_certify

(* --stats: one observability line per analysis on stderr, off by default.
   The nnz/density/bytes figures come from the cached MNA sparsity pattern
   (state-independent), the iteration counts from the supervisor report of
   the attempt that converged, and the lu_* counters from the pipeline's
   LU ledger snapshot, taken after the engine and before certification:
   lu_full counts fresh symbolic analyses, lu_refactor counts
   Gilbert-Peierls numeric replays of a frozen pattern. *)
let emit_stats ~analysis c (st : Sup.stats) (l : Pipeline.ledger) =
  if !stats_enabled then begin
    let n = Mna.size c in
    let x = La.Vec.create n in
    let g = Mna.jac_g_sparse c x and cm = Mna.jac_c_sparse c x in
    Printf.eprintf
      "stats: %s unknowns=%d nnz(G)=%d nnz(C)=%d density(G)=%.4f \
matrix_bytes=%d newton=%d gmres=%d lu_full=%d lu_refactor=%d fill_nnz=%d \
clu_full=%d clu_refactor=%d clu_fill_nnz=%d ordering=%s\n"
      analysis n (La.Sparse.nnz g) (La.Sparse.nnz cm) (La.Sparse.density g)
      (La.Sparse.memory_bytes g + La.Sparse.memory_bytes cm)
      st.Sup.iterations st.Sup.krylov_iterations l.Pipeline.lu_full
      l.Pipeline.lu_refactor l.Pipeline.fill_nnz l.Pipeline.clu_full
      l.Pipeline.clu_refactor l.Pipeline.clu_fill_nnz
      (Struct.Order.mode_to_string (Mna.ordering c))
  end

(* ---------------------------------------------------------- pre-flight -- *)

let print_lint path ds = if ds <> [] then Printf.eprintf "%s\n" (fst (Lint.report ~path ds))

(* The pipeline's refusals, rendered for the terminal: an unreadable or
   unparsable deck exits 1, a lint-fatal one prints its findings and
   exits 2. *)
let refuse ~verb path = function
  | Pipeline.Unreadable msg ->
      Printf.eprintf "%s\n" msg;
      exit exit_parse
  | Pipeline.Parse_failed { line; msg } ->
      Printf.eprintf "%s:%d: %s\n" path line msg;
      exit exit_parse
  | Pipeline.Lint_fatal ds ->
      print_lint path ds;
      Printf.eprintf "%s: %s; refusing to %s (use --no-lint to override)\n" path
        (Lint.summary ds) verb;
      exit exit_lint

let read_deck path =
  match Pipeline.read_deck path with Ok text -> text | Error r -> refuse ~verb:"run" path r

(* Pre-flight: lint findings that do not block the run are printed. *)
let preflight ~verb ?overrides ~lint path text =
  match Pipeline.prepare ?overrides ~lint text with
  | Ok deck ->
      print_lint path deck.Pipeline.diagnostics;
      deck
  | Error r -> refuse ~verb path r

(* One job: the pre-flight and the circuit built with its ordering (the
   pipeline zeroes the LU ledger for --stats). *)
let one_job ?ordering ~no_lint ~stats path =
  install_single_run_signals ();
  let deck = preflight ~verb:"run" ~lint:(not no_lint) path (read_deck path) in
  stats_enabled := stats;
  (deck, Pipeline.circuit ?ordering deck)

let analysis ?certify ?node c request =
  match Pipeline.run ?certify ?node c request with
  | Pipeline.Converged r -> r
  | Pipeline.Failed f -> die f

(* ---------------------------------------------------------- formatters -- *)

let print_dc c (r : La.Vec.t Pipeline.converged) =
  note_recovery r.Pipeline.report;
  emit_stats ~analysis:"dc" c r.Pipeline.report.Sup.stats r.Pipeline.ledger;
  let x = r.Pipeline.value in
  Printf.printf "DC operating point:\n";
  let nl = Mna.netlist c in
  for i = 0 to Netlist.node_count nl - 1 do
    Printf.printf "  v(%s) = %.9g V\n" (Netlist.node_name nl i) x.(i)
  done;
  Option.iter emit_certificate r.Pipeline.certificate

let print_tran c ~nodes (r : Tran.result Pipeline.converged) =
  note_recovery r.Pipeline.report;
  emit_stats ~analysis:"tran" c r.Pipeline.report.Sup.stats r.Pipeline.ledger;
  Option.iter emit_certificate r.Pipeline.certificate;
  let res = r.Pipeline.value in
  let n = Array.length res.Tran.times in
  Printf.printf "time";
  List.iter (Printf.printf ",v(%s)") nodes;
  print_newline ();
  let cols = List.map (fun node -> Tran.voltage_trace c res node) nodes in
  let stride = max 1 (n / 200) in
  for k = 0 to n - 1 do
    if k mod stride = 0 then begin
      Printf.printf "%.6e" res.Tran.times.(k);
      List.iter (fun col -> Printf.printf ",%.6e" col.(k)) cols;
      print_newline ()
    end
  done

(* AC and noise are direct linearized solves: no Newton/Krylov counters *)
let print_ac c ~node (r : Ac.result Pipeline.converged) =
  let res = r.Pipeline.value in
  Printf.printf "freq,mag_db,phase_deg\n";
  Array.iteri
    (fun i z ->
      Printf.printf "%.6e,%.3f,%.2f\n" res.Ac.freqs.(i)
        (La.Stats.db20 (La.Cx.abs z))
        (La.Cx.arg z *. 180.0 /. Float.pi))
    (Ac.transfer c res node);
  emit_stats ~analysis:"ac" c Sup.no_stats r.Pipeline.ledger

let print_noise c ~freqs (r : float array Pipeline.converged) =
  Printf.printf "freq,vnoise_psd,vnoise_per_rthz\n";
  Array.iteri
    (fun i s -> Printf.printf "%.6e,%.6e,%.6e\n" freqs.(i) s (sqrt s))
    r.Pipeline.value;
  emit_stats ~analysis:"noise" c Sup.no_stats r.Pipeline.ledger

let print_harmonics ~freq ~harmonics amplitude =
  Printf.printf "harmonic,freq,amplitude\n";
  for k = 0 to harmonics do
    Printf.printf "%d,%.6e,%.6e\n" k (float_of_int k *. freq) (amplitude k)
  done

let print_hb c ~node ~harmonics (r : Rf.Hb.result Pipeline.converged) =
  note_recovery r.Pipeline.report;
  emit_stats ~analysis:"hb" c r.Pipeline.report.Sup.stats r.Pipeline.ledger;
  let res = r.Pipeline.value in
  Printf.printf "harmonic balance at %.6g Hz (%d Newton iterations):\n" res.Rf.Hb.freq
    res.Rf.Hb.newton_iters;
  Option.iter emit_certificate r.Pipeline.certificate;
  print_harmonics ~freq:res.Rf.Hb.freq ~harmonics (Rf.Hb.harmonic_amplitude res node)

(* --cascade: the engine-agnostic PSS chain. The escalation trace goes to
   stdout (it is part of the result: which route produced the answer),
   rendered without timings so repeated runs are byte-identical. *)
let print_cascade ~freq ~node ~harmonics (r : Rf.Pss.solution Pipeline.converged) =
  Option.iter
    (fun rep -> print_endline (Solve.Cascade.report_to_string rep))
    r.Pipeline.chain;
  Option.iter emit_certificate r.Pipeline.certificate;
  print_harmonics ~freq ~harmonics (Rf.Pss.harmonic_amplitude r.Pipeline.value node)

let print_shooting c ~freq ~node ~harmonics (r : Rf.Shooting.result Pipeline.converged) =
  note_recovery r.Pipeline.report;
  emit_stats ~analysis:"shooting" c r.Pipeline.report.Sup.stats r.Pipeline.ledger;
  let res = r.Pipeline.value in
  Printf.printf "shooting at %.6g Hz (%d Newton iterations, %d steps):\n" freq
    res.Rf.Shooting.newton_iters res.Rf.Shooting.integration_steps;
  Option.iter emit_certificate r.Pipeline.certificate;
  print_harmonics ~freq ~harmonics
    (Rf.Pss.harmonic_amplitude (Rf.Pss.of_shooting res) node)

let print_mmft c ~f1 ~f2 ~slow_harmonics ~node (r : Rf.Mmft.result Pipeline.converged) =
  note_recovery r.Pipeline.report;
  emit_stats ~analysis:"mmft" c r.Pipeline.report.Sup.stats r.Pipeline.ledger;
  let res = r.Pipeline.value in
  Printf.printf "mmft at f1=%.6g Hz, f2=%.6g Hz (%d Newton iterations, %d steps):\n" f1 f2
    res.Rf.Mmft.newton_iters res.Rf.Mmft.integration_steps;
  Printf.printf "slow_harmonic,envelope_max\n";
  for j = 0 to slow_harmonics do
    let env = Rf.Mmft.harmonic_magnitude res node j in
    Printf.printf "%d,%.6e\n" j (Array.fold_left max 0.0 env)
  done

(* ---------------------------------------------------------------- CLI -- *)

let deck_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"DECK" ~doc:"Netlist deck file.")

let node_arg default =
  Arg.(value & opt string default & info [ "node" ] ~docv:"NODE" ~doc:"Output node.")

let no_lint_arg =
  Arg.(
    value & flag
    & info [ "no-lint" ] ~doc:"Skip the pre-flight static netlist analyzer.")

let inject_singular_arg =
  Arg.(
    value & opt int 0
    & info [ "inject-singular" ] ~docv:"N"
        ~doc:
          "Testing hook: report a singular Jacobian on the first $(docv) \
           solver attempts, forcing the supervisor down its retry ladder.")

let no_certify_arg =
  Arg.(
    value & flag
    & info [ "no-certify" ]
        ~doc:"Skip the a-posteriori result certification (Solve.Certify).")

let certify_scale_arg =
  Arg.(
    value & opt float 1.0
    & info [ "certify-scale" ] ~docv:"S"
        ~doc:
          "Multiply every certification threshold by $(docv); a tiny value \
           forces a Suspect verdict (exit 4) on any real result, a large \
           one waves marginal results through.")

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:
          "Print one observability line per analysis on stderr: unknown \
           count, stamped-matrix nnz/density/bytes, and Newton/GMRES \
           iteration counts.")

let ordering_arg =
  let mode_conv =
    Arg.enum
      [
        ("natural", Struct.Order.Natural);
        ("amd", Struct.Order.Amd_only);
        ("btf-amd", Struct.Order.Btf_amd);
      ]
  in
  Arg.(
    value & opt mode_conv Struct.Order.Natural
    & info [ "ordering" ] ~docv:"MODE"
        ~doc:
          "Fill-reducing ordering for the sparse LU: $(b,natural) (deck \
           order), $(b,amd) (minimum degree on the symmetrized pattern), or \
           $(b,btf-amd) (block-triangular form with AMD inside each diagonal \
           block). Partial pivoting keeps the factorization exact either \
           way; only fill-in changes.")

let cascade_arg =
  Arg.(
    value & flag
    & info [ "cascade" ]
        ~doc:
          "Run the engine-agnostic PSS cascade (hb, hb-gmres, shooting, \
           tran-fft) instead of bare HB: each engine exhausts its retry \
           ladder before the chain escalates, and the escalation trace is \
           printed with the result.")

let certify_of no_certify scale = if no_certify then None else Some scale

(* analysis options shared by the one-shot subcommands, sweep, optimize
   and client sweep: same flags, same defaults *)
let opt_arg kind default name doc = Arg.(value & opt kind default & info [ name ] ~doc)

let freq_arg =
  opt_arg Arg.(some float) None "freq"
    "hb/shooting fundamental; default: first periodic source."

let harmonics_arg = opt_arg Arg.int 8 "harmonics" "Harmonics to report (hb, shooting)."
let steps_arg = opt_arg Arg.int 128 "steps" "Shooting integration steps per period."
let t_stop_arg = opt_arg Arg.float 1e-6 "t-stop" "Transient stop time (s)."
let dt_arg = opt_arg Arg.float 1e-9 "dt" "Transient time step (s)."
let f_start_arg = opt_arg Arg.float 1e3 "f-start" "AC/noise start frequency."
let f_stop_arg = opt_arg Arg.float 1e9 "f-stop" "AC/noise stop frequency."
let ppd_arg = opt_arg Arg.int 10 "points-per-decade" "AC frequency resolution."

let json_arg =
  Arg.(value & flag & info [ "json" ] ~doc:"Machine-readable JSON-lines output.")

let lint_cmd =
  let doc = "statically analyze a deck without running it (RF DRC)" in
  let strict =
    Arg.(value & flag & info [ "strict" ] ~doc:"Treat warnings as errors.")
  in
  let run path json strict =
    let deck = preflight ~verb:"lint" ~lint:false path (read_deck path) in
    let ds = Lint.run deck.Pipeline.netlist deck.Pipeline.directives in
    if json then begin
      if ds <> [] then print_endline (Lint.report_json ~path ds)
    end
    else begin
      let text, _ = Lint.report ~path ds in
      if ds <> [] then print_endline text;
      Printf.printf "%s: %s\n" path (Lint.summary ds)
    end;
    let _, fatal = Lint.report ~path ~strict ds in
    if fatal then exit exit_lint
  in
  Cmd.v (Cmd.info "lint" ~doc) Term.(const run $ deck_arg $ json_arg $ strict)

(* rfsim analyze: the structural pre-analysis as a first-class report.
   Parses and compiles the deck but never factors real values: everything
   here is decided by the sparsity pattern alone (the fill probe factors a
   synthetic nonsingular value assignment on the exact engine pattern).
   Exit 2 when the pattern proves the system singular (L021/L022). *)
let analyze_cmd =
  let doc = "structural pre-analysis: DM rank, BTF blocks, ordering fill-in" in
  let run path json =
    let deck = preflight ~verb:"analyze" ~lint:false path (read_deck path) in
    let c = Pipeline.circuit deck in
    let n = Mna.size c in
    let sg = Mna.structural_g c
    and sc = Mna.structural_c c
    and su = Mna.structural_gc c in
    let rank_g = Mna.structural_rank_g c
    and rank_u = Mna.structural_rank_gc c in
    (* the pattern the engines actually factor: union + forced diagonal,
       filled with a deterministic nonsingular value assignment so the
       measured fill is that of a real (pivoted) factorization *)
    let x0 = La.Vec.create n in
    let factored = La.Sparse.add (Mna.jac_g_sparse c x0) (Mna.jac_c_sparse c x0) in
    let rp, ci, _ = La.Sparse.csr factored in
    let vals = Array.make (Array.length ci) 0.0 in
    for i = 0 to n - 1 do
      for k = rp.(i) to rp.(i + 1) - 1 do
        vals.(k) <-
          1.0 +. (0.01 *. float_of_int (((i * 31) + (ci.(k) * 17)) mod 97))
      done
    done;
    let probe =
      La.Sparse.of_csr ~rows:n ~cols:n ~row_ptr:rp ~col_idx:ci ~values:vals
    in
    let blocks = (Struct.Order.compute_info Struct.Order.Btf_amd probe).Struct.Order.blocks in
    let fill mode =
      if rank_u < n then None
      else
        let perm = Struct.Order.compute mode probe in
        match La.Sparse_lu.factor ?perm probe with
        | _ -> Some (La.Sparse_lu.fill_nnz ())
        | exception _ -> None
    in
    let fills =
      List.map
        (fun (name, m) -> (name, fill m))
        [
          ("natural", Struct.Order.Natural);
          ("amd", Struct.Order.Amd_only);
          ("btf-amd", Struct.Order.Btf_amd);
        ]
    in
    let ds = Lint.Diagnostic.sort (Lint.Checks.mna_checks c) in
    if json then begin
      let fill_json =
        String.concat ","
          (List.map
             (fun (name, f) ->
               Printf.sprintf "%S:%s"
                 name
                 (match f with Some v -> string_of_int v | None -> "null"))
             fills)
      in
      Printf.printf
        "{\"analysis\":\"structure\",\"path\":%S,\"unknowns\":%d,\
         \"nnz_g\":%d,\"nnz_c\":%d,\"nnz_union\":%d,\"nnz_factored\":%d,\
         \"rank_g\":%d,\"rank_union\":%d,\"structurally_singular\":%b,\
         \"btf_blocks\":[%s],\"fill\":{%s}}\n"
        path n (La.Sparse.nnz sg) (La.Sparse.nnz sc) (La.Sparse.nnz su)
        (La.Sparse.nnz probe) rank_g rank_u (rank_g < n)
        (String.concat "," (List.map string_of_int blocks))
        fill_json;
      List.iter (fun d -> print_endline (Lint.Diagnostic.to_json ~path d)) ds
    end
    else begin
      Printf.printf "structural analysis: %s\n" path;
      Printf.printf "  unknowns         %d\n" n;
      Printf.printf "  nnz              G %d   C %d   G+C %d   factored %d\n"
        (La.Sparse.nnz sg) (La.Sparse.nnz sc) (La.Sparse.nnz su)
        (La.Sparse.nnz probe);
      Printf.printf "  structural rank  G %d/%d   G+C %d/%d%s\n" rank_g n rank_u
        n
        (if rank_g < n then "   STRUCTURALLY SINGULAR" else "");
      (if blocks <> [] then
         let largest = List.fold_left max 0 blocks in
         Printf.printf "  btf blocks       %d (largest %d)\n"
           (List.length blocks) largest);
      Printf.printf "  fill nnz(L+U)    %s\n"
        (String.concat "   "
           (List.map
              (fun (name, f) ->
                Printf.sprintf "%s %s" name
                  (match f with Some v -> string_of_int v | None -> "-"))
              fills));
      List.iter (fun d -> print_endline (Lint.Diagnostic.to_string ~path d)) ds;
      Printf.printf "structure: %s\n"
        (if ds = [] then "clean" else Lint.summary ds)
    end;
    if Lint.Diagnostic.has_errors ds then exit exit_lint
  in
  Cmd.v (Cmd.info "analyze" ~doc) Term.(const run $ deck_arg $ json_arg)

let dc_cmd =
  let doc = "DC operating point" in
  let run path no_lint inject no_certify scale stats ordering =
    let _, c = one_job ~ordering ~no_lint ~stats path in
    arm_injection ~engine:"dc" inject;
    print_dc c (analysis ?certify:(certify_of no_certify scale) c Pipeline.Dc)
  in
  Cmd.v (Cmd.info "dc" ~doc)
    Term.(
      const run $ deck_arg $ no_lint_arg $ inject_singular_arg $ no_certify_arg
      $ certify_scale_arg $ stats_arg $ ordering_arg)

let tran_cmd =
  let doc = "transient analysis (CSV on stdout)" in
  let run path no_lint t_stop dt node no_certify scale stats ordering =
    let _, c = one_job ~ordering ~no_lint ~stats path in
    print_tran c ~nodes:[ node ]
      (analysis ?certify:(certify_of no_certify scale) ~node c
         (Pipeline.Tran { t_stop; dt }))
  in
  Cmd.v (Cmd.info "tran" ~doc)
    Term.(
      const run $ deck_arg $ no_lint_arg $ t_stop_arg $ dt_arg $ node_arg "out"
      $ no_certify_arg $ certify_scale_arg $ stats_arg $ ordering_arg)

let ac_cmd =
  let doc = "AC small-signal sweep (CSV on stdout)" in
  let source = Arg.(value & opt string "V1" & info [ "source" ] ~doc:"Driving source name.") in
  let run path no_lint f_start f_stop source node stats ordering =
    let _, c = one_job ~ordering ~no_lint ~stats path in
    let freqs = Ac.log_freqs ~f_start ~f_stop ~points_per_decade:10 in
    print_ac c ~node (analysis ~node c (Pipeline.Ac { source = Some source; freqs }))
  in
  Cmd.v (Cmd.info "ac" ~doc)
    Term.(
      const run $ deck_arg $ no_lint_arg $ f_start_arg $ f_stop_arg $ source
      $ node_arg "out"
      $ stats_arg $ ordering_arg)

let noise_cmd =
  let doc = "output-noise PSD sweep (CSV on stdout)" in
  let run path no_lint f_start f_stop node stats ordering =
    let _, c = one_job ~ordering ~no_lint ~stats path in
    let freqs = Ac.log_freqs ~f_start ~f_stop ~points_per_decade:10 in
    print_noise c ~freqs (analysis c (Pipeline.Noise { node; freqs }))
  in
  Cmd.v (Cmd.info "noise" ~doc)
    Term.(
      const run $ deck_arg $ no_lint_arg $ f_start_arg $ f_stop_arg $ node_arg "out"
      $ stats_arg $ ordering_arg)

let hb_cmd =
  let doc = "harmonic-balance periodic steady state" in
  let freq = Arg.(value & opt float 1e6 & info [ "freq" ] ~doc:"Fundamental frequency.") in
  let solver =
    let solver_conv =
      Arg.enum [ ("direct", Rf.Hb.Direct); ("gmres", Rf.Hb.Matrix_free_gmres) ]
    in
    Arg.(
      value & opt solver_conv Rf.Hb.Direct
      & info [ "solver" ] ~docv:"SOLVER"
          ~doc:
            "Inner linear solver for the HB Newton steps: $(b,direct) \
             (dense flattened Jacobian) or $(b,gmres) (matrix-free with the \
             per-harmonic complex-sparse block preconditioner).")
  in
  let run path no_lint freq harmonics node inject cascade no_certify scale stats
      ordering solver =
    let _, c = one_job ~ordering ~no_lint ~stats path in
    arm_injection ~engine:"hb" inject;
    let certify = certify_of no_certify scale in
    if cascade then
      print_cascade ~freq ~node ~harmonics
        (analysis ?certify ~node c (Pipeline.Pss { freq = Some freq; harmonics }))
    else
      print_hb c ~node ~harmonics
        (analysis ?certify ~node c (Pipeline.Hb { freq = Some freq; harmonics; solver }))
  in
  Cmd.v (Cmd.info "hb" ~doc)
    Term.(
      const run $ deck_arg $ no_lint_arg $ freq $ harmonics_arg $ node_arg "out"
      $ inject_singular_arg $ cascade_arg $ no_certify_arg $ certify_scale_arg
      $ stats_arg $ ordering_arg $ solver)

let shooting_cmd =
  let doc = "shooting-method periodic steady state" in
  let freq = Arg.(value & opt float 1e6 & info [ "freq" ] ~doc:"Fundamental frequency.") in
  let run path no_lint freq steps harmonics node inject no_certify scale stats ordering =
    let _, c = one_job ~ordering ~no_lint ~stats path in
    arm_injection ~engine:"shooting" inject;
    print_shooting c ~freq ~node ~harmonics
      (analysis ?certify:(certify_of no_certify scale) ~node c
         (Pipeline.Shooting { freq = Some freq; steps }))
  in
  Cmd.v (Cmd.info "shooting" ~doc)
    Term.(
      const run $ deck_arg $ no_lint_arg $ freq $ steps_arg $ harmonics_arg
      $ node_arg "out"
      $ inject_singular_arg $ no_certify_arg $ certify_scale_arg $ stats_arg
      $ ordering_arg)

let mmft_cmd =
  let doc = "mixed frequency-time quasi-periodic steady state" in
  let f1 = Arg.(value & opt float 1e3 & info [ "f1" ] ~doc:"Slow fundamental (Hz).") in
  let f2 = Arg.(value & opt float 1e6 & info [ "f2" ] ~doc:"Fast fundamental (Hz).") in
  let k =
    Arg.(
      value & opt int 3
      & info [ "slow-harmonics" ] ~doc:"Slow-axis Fourier order K (2K+1 phases).")
  in
  let run path no_lint f1 f2 slow_harmonics node stats ordering =
    let _, c = one_job ~ordering ~no_lint ~stats path in
    print_mmft c ~f1 ~f2 ~slow_harmonics ~node
      (analysis ~node c (Pipeline.Mmft { f1; f2; slow_harmonics }))
  in
  Cmd.v (Cmd.info "mmft" ~doc)
    Term.(
      const run $ deck_arg $ no_lint_arg $ f1 $ f2 $ k $ node_arg "out" $ stats_arg
      $ ordering_arg)

(* ------------------------------------------------------------- sweep -- *)

(* Sweep-spec arguments shared verbatim between `rfsim sweep` (offline)
   and `rfsim client sweep` (via the service): same flags, same defaults,
   so a sweep moved between the two modes keeps its identity — and its
   run hash, which is what lets the journal resume across them. *)
let param_args =
  Arg.(
    value & opt_all string []
    & info [ "param" ] ~docv:"AXIS"
        ~doc:
          "Sweep axis: $(i,NAME=value), $(i,NAME=v1,v2,...), or \
           $(i,NAME=lo:hi:lin|log:n). Repeatable; axes multiply.")

let corner_args =
  Arg.(
    value & opt_all string []
    & info [ "corner" ] ~docv:"CORNER"
        ~doc:"Named corner $(i,NAME:P1=v1,P2=v2,...). Repeatable.")

let analysis_arg =
  Arg.(
    value & opt string "dc"
    & info [ "analysis" ] ~docv:"LIST"
        ~doc:"Comma-separated analyses: dc, ac, tran, hb, shooting.")

let make_defaults ~freq ~harmonics ~steps ~t_stop ~dt ~f_start ~f_stop ~ppd =
  {
    Batch.Spec.d_f_start = f_start;
    d_f_stop = f_stop;
    d_points_per_decade = ppd;
    d_t_stop = t_stop;
    d_dt = dt;
    d_freq = freq;
    d_harmonics = harmonics;
    d_steps = steps;
  }

let cache_dir_arg =
  Arg.(
    value & opt string ".rfsim-cache"
    & info [ "cache-dir" ] ~docv:"DIR" ~doc:"Result cache directory.")

let no_cache_arg =
  Arg.(value & flag & info [ "no-cache" ] ~doc:"Bypass the result cache entirely.")

let telemetry_arg =
  Arg.(
    value & opt (some string) None
    & info [ "telemetry" ] ~docv:"FILE"
        ~doc:"Write per-job telemetry events (with timings) as JSONL.")

let job_iters_arg =
  Arg.(
    value & opt (some int) None
    & info [ "job-iters" ] ~docv:"N"
        ~doc:"Total Newton/step iteration budget per job.")

let job_wall_arg =
  Arg.(
    value & opt (some float) None
    & info [ "job-wall" ] ~docv:"SECONDS" ~doc:"Wall-clock budget per job.")

let budget_of job_iters job_wall =
  match (job_iters, job_wall) with
  | None, None -> None
  | _ ->
      let d = Solve.Supervisor.default_budget in
      let total =
        Option.value job_iters ~default:d.Solve.Supervisor.total_iterations
      in
      (* the per-attempt cap must scale with the total: step-count-based
         engines (tran) spend all their iterations in one attempt, and a
         stale 400-iteration attempt cap would kill any long job the
         moment --job-iters is passed *)
      Some
        {
          Solve.Supervisor.attempt_iterations =
            max total d.Solve.Supervisor.attempt_iterations;
          total_iterations = total;
          wall_clock = Option.value job_wall ~default:d.Solve.Supervisor.wall_clock;
        }

let job_deadline_arg =
  Arg.(
    value & opt (some float) None
    & info [ "job-deadline" ] ~docv:"SECONDS"
        ~doc:
          "Per-job wall-clock deadline: a job past it is quarantined as a \
           typed deadline-exceeded failure instead of wedging its worker \
           domain.")

let grace_arg =
  Arg.(
    value & opt float 2.0
    & info [ "grace" ] ~docv:"SECONDS"
        ~doc:
          "Drain budget after SIGINT/SIGTERM: in-flight jobs get this \
           long to finish before being killed and left for --resume.")

let jobs_arg =
  Arg.(value & opt int 1 & info [ "jobs" ] ~docv:"N" ~doc:"Worker domains (parallel jobs).")

let resume_arg =
  Arg.(
    value & opt (some string) None
    & info [ "resume" ] ~docv:"DIR"
        ~doc:
          "Resume an interrupted or crashed run from the run journal in cache \
           directory $(docv) (implies $(b,--cache-dir) $(docv)): journaled \
           jobs are replayed without re-execution, pending ones run, and the \
           result is byte-identical to an uninterrupted run.")

let inject_crash_arg =
  Arg.(
    value & opt (some int) None
    & info [ "inject-crash-after" ] ~docv:"N"
        ~doc:
          "Testing hook: hard-kill the process (exit 66, no cleanup) once \
           $(docv) jobs have completed — the journal must make the run \
           resumable.")

let inject_interrupt_arg =
  Arg.(
    value & opt (some int) None
    & info [ "inject-interrupt-after" ] ~docv:"N"
        ~doc:
          "Testing hook: simulate SIGINT/SIGTERM delivery once $(docv) jobs \
           have completed, exercising the graceful drain deterministically.")

let inject_stall_arg =
  Arg.(
    value & opt (some int) None
    & info [ "inject-stall" ] ~docv:"JOB"
        ~doc:
          "Testing hook: wedge job $(docv) in a busy loop so \
           --job-deadline (or the drain clamp) must quarantine it.")

(* process-level chaos for the recovery tests *)
let arm_chaos ?stall_job ?accept_stall crash_after interrupt_after =
  Solve.Faults.arm_process
    { Solve.Faults.crash_after; interrupt_after; stall_job; accept_stall }

(* Run bookkeeping shared by sweep and optimize. --resume DIR implies
   --cache-dir DIR (the journal lives with the cache it replays
   through); the journal doubles as the in-progress marker. *)
let open_run ~what ~cache_dir ~no_cache ~resume ~run_hash ~total =
  let cache = Batch.Cache.create ~enabled:(not no_cache) ~dir:cache_dir () in
  let replay =
    if resume = None then None
    else begin
      let r = Batch.Journal.load ~dir:cache_dir ~run:run_hash in
      if r = None then
        Printf.eprintf "%s: no journal for this run under %s; running from scratch\n"
          what cache_dir;
      r
    end
  in
  let journal =
    if no_cache then None
    else Some (Batch.Journal.create ~dir:cache_dir ~run:run_hash ~total)
  in
  (cache, replay, journal)

let run_cache_dir ~what ~cache_dir ~no_cache resume =
  if resume <> None && no_cache then begin
    Printf.eprintf "%s: --resume needs the cache (drop --no-cache)\n" what;
    exit exit_parse
  end;
  Option.value resume ~default:cache_dir

(* delete the journal on completion, keep it (resumable) on interrupt *)
let close_run ~interrupted = function
  | None -> ()
  | Some j -> if interrupted then Batch.Journal.close j else Batch.Journal.finish_run j

let print_gc oc (gs : Batch.Cache.gc_stats) =
  Printf.fprintf oc
    "cache gc: examined=%d evicted=%d evicted_bytes=%d pinned=%d entries=%d \
     bytes=%d\n"
    gs.Batch.Cache.gc_examined gs.Batch.Cache.gc_evicted gs.Batch.Cache.gc_evicted_bytes
    gs.Batch.Cache.gc_pinned gs.Batch.Cache.gc_entries gs.Batch.Cache.gc_bytes

let sweep_cmd =
  let doc = "parameter sweep: expand, run in parallel, cache, report JSONL" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Expands the cartesian product of $(b,--corner) sets, $(b,--param) \
         value axes and the $(b,--analysis) list into jobs, runs them across \
         $(b,--jobs) domains, and prints one JSON line per job on stdout in \
         job order. The report carries no wall-clock fields: runs with \
         different $(b,--jobs) values are byte-identical. Results are \
         memoized in a content-addressed cache keyed on the deck text, the \
         parameter bindings and the engine options; telemetry (with \
         timings) goes to $(b,--telemetry) as JSONL.";
    ]
  in
  let cache_max_bytes_arg =
    Arg.(
      value & opt (some int) None
      & info [ "cache-max-bytes" ] ~docv:"BYTES"
          ~doc:"Evict least-recently-used cache entries past this size after \
                the sweep (journal-referenced entries are never evicted).")
  in
  let cache_max_entries_arg =
    Arg.(
      value & opt (some int) None
      & info [ "cache-max-entries" ] ~docv:"N"
          ~doc:"Evict least-recently-used cache entries past this count \
                after the sweep.")
  in
  let measure_args =
    Arg.(
      value & opt_all string []
      & info [ "measure" ] ~docv:"LIST"
          ~doc:
            "Append a CSV trend table after the JSONL report: one row per \
             job, one column per measure (comma-separated, repeatable), \
             e.g. $(i,gain_db\\@1meg,bw3db,stopband\\@2meg..10meg). \
             Unevaluable cells (failed job, wrong analysis, off-grid \
             target) are left empty.")
  in
  let run path params corners analyses jobs node freq harmonics steps t_stop dt
      f_start f_stop ppd cache_dir no_cache telemetry_path job_iters job_wall
      no_lint ordering stats resume job_deadline grace cache_max_bytes
      cache_max_entries inject_crash inject_interrupt inject_stall measures =
    let deck_text = read_deck path in
    let spec =
      try
        let axes = List.map Batch.Spec.parse_axis params in
        let corners = List.map Batch.Spec.parse_corner corners in
        let defaults =
          make_defaults ~freq ~harmonics ~steps ~t_stop ~dt ~f_start ~f_stop
            ~ppd
        in
        let analyses = Batch.Spec.parse_analyses defaults analyses in
        (axes, corners, analyses)
      with Batch.Spec.Spec_error msg ->
        Printf.eprintf "sweep: %s\n" msg;
        exit exit_parse
    in
    let axes, corners, analyses = spec in
    (* measures parse before any numerics run: a typo'd label must not
       cost a sweep *)
    let measure_list =
      try
        List.concat_map
          (fun s ->
            List.filter_map
              (fun t ->
                if String.trim t = "" then None else Some (Opt.Measure.parse t))
              (String.split_on_char ',' s))
          measures
      with Opt.Measure.Parse_error msg ->
        Printf.eprintf "sweep: %s\n" msg;
        exit exit_parse
    in
    (* pre-flight lint of the first sweep point: swept parameters may have
       no .param default in the deck, so the nominal parse needs them *)
    if not no_lint then begin
      let overrides =
        List.map
          (fun (a : Batch.Spec.axis) -> (a.Batch.Spec.a_name, a.Batch.Spec.a_values.(0)))
          axes
      in
      ignore (preflight ~verb:"sweep" ~overrides ~lint:true path deck_text)
    end;
    let job_list = Batch.Expand.expand ~axes ~corners ~analyses in
    let total = List.length job_list in
    let cache_dir = run_cache_dir ~what:"sweep" ~cache_dir ~no_cache resume in
    let cfg =
      {
        Batch.Runner.deck_text;
        node;
        domains = max 1 jobs;
        budget = budget_of job_iters job_wall;
        tol_scale = 1.0;
        ordering;
        stats;
        deadline = job_deadline;
        grace;
      }
    in
    arm_chaos ?stall_job:inject_stall inject_crash inject_interrupt;
    let cache, replay, journal =
      open_run ~what:"sweep" ~cache_dir ~no_cache ~resume
        ~run_hash:(Batch.Runner.run_hash cfg job_list) ~total
    in
    let telemetry = Batch.Telemetry.create ?log_path:telemetry_path ~total () in
    install_drain_signals ~grace;
    let outcome = Batch.Runner.run cfg ~cache ~telemetry ?journal ?replay job_list in
    let results = outcome.Batch.Runner.results in
    close_run ~interrupted:outcome.Batch.Runner.interrupted journal;
    (* bounded cache: gc after the run, pinning every key a still-live
       journal references (this run's, if interrupted, and any other
       in-progress run sharing the directory) *)
    (match (cache_max_bytes, cache_max_entries) with
    | None, None -> ()
    | max_bytes, max_entries ->
        let pins = Batch.Journal.referenced_keys ~dir:cache_dir in
        let gs =
          Batch.Cache.gc ~dir:cache_dir ?max_bytes ?max_entries
            ~pinned:(fun k -> Hashtbl.mem pins k)
            ()
        in
        Batch.Telemetry.emit telemetry ~job:(-1) ~event:"cache-gc-evict"
          [
            ("evicted", Batch.Json.int gs.Batch.Cache.gc_evicted);
            ("evicted_bytes", Batch.Json.int gs.Batch.Cache.gc_evicted_bytes);
            ("pinned", Batch.Json.int gs.Batch.Cache.gc_pinned);
          ];
        print_gc stderr gs);
    Batch.Telemetry.close telemetry;
    Batch.Report.print_all stdout results;
    (* --measure: deterministic CSV trend table after the report — same
       job order, canonical measure labels as headers, %.9g cells, no
       wall-clock fields, so it diffs clean like the report itself *)
    (match measure_list with
    | [] -> ()
    | ms ->
        let param_names =
          List.sort_uniq compare
            (List.concat_map
               (fun (j : Batch.Expand.job) -> List.map fst j.Batch.Expand.params)
               job_list)
        in
        print_endline
          (String.concat ","
             (("job" :: "corner" :: param_names)
             @ List.map Opt.Measure.to_string ms));
        Array.iter
          (function
            | None -> ()
            | Some (r : Batch.Runner.job_result) ->
                let j = r.Batch.Runner.job in
                let pcell name =
                  match List.assoc_opt name j.Batch.Expand.params with
                  | Some v -> Printf.sprintf "%.9g" v
                  | None -> ""
                in
                let payload = Batch.Json.parse r.Batch.Runner.payload in
                let mcell m =
                  match Option.bind payload (fun p -> Opt.Measure.eval m p) with
                  | Some v -> Printf.sprintf "%.9g" v
                  | None -> ""
                in
                print_endline
                  (String.concat ","
                     ((string_of_int j.Batch.Expand.id
                      :: j.Batch.Expand.corner
                      :: List.map pcell param_names)
                     @ List.map mcell ms)))
          results);
    if outcome.Batch.Runner.interrupted then
      print_endline (Batch.Report.interrupted_marker results);
    Printf.eprintf "%s\n" (Batch.Report.summary results (Batch.Cache.stats cache));
    if outcome.Batch.Runner.interrupted then exit exit_interrupted;
    if not (Batch.Report.all_ok results) then exit exit_no_convergence
  in
  Cmd.v (Cmd.info "sweep" ~doc ~man)
    Term.(
      const run $ deck_arg $ param_args $ corner_args $ analysis_arg $ jobs_arg
      $ node_arg "out" $ freq_arg $ harmonics_arg $ steps_arg $ t_stop_arg
      $ dt_arg $ f_start_arg $ f_stop_arg $ ppd_arg $ cache_dir_arg
      $ no_cache_arg $ telemetry_arg
      $ job_iters_arg $ job_wall_arg $ no_lint_arg $ ordering_arg $ stats_arg
      $ resume_arg $ job_deadline_arg $ grace_arg $ cache_max_bytes_arg
      $ cache_max_entries_arg $ inject_crash_arg $ inject_interrupt_arg
      $ inject_stall_arg $ measure_args)

(* ---------------------------------------------------------- optimize -- *)

let optimize_cmd =
  let doc = "closed-loop design optimization: drive cached sweep jobs to a spec" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Searches the box given by $(b,--var) bindings with a \
         deterministic gradient-free optimizer; every candidate point is \
         one ordinary sweep job ($(b,--analysis)) scored against the \
         $(b,--spec) clauses. Candidates ride the shared result cache \
         (revisited points are free; a warm rerun is nearly all hits) and \
         the run journal ($(b,--resume) continues a killed optimization \
         mid-trajectory). Stdout carries one JSON trace line per eval, a \
         summary, the best point and its per-clause scorecard — all free \
         of wall-clock and cache-provenance fields, so cold and warm runs \
         are byte-identical. Exit 0 when the spec is met, 7 when the best \
         point still fails a clause, 5 on interrupt.";
    ]
  in
  let var_args =
    Arg.(
      value & opt_all string []
      & info [ "var" ] ~docv:"VAR"
          ~doc:
            "Design variable $(i,NAME=LO:HI[:INIT]) bound over a box \
             ($(i,INIT) defaults to the midpoint; deck number grammar). \
             Repeatable.")
  in
  let spec_args =
    Arg.(
      value & opt_all string []
      & info [ "spec" ] ~docv:"CLAUSE"
          ~doc:
            "Spec clause: $(i,minimize:M), $(i,maximize:M), \
             $(i,target:M=V~TOL), $(i,M>=B) or $(i,M<=B), where $(i,M) is \
             a measure such as $(i,gain_db\\@1meg), $(i,bw3db), \
             $(i,ripple\\@1k..100k) or $(i,stopband\\@2meg..10meg). \
             Repeatable; at most one goal clause.")
  in
  let single_analysis_arg =
    Arg.(
      value & opt string "ac"
      & info [ "analysis" ] ~docv:"ANALYSIS"
          ~doc:"Analysis each candidate runs: dc, ac, tran, hb or shooting.")
  in
  let algo_arg =
    Arg.(
      value & opt string "nelder-mead"
      & info [ "algo" ] ~docv:"ALGO"
          ~doc:"Optimizer: $(b,nelder-mead) or $(b,pattern) (compass search).")
  in
  let max_evals_arg =
    Arg.(
      value & opt int 200
      & info [ "max-evals" ] ~docv:"N" ~doc:"Hard evaluation budget.")
  in
  let tol_x_arg =
    Arg.(
      value & opt float 1e-3
      & info [ "tol-x" ] ~docv:"REL"
          ~doc:"Relative (to the box width) convergence tolerance.")
  in
  let tol_f_arg =
    Arg.(
      value & opt float 1e-9
      & info [ "tol-f" ] ~docv:"REL"
          ~doc:"Relative objective-spread tolerance (Nelder-Mead).")
  in
  let init_step_arg =
    Arg.(
      value & opt float 0.25
      & info [ "init-step" ] ~docv:"FRAC"
          ~doc:"Initial simplex/pattern step as a fraction of the box.")
  in
  let weight_arg =
    Arg.(
      value & opt float Opt.Spec.default_weight
      & info [ "penalty-weight" ] ~docv:"W"
          ~doc:"Constraint-violation penalty weight.")
  in
  let run path vars specs analysis node freq harmonics steps t_stop dt f_start
      f_stop ppd algo max_evals tol_x tol_f init_step weight cache_dir no_cache
      telemetry_path job_iters job_wall no_lint ordering stats resume
      job_deadline grace inject_crash inject_interrupt =
    let deck_text = read_deck path in
    let vars, spec =
      try
        let vars = List.map Opt.Loop.parse_var vars in
        if vars = [] then begin
          Printf.eprintf "optimize: at least one --var is required\n";
          exit exit_parse
        end;
        let names = List.map (fun v -> v.Opt.Loop.v_name) vars in
        if List.length (List.sort_uniq compare names) <> List.length names then begin
          Printf.eprintf "optimize: duplicate --var name\n";
          exit exit_parse
        end;
        if specs = [] then begin
          Printf.eprintf "optimize: at least one --spec clause is required\n";
          exit exit_parse
        end;
        (vars, Opt.Spec.of_strings specs)
      with Opt.Loop.Parse_error msg ->
        Printf.eprintf "optimize: %s\n" msg;
        exit exit_parse
    in
    let analysis =
      try
        let defaults =
          make_defaults ~freq ~harmonics ~steps ~t_stop ~dt ~f_start ~f_stop
            ~ppd
        in
        match Batch.Spec.parse_analyses defaults analysis with
        | [ a ] -> a
        | _ ->
            Printf.eprintf "optimize: exactly one --analysis\n";
            exit exit_parse
      with Batch.Spec.Spec_error msg ->
        Printf.eprintf "optimize: %s\n" msg;
        exit exit_parse
    in
    (* every spec measure must read the payload kind the analysis
       produces — a mismatch would make every candidate unevaluable *)
    let kind =
      match analysis with
      | Batch.Spec.Dc -> "dc"
      | Batch.Spec.Ac _ -> "ac"
      | Batch.Spec.Tran _ -> "tran"
      | Batch.Spec.Hb _ | Batch.Spec.Shooting _ -> "hb"
    in
    List.iter
      (fun m ->
        let want = Opt.Measure.analysis_of m in
        if want <> kind then begin
          Printf.eprintf
            "optimize: measure %s reads %s payloads but --analysis is %s\n"
            (Opt.Measure.to_string m) want
            (Batch.Spec.analysis_name analysis);
          exit exit_parse
        end)
      (Opt.Spec.measures spec);
    let algo =
      match Opt.Loop.algo_of_string algo with
      | Some a -> a
      | None ->
          Printf.eprintf
            "optimize: unknown --algo %s (want nelder-mead or pattern)\n" algo;
          exit exit_parse
    in
    (* pre-flight lint at the initial point: optimized parameters may
       have no .param default in the deck *)
    if not no_lint then begin
      let overrides =
        List.map (fun v -> (v.Opt.Loop.v_name, v.Opt.Loop.v_init)) vars
      in
      ignore (preflight ~verb:"optimize" ~overrides ~lint:true path deck_text)
    end;
    let cache_dir = run_cache_dir ~what:"optimize" ~cache_dir ~no_cache resume in
    let cfg =
      {
        Batch.Runner.deck_text;
        node;
        domains = 1;
        budget = budget_of job_iters job_wall;
        tol_scale = 1.0;
        ordering;
        stats;
        deadline = job_deadline;
        grace;
      }
    in
    arm_chaos inject_crash inject_interrupt;
    let options = { Opt.Optim.max_evals; tol_x; tol_f; init_step } in
    let cache, replay, journal =
      open_run ~what:"optimize" ~cache_dir ~no_cache ~resume
        ~run_hash:(Opt.Loop.run_hash cfg ~spec ~analysis ~algo ~options ~weight vars)
        ~total:max_evals
    in
    let telemetry = Batch.Telemetry.create ?log_path:telemetry_path ~total:max_evals () in
    install_drain_signals ~grace;
    let outcome =
      Opt.Loop.run cfg ~cache ~telemetry ?journal ?replay ~emit:print_endline
        ~spec ~weight ~algo ~options ~analysis vars
    in
    close_run ~interrupted:outcome.Opt.Loop.o_interrupted journal;
    Batch.Telemetry.close telemetry;
    let reason, iterations =
      match outcome.Opt.Loop.o_result with
      | Some r -> (Opt.Optim.reason_to_string r.Opt.Optim.reason, r.Opt.Optim.iterations)
      | None -> ("interrupted", 0)
    in
    let module J = Batch.Json in
    let line key fields = print_endline (J.obj [ (key, J.obj fields) ]) in
    line "summary"
      [
        ("algo", J.str (Opt.Loop.algo_to_string algo));
        ("reason", J.str reason);
        ("evals", J.int outcome.Opt.Loop.o_evals);
        ("iterations", J.int iterations);
      ];
    Option.iter
      (fun (b : Opt.Loop.eval) ->
        let score = b.Opt.Loop.e_score in
        line "best"
          [
            ("eval", J.int b.Opt.Loop.e_index);
            ("params", Batch.Expand.params_json b.Opt.Loop.e_params);
            ("penalty", J.num score.Opt.Spec.penalty);
            ("met", J.bool score.Opt.Spec.met);
          ];
        List.iter
          (fun (v : Opt.Spec.verdict) ->
            line "verdict"
              ([
                 ("clause", J.str v.Opt.Spec.v_clause);
                 ("value", Option.fold ~none:"null" ~some:J.num v.Opt.Spec.v_value);
                 ("pass", J.bool v.Opt.Spec.v_pass);
               ]
              @ Option.fold ~none:[] ~some:(fun m -> [ ("margin", J.num m) ]) v.Opt.Spec.v_margin))
          score.Opt.Spec.verdicts)
      outcome.Opt.Loop.o_best;
    let cs = Batch.Cache.stats cache in
    Printf.eprintf
      "optimize: algo=%s evals=%d reason=%s | cache: hits=%d misses=%d \
       stores=%d\n"
      (Opt.Loop.algo_to_string algo)
      outcome.Opt.Loop.o_evals reason cs.Batch.Cache.hits cs.Batch.Cache.misses
      cs.Batch.Cache.stores;
    if outcome.Opt.Loop.o_interrupted then exit exit_interrupted;
    match outcome.Opt.Loop.o_best with
    | Some b when b.Opt.Loop.e_score.Opt.Spec.met -> ()
    | _ -> exit exit_spec
  in
  Cmd.v (Cmd.info "optimize" ~doc ~man)
    Term.(
      const run $ deck_arg $ var_args $ spec_args $ single_analysis_arg
      $ node_arg "out" $ freq_arg $ harmonics_arg $ steps_arg $ t_stop_arg
      $ dt_arg $ f_start_arg $ f_stop_arg $ ppd_arg $ algo_arg $ max_evals_arg
      $ tol_x_arg $ tol_f_arg $ init_step_arg $ weight_arg $ cache_dir_arg
      $ no_cache_arg $ telemetry_arg $ job_iters_arg $ job_wall_arg
      $ no_lint_arg $ ordering_arg $ stats_arg $ resume_arg $ job_deadline_arg
      $ grace_arg $ inject_crash_arg $ inject_interrupt_arg)

(* ------------------------------------------------------------- cache -- *)

let cache_cmd =
  let doc = "inspect and bound the sweep result cache" in
  let dir_arg =
    Arg.(
      value & opt string ".rfsim-cache"
      & info [ "cache-dir" ] ~docv:"DIR" ~doc:"Result cache directory.")
  in
  let stats_cmd =
    let doc = "report cache entry count, bytes on disk, and live journals" in
    let run dir =
      let entries, bytes = Batch.Cache.disk_usage ~dir in
      Printf.printf "cache: dir=%s entries=%d bytes=%d journals=%d\n" dir
        entries bytes
        (Batch.Journal.count ~dir)
    in
    Cmd.v (Cmd.info "stats" ~doc) Term.(const run $ dir_arg)
  in
  let gc_cmd =
    let doc = "evict least-recently-used entries down to the given caps" in
    let max_bytes =
      Arg.(
        value & opt (some int) None
        & info [ "max-bytes" ] ~docv:"BYTES" ~doc:"Byte cap (omit: unlimited).")
    in
    let max_entries =
      Arg.(
        value & opt (some int) None
        & info [ "max-entries" ] ~docv:"N" ~doc:"Entry cap (omit: unlimited).")
    in
    let run dir max_bytes max_entries =
      let pins = Batch.Journal.referenced_keys ~dir in
      let gs =
        Batch.Cache.gc ~dir ?max_bytes ?max_entries
          ~pinned:(fun k -> Hashtbl.mem pins k)
          ()
      in
      print_gc stdout gs
    in
    Cmd.v (Cmd.info "gc" ~doc) Term.(const run $ dir_arg $ max_bytes $ max_entries)
  in
  Cmd.group
    (Cmd.info "cache" ~doc
       ~man:
         [
           `S Manpage.s_description;
           `P
             "The sweep cache is content-addressed and grows without bound \
              unless gc'd. $(b,gc) evicts oldest-file-time-first (a cache \
              hit refreshes an entry's time) down to $(b,--max-bytes) / \
              $(b,--max-entries), but never evicts an entry referenced by \
              an in-progress run journal — interrupting a sweep and gc'ing \
              cannot break its --resume.";
         ])
    [ stats_cmd; gc_cmd ]

(* ------------------------------------------------------------- serve -- *)

let socket_arg =
  Arg.(
    value & opt string "rfsim.sock"
    & info [ "socket" ] ~docv:"PATH"
        ~doc:
          "Unix-domain socket path. Keep it short and relative: the \
           kernel caps socket paths around 100 bytes.")

let serve_cmd =
  let doc = "serve sweeps over a Unix-domain socket (resilient daemon)" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Lifts the sweep runner into a long-lived service: clients submit \
         sweeps as line-delimited JSON over $(b,--socket) and stream back \
         job events, report lines and a final summary. Admission is \
         bounded ($(b,--queue-cap) jobs; excess sweeps get a typed \
         $(i,overloaded) refusal, never an unbounded buffer), every \
         completion is journaled durably before it is acknowledged, and \
         SIGTERM drains in-flight jobs under $(b,--grace) before exiting \
         5. After a crash (even kill -9) a restarted server replays \
         journaled jobs on resubmission, so the client's final report is \
         byte-identical to an uninterrupted run.";
    ]
  in
  let queue_cap_arg =
    Arg.(
      value & opt int 64
      & info [ "queue-cap" ] ~docv:"JOBS"
          ~doc:
            "Admission queue capacity in jobs. A sweep only enters if \
             every job fits; otherwise the submit is refused with a \
             typed $(i,overloaded) response.")
  in
  let client_inflight_arg =
    Arg.(
      value & opt int 4
      & info [ "client-inflight" ] ~docv:"N"
          ~doc:"Max concurrent sweeps per client connection.")
  in
  let idle_timeout_arg =
    Arg.(
      value & opt (some float) None
      & info [ "idle-timeout" ] ~docv:"SECONDS"
          ~doc:"Close connections idle this long with no sweep attached.")
  in
  let request_timeout_arg =
    Arg.(
      value & opt float 10.0
      & info [ "request-timeout" ] ~docv:"SECONDS"
          ~doc:
            "Reject connections that leave a frame half-sent this long \
             (slowloris guard).")
  in
  let max_frame_arg =
    Arg.(
      value & opt int Serve.Frame.default_max_frame
      & info [ "max-frame" ] ~docv:"BYTES"
          ~doc:"Largest accepted request frame; larger frames get a \
                typed $(i,frame-too-large) rejection.")
  in
  let inject_accept_stall_arg =
    Arg.(
      value & opt (some int) None
      & info [ "inject-accept-stall" ] ~docv:"N"
          ~doc:
            "Testing hook: close the first $(docv) accepted connections \
             unread, exercising client reconnect/backoff.")
  in
  let run socket workers queue_cap client_inflight cache_dir no_cache
      telemetry_path job_iters job_wall ordering job_deadline grace
      idle_timeout request_timeout max_frame inject_crash inject_interrupt
      inject_stall inject_accept_stall =
    arm_chaos ?stall_job:inject_stall ?accept_stall:inject_accept_stall inject_crash
      inject_interrupt;
    install_drain_signals ~grace;
    let cfg =
      {
        Serve.Server.socket_path = socket;
        workers = max 1 workers;
        queue_cap = max 1 queue_cap;
        client_inflight = max 1 client_inflight;
        cache_dir;
        no_cache;
        telemetry_path;
        ordering;
        budget = budget_of job_iters job_wall;
        job_deadline;
        grace;
        idle_timeout;
        request_timeout =
          (if request_timeout <= 0.0 then None else Some request_timeout);
        max_frame;
      }
    in
    let stop = Serve.Server.run cfg in
    Printf.printf "{\"serve\":\"interrupted\",\"drained\":%d,\"served\":%d}\n"
      stop.Serve.Server.drained_sweeps stop.Serve.Server.served_sweeps;
    exit exit_interrupted
  in
  Cmd.v (Cmd.info "serve" ~doc ~man)
    Term.(
      const run $ socket_arg $ jobs_arg $ queue_cap_arg
      $ client_inflight_arg $ cache_dir_arg $ no_cache_arg $ telemetry_arg
      $ job_iters_arg $ job_wall_arg $ ordering_arg $ job_deadline_arg
      $ grace_arg $ idle_timeout_arg $ request_timeout_arg $ max_frame_arg
      $ inject_crash_arg $ inject_interrupt_arg $ inject_stall_arg
      $ inject_accept_stall_arg)

(* ------------------------------------------------------------ client -- *)

let client_cmd =
  let doc = "talk to a running rfsim serve instance" in
  let retries_arg =
    Arg.(
      value & opt int 5
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Max retries after an unavailable server, a typed \
             $(i,overloaded) refusal, or a torn connection. Retrying a \
             sweep is safe: the server journal replays completed jobs, \
             so the final report is byte-identical.")
  in
  let backoff_arg =
    Arg.(
      value & opt float 0.1
      & info [ "backoff" ] ~docv:"SECONDS"
          ~doc:
            "Base retry delay; delay k is $(docv) * 2^k, capped at \
             $(b,--backoff-max). Deterministic (no jitter).")
  in
  let backoff_max_arg =
    Arg.(
      value & opt float 2.0
      & info [ "backoff-max" ] ~docv:"SECONDS" ~doc:"Retry delay cap.")
  in
  let events_arg =
    Arg.(
      value & flag
      & info [ "events" ] ~doc:"Print per-job progress events on stderr.")
  in
  let client_config socket retries backoff backoff_max events =
    {
      Serve.Client.socket_path = socket;
      retries = max 0 retries;
      backoff_base = backoff;
      backoff_max;
      events;
    }
  in
  let config_term =
    Term.(
      const client_config $ socket_arg $ retries_arg $ backoff_arg
      $ backoff_max_arg $ events_arg)
  in
  let sweep_sub =
    let doc = "submit a sweep and stream the report back" in
    let run ccfg path params corners analyses node freq harmonics steps t_stop
        dt f_start f_stop ppd no_lint =
      let deck_text = read_deck path in
      let submit =
        {
          Serve.Protocol.s_deck = deck_text;
          s_params = params;
          s_corners = corners;
          s_analyses = analyses;
          s_node = node;
          s_defaults =
            make_defaults ~freq ~harmonics ~steps ~t_stop ~dt ~f_start ~f_stop
              ~ppd;
          s_events = ccfg.Serve.Client.events;
          s_no_lint = no_lint;
        }
      in
      let progress msg = Printf.eprintf "client: %s\n%!" msg in
      match Serve.Client.run_sweep ~progress ccfg submit with
      | Serve.Client.Gave_up why ->
          Printf.eprintf "client: %s\n" why;
          exit exit_unavailable
      | Serve.Client.Completed { report; summary; attempts } ->
          List.iter print_endline report;
          if summary.Serve.Client.interrupted then
            Printf.printf "{\"sweep\":\"interrupted\",\"completed\":%d,\"total\":%d}\n"
              (summary.Serve.Client.ok + summary.Serve.Client.suspect
             + summary.Serve.Client.failed)
              summary.Serve.Client.jobs;
          Printf.eprintf
            "client: run %s done: %d ok, %d suspect, %d failed of %d \
             (%d replayed, %d attempt(s))\n"
            summary.Serve.Client.run summary.Serve.Client.ok
            summary.Serve.Client.suspect summary.Serve.Client.failed
            summary.Serve.Client.jobs summary.Serve.Client.replayed attempts;
          if summary.Serve.Client.interrupted then exit exit_interrupted;
          if summary.Serve.Client.failed > 0 then exit exit_no_convergence
    in
    Cmd.v (Cmd.info "sweep" ~doc)
      Term.(
        const run $ config_term $ deck_arg $ param_args $ corner_args
        $ analysis_arg $ node_arg "out" $ freq_arg $ harmonics_arg $ steps_arg
        $ t_stop_arg $ dt_arg $ f_start_arg $ f_stop_arg $ ppd_arg
        $ no_lint_arg)
  in
  let print_or_die = function
    | Ok body -> print_endline body
    | Error why ->
        Printf.eprintf "client: %s\n" why;
        exit exit_unavailable
  in
  let status_sub =
    let doc = "print the server's status counters" in
    let run ccfg = print_or_die (Serve.Client.status ccfg) in
    Cmd.v (Cmd.info "status" ~doc) Term.(const run $ config_term)
  in
  let run_arg =
    Arg.(
      required & opt (some string) None
      & info [ "run" ] ~docv:"HASH" ~doc:"Run hash from the submit ack.")
  in
  let cancel_sub =
    let doc = "cancel a running sweep by run hash" in
    let run ccfg run_hash =
      print_or_die (Serve.Client.cancel ccfg ~run:run_hash)
    in
    Cmd.v (Cmd.info "cancel" ~doc) Term.(const run $ config_term $ run_arg)
  in
  let poll_sub =
    let doc = "poll a sweep's progress by run hash" in
    let run ccfg run_hash =
      print_or_die (Serve.Client.poll ccfg ~run:run_hash)
    in
    Cmd.v (Cmd.info "poll" ~doc) Term.(const run $ config_term $ run_arg)
  in
  Cmd.group
    (Cmd.info "client" ~doc
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Deterministic retrying client for $(b,rfsim serve). \
              Connect-refused, typed $(i,overloaded) refusals and torn \
              connections all retry on a fixed exponential backoff \
              ladder; any other typed error is permanent. Exits 6 when \
              retries are exhausted.";
         ])
    [ sweep_sub; status_sub; cancel_sub; poll_sub ]

let run_cmd =
  let doc = "run every directive embedded in the deck" in
  let run path no_lint =
    let deck, c = one_job ~no_lint ~stats:false path in
    let nl = deck.Pipeline.netlist and directives = List.map snd deck.Pipeline.directives in
    Printf.printf "deck: %d nodes (%s), %d devices, %d directives\n\n"
      (Netlist.node_count nl)
      (String.concat ", " (List.init (Netlist.node_count nl) (Netlist.node_name nl)))
      (List.length (Netlist.devices nl))
      (List.length directives);
    let requested =
      List.concat_map (function Deck.Print nodes -> nodes | _ -> []) directives
    in
    let node = match requested with n :: _ -> n | [] -> "out" in
    (* a directive the deck cannot serve (.ac without a voltage source,
       .hb without a periodic source) is noted and skipped *)
    let directive ?node name request print =
      match Pipeline.run ~certify:1.0 ?node c request with
      | Pipeline.Failed
          (Pipeline.Engine { Sup.cause = Sup.Unsupported msg; f_attempts = []; _ }) ->
          Printf.eprintf ".%s: %s\n" name msg
      | Pipeline.Failed f -> die f
      | Pipeline.Converged r -> print r
    in
    List.iter
      (function
        | Deck.Dc_op -> directive "dc" Pipeline.Dc (print_dc c)
        | Deck.Tran { t_stop; dt } ->
            directive ~node "tran" (Pipeline.Tran { t_stop; dt }) (print_tran c ~nodes:[ node ])
        | Deck.Ac_sweep { f_start; f_stop } ->
            let freqs = Ac.log_freqs ~f_start ~f_stop ~points_per_decade:10 in
            directive ~node "ac" (Pipeline.Ac { source = None; freqs }) (print_ac c ~node)
        | Deck.Hb { harmonics } ->
            directive ~node "hb"
              (Pipeline.Hb { freq = None; harmonics; solver = Rf.Hb.Direct })
              (print_hb c ~node ~harmonics)
        | Deck.Noise_sweep { f_start; f_stop } ->
            let freqs = Ac.log_freqs ~f_start ~f_stop ~points_per_decade:10 in
            directive "noise" (Pipeline.Noise { node; freqs }) (print_noise c ~freqs)
        | Deck.Print _ | Deck.Param _ -> ())
      directives
  in
  Cmd.v (Cmd.info "run" ~doc) Term.(const run $ deck_arg $ no_lint_arg)

let () =
  let doc = "rfkit circuit simulator" in
  let info = Cmd.info "rfsim" ~version:Rfkit.version ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            run_cmd; lint_cmd; analyze_cmd; dc_cmd; tran_cmd; ac_cmd; hb_cmd;
            shooting_cmd; mmft_cmd; noise_cmd; sweep_cmd; optimize_cmd;
            cache_cmd; serve_cmd; client_cmd;
          ]))
