(* Tests for the cross-engine cascade and the a-posteriori certifier:
   escalation after an exhausted retry ladder, deterministic traces,
   two-engine cross-certification, engineered Suspect verdicts, and the
   Enlarge_krylov recovery rung of the EM extractors.

   Every sabotage goes through the deterministic Faults plans, so each
   case asserts on exact winners/ranks rather than on "eventually
   worked". *)

open Rfkit_la
open Rfkit_circuit
open Rfkit_solve
open Rfkit_rf
open Rfkit_em

let with_plan plan f =
  Faults.arm plan;
  Fun.protect ~finally:Faults.disarm f

(* the diode rectifier from the deck examples: nonlinear enough that HB,
   shooting and tran-fft all do real work yet agree on the spectrum *)
let rectifier () =
  let nl = Netlist.create () in
  Netlist.vsource nl "V1" "in" "0" (Wave.sine 2.0 10e6);
  Netlist.resistor nl "RS" "in" "a" 50.0;
  Netlist.diode nl "D1" "a" "out" ~is:1e-14 ();
  Netlist.resistor nl "RL" "out" "0" 10e3;
  Netlist.capacitor nl "CL" "out" "0" 100e-12;
  Mna.build nl

let freq = 10e6

let sabotage_hb =
  { Faults.none with engine = Some "hb"; singular_attempts = 99 }

(* ------------------------------------------------- cascade escalation *)

let test_cascade_recovers_via_shooting () =
  let c = rectifier () in
  match with_plan sabotage_hb (fun () -> Pss.solve_outcome c ~freq) with
  | Cascade.Exhausted f -> Alcotest.fail (Cascade.failure_to_string f)
  | Cascade.Completed (sol, r) ->
      Alcotest.(check string) "winner engine" "shooting" r.Cascade.winner;
      Alcotest.(check string) "solution engine" "shooting" sol.Pss.engine;
      Alcotest.(check int) "winner rank" 3 r.Cascade.winner_rank;
      Alcotest.(check int) "stages tried" 3 r.Cascade.stages_tried;
      Alcotest.(check (list string))
        "both HB formulations traced" [ "hb"; "hb-gmres" ]
        (List.map (fun e -> e.Cascade.from_engine) r.Cascade.escalations);
      List.iter
        (fun (e : Cascade.escalation) ->
          Alcotest.(check bool)
            (e.Cascade.from_engine ^ " exhausted its full ladder")
            true
            (List.length e.Cascade.failure.Supervisor.f_attempts >= 4))
        r.Cascade.escalations;
      (* the rescued result must still certify *)
      let cert = Pss.certify sol in
      Alcotest.(check bool)
        (Certify.certificate_to_string cert)
        true (Certify.is_certified cert)

let test_cascade_exhaustion_keeps_trace () =
  let c = rectifier () in
  (* sabotage a chain made only of HB formulations: nothing can win *)
  let chain =
    [
      Pss.Hb_stage Hb.default_options;
      Pss.Hb_stage { Hb.default_options with Hb.solver = Hb.Matrix_free_gmres };
    ]
  in
  match with_plan sabotage_hb (fun () -> Pss.solve_outcome ~chain c ~freq) with
  | Cascade.Completed _ -> Alcotest.fail "a fully sabotaged chain cannot win"
  | Cascade.Exhausted f ->
      Alcotest.(check int) "both stages in the trace" 2
        (List.length f.Cascade.x_escalations);
      (match f.Cascade.x_cause with
      | Supervisor.Singular_jacobian -> ()
      | cause ->
          Alcotest.failf "expected the injected cause, got %s"
            (Supervisor.cause_to_string cause));
      let s = Cascade.failure_to_string f in
      List.iter
        (fun needle ->
          Alcotest.(check bool)
            (Printf.sprintf "rendering mentions %S" needle)
            true
            (let n = String.length needle and m = String.length s in
             let rec go i = i + n <= m && (String.sub s i n = needle || go (i + 1)) in
             go 0))
        [ "hb"; "hb-gmres"; "singular Jacobian"; "attempt 4" ]

(* a structurally singular deck: HB refuses up front, shooting's period
   integration diverges, tran-fft refuses up front. Every stage must come
   back typed, so the chain visits all four instead of dying at shooting *)
let test_cascade_underdet_exhausts_every_stage () =
  let nl, _ = Deck.parse_file "../examples/decks/bad/underdet.cir" in
  let c = Mna.build nl in
  match Pss.solve_outcome ~chain:(Pss.default_chain ~n_samples:32 ()) c ~freq:1e6 with
  | Cascade.Completed _ -> Alcotest.fail "a structurally singular deck cannot win"
  | Cascade.Exhausted f ->
      Alcotest.(check (list string)) "all four stages attempted"
        [ "hb"; "hb-gmres"; "shooting"; "tran-fft" ]
        (List.map (fun e -> e.Cascade.from_engine) f.Cascade.x_escalations)

(* an armed fault plan for one engine must not bleed into the budgets of
   the engines after it (the per-engine attempt scoping fix) *)
let test_fault_scope_per_engine () =
  let c = rectifier () in
  let outcome =
    with_plan
      { Faults.none with engine = Some "shooting"; singular_attempts = 1 }
      (fun () -> Pss.solve_outcome c ~freq)
  in
  match outcome with
  | Cascade.Exhausted f -> Alcotest.fail (Cascade.failure_to_string f)
  | Cascade.Completed (_, r) ->
      Alcotest.(check string) "hb wins untouched" "hb" r.Cascade.winner;
      Alcotest.(check int) "no escalations" 0 (List.length r.Cascade.escalations)

(* ------------------------------------------- two-engine certification *)

let solve_hb c =
  match Hb.solve_outcome c ~freq with
  | Supervisor.Converged (r, _) -> Pss.of_hb r
  | Supervisor.Failed f -> Alcotest.fail (Supervisor.failure_to_string f)

let solve_shooting c =
  match Shooting.solve_outcome c ~freq with
  | Supervisor.Converged (r, _) -> Pss.of_shooting r
  | Supervisor.Failed f -> Alcotest.fail (Supervisor.failure_to_string f)

let test_hb_shooting_cross_certify () =
  let c = rectifier () in
  let hb = solve_hb c and sh = solve_shooting c in
  Alcotest.(check bool)
    (Printf.sprintf "spectra agree: cross = %.3e" (Pss.cross_error hb sh))
    true
    (Pss.cross_error hb sh < 1e-2);
  List.iter
    (fun cert ->
      Alcotest.(check bool)
        (Certify.certificate_to_string cert)
        true (Certify.is_certified cert))
    [ Pss.certify ~cross:sh hb; Pss.certify ~cross:hb sh ]

let test_engineered_suspect () =
  let c = rectifier () in
  let cert = Pss.certify ~tol_scale:1e-12 (solve_hb c) in
  (match cert.Certify.verdict with
  | Certify.Certified -> Alcotest.fail "thresholds scaled to zero must fail"
  | Certify.Suspect failing ->
      Alcotest.(check bool)
        "at least one named failing check" true
        (List.length failing >= 1);
      List.iter
        (fun (ch : Certify.check) ->
          Alcotest.(check bool)
            (ch.Certify.name ^ " exceeds its scaled threshold")
            true
            (ch.Certify.measured > ch.Certify.threshold))
        failing);
  let s = Certify.verdict_to_string cert.Certify.verdict in
  Alcotest.(check bool)
    ("verdict names the defect: " ^ s)
    true
    (String.length s >= 7 && String.sub s 0 7 = "Suspect")

(* the finite check can never be waved through by a loose tol_scale *)
let test_nan_never_certifies () =
  let c = rectifier () in
  let sol = solve_hb c in
  sol.Pss.samples.Mat.a.(0) <- Float.nan;
  let cert = Pss.certify ~tol_scale:1e12 sol in
  Alcotest.(check bool) "NaN sample -> Suspect" false (Certify.is_certified cert)

(* --------------------------------------------------- multi-rate chain *)

let mixer () =
  let nl = Netlist.create () in
  Netlist.vsource nl "VRF" "rf" "0" (Wave.sine 0.1 0.1e6);
  Netlist.vsource nl "VLO" "lo" "0" (Wave.square 1.0 10e6);
  Netlist.mult_vccs nl "MIX" "mix" "0" ~a:("rf", "0") ~b:("lo", "0") ~k:2e-3;
  Netlist.resistor nl "RM" "mix" "0" 500.0;
  Netlist.capacitor nl "CM" "mix" "0" 10e-12;
  Mna.build nl

let test_qpss_cascade_recovers () =
  let c = mixer () in
  let outcome =
    with_plan { Faults.none with engine = Some "mmft"; singular_attempts = 99 }
      (fun () -> Qpss.solve_outcome c ~f1:0.1e6 ~f2:10e6)
  in
  match outcome with
  | Cascade.Exhausted f -> Alcotest.fail (Cascade.failure_to_string f)
  | Cascade.Completed (sol, r) ->
      Alcotest.(check string) "winner" "mfdtd" r.Cascade.winner;
      Alcotest.(check int) "rank" 2 r.Cascade.winner_rank;
      let cert = Qpss.certify ~nodes:[ "mix" ] sol in
      Alcotest.(check bool)
        (Certify.certificate_to_string cert)
        true (Certify.is_certified cert);
      (* the rescued spectrum still shows the mix products *)
      Alcotest.(check bool)
        "sum/difference products present" true
        (sol.Qpss.mix "mix" ~k1:1 ~k2:1 > 1e-3
        && sol.Qpss.mix "mix" ~k1:1 ~k2:(-1) > 1e-3)

let test_qpss_cross_engines () =
  let c = mixer () in
  let solve chain =
    match Qpss.solve_outcome ~chain c ~f1:0.1e6 ~f2:10e6 with
    | Cascade.Completed (sol, _) -> sol
    | Cascade.Exhausted f -> Alcotest.fail (Cascade.failure_to_string f)
  in
  let mm = solve [ Qpss.Mmft_stage Mmft.default_options ] in
  let fd = solve [ Qpss.Mfdtd_stage Mfdtd.default_options ] in
  let cert = Qpss.certify ~nodes:[ "mix" ] ~cross:fd mm in
  Alcotest.(check bool)
    (Certify.certificate_to_string cert)
    true (Certify.is_certified cert);
  Alcotest.(check bool)
    (Printf.sprintf "mmft/mfdtd cross = %.3e" (Qpss.cross_error ~nodes:[ "mix" ] mm fd))
    true
    (Qpss.cross_error ~nodes:[ "mix" ] mm fd < 0.05)

(* ------------------------------------------------ EM Enlarge_krylov *)

let test_em_fd_enlarge_krylov () =
  let outcome =
    with_plan
      { Faults.none with engine = Some "em-fd"; krylov_stall_attempts = 1 }
      (fun () ->
        Fd.parallel_plate_outcome ~n:10 ~plate_cells:4 ~gap_cells:2 ~cell:10e-6 ())
  in
  match outcome with
  | Supervisor.Failed f -> Alcotest.fail (Supervisor.failure_to_string f)
  | Supervisor.Converged (r, rep) ->
      Alcotest.(check string)
        "recovered on the enlarged-basis rung" "krylov-basis(x4)"
        (Supervisor.strategy_name rep.Supervisor.strategy);
      Alcotest.(check int) "two attempts" 2 (List.length rep.Supervisor.attempts);
      Alcotest.(check bool)
        (Printf.sprintf "capacitance plausible: %.3e F" r.Fd.capacitance)
        true
        (r.Fd.capacitance > 1e-16 && r.Fd.capacitance < 1e-12)

let square_plate ?(z = 0.0) ?(n = 6) side name =
  Geo3.mesh_plate ~name
    ~origin:(Geo3.v3 (-.side /. 2.0) (-.side /. 2.0) z)
    ~u:(Geo3.v3 side 0.0 0.0) ~v:(Geo3.v3 0.0 side 0.0) ~nu:n ~nv:n

let test_em_mom_enlarge_krylov () =
  let side = 1e-3 in
  let p =
    Mom.make Kernel.free_space
      [| square_plate ~z:50e-6 side "top"; square_plate ~z:0.0 side "bottom" |]
  in
  let mat = Mom.dense_matrix p in
  let diag = Vec.init (Mom.n_panels p) (fun i -> Mat.get mat i i) in
  let outcome =
    with_plan
      { Faults.none with engine = Some "em-mom"; krylov_stall_attempts = 1 }
      (fun () ->
        Mom.solve_operator_outcome p ~matvec:(Mat.matvec mat) ~precond_diag:diag ())
  in
  match outcome with
  | Supervisor.Failed f -> Alcotest.fail (Supervisor.failure_to_string f)
  | Supervisor.Converged (cap, rep) ->
      Alcotest.(check string)
        "recovered with the doubled restart basis" "krylov-basis(x2)"
        (Supervisor.strategy_name rep.Supervisor.strategy);
      let dense = Mom.solve_dense p in
      Alcotest.(check bool)
        "matches the dense reference" true
        (Float.abs (Mat.get cap 0 1 -. Mat.get dense.Mom.cap_matrix 0 1)
        < 1e-3 *. Float.abs (Mat.get dense.Mom.cap_matrix 0 1))

(* exception shims still raise the shared typed exception *)
let test_em_shim_raises_typed () =
  with_plan
    { Faults.none with engine = Some "em-fd"; krylov_stall_attempts = 99 }
    (fun () ->
      match
        Fd.parallel_plate ~n:10 ~plate_cells:4 ~gap_cells:2 ~cell:10e-6
      with
      | _ -> Alcotest.fail "a fully sabotaged solve cannot succeed"
      | exception Error.No_convergence e ->
          Alcotest.(check string) "engine tag" "em-fd" e.Error.engine;
          (match e.Error.cause with
          | Supervisor.Krylov_stall _ -> ()
          | c ->
              Alcotest.failf "expected Krylov stall, got %s"
                (Supervisor.cause_to_string c)))

(* ------------------------------------------------------- determinism *)

let qcheck_cascade_deterministic =
  QCheck.Test.make ~name:"cascade trace is a pure function of the fault plan"
    ~count:6
    QCheck.(int_range 0 5)
    (fun k ->
      let run () =
        let c = rectifier () in
        let outcome =
          with_plan { Faults.none with engine = Some "hb"; singular_attempts = k }
            (fun () ->
              Pss.solve_outcome
                ~chain:
                  [
                    Pss.Hb_stage Hb.default_options;
                    Pss.Shooting_stage Shooting.default_options;
                  ]
                c ~freq)
        in
        match outcome with
        | Cascade.Completed (sol, r) ->
            Cascade.report_to_string r
            ^ Certify.certificate_to_string (Pss.certify sol)
        | Cascade.Exhausted f -> Cascade.failure_to_string f
      in
      String.equal (run ()) (run ()))

let suite =
  [
    ( "cascade",
      [
        Alcotest.test_case "sabotaged HB escalates to shooting and certifies"
          `Slow test_cascade_recovers_via_shooting;
        Alcotest.test_case "exhausted chain keeps the full trace" `Quick
          test_cascade_exhaustion_keeps_trace;
        Alcotest.test_case "underdetermined deck exhausts all four stages" `Quick
          test_cascade_underdet_exhausts_every_stage;
        Alcotest.test_case "fault plans are scoped per engine" `Slow
          test_fault_scope_per_engine;
        Alcotest.test_case "qpss: sabotaged MMFT escalates to MFDTD" `Slow
          test_qpss_cascade_recovers;
      ] );
    ( "certify",
      [
        Alcotest.test_case "HB and shooting certify each other" `Slow
          test_hb_shooting_cross_certify;
        Alcotest.test_case "tiny tol-scale manufactures a Suspect" `Slow
          test_engineered_suspect;
        Alcotest.test_case "NaN sample never certifies" `Slow
          test_nan_never_certifies;
        Alcotest.test_case "qpss: MMFT and MFDTD cross-certify" `Slow
          test_qpss_cross_engines;
      ] );
    ( "cascade.em",
      [
        Alcotest.test_case "FD recovers via enlarged CG allowance" `Quick
          test_em_fd_enlarge_krylov;
        Alcotest.test_case "MoM recovers via enlarged GMRES basis" `Quick
          test_em_mom_enlarge_krylov;
        Alcotest.test_case "exhausted EM ladder raises the typed exception"
          `Quick test_em_shim_raises_typed;
      ] );
    ( "cascade.properties",
      List.map QCheck_alcotest.to_alcotest [ qcheck_cascade_deterministic ] );
  ]
