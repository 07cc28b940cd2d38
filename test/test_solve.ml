(* Tests for the solver supervisor: typed outcomes, retry ladders,
   budgets, and the deterministic fault-injection hooks.

   Every case arms a Faults plan, runs a real engine against a real
   circuit, and asserts on the structured report: which rung won, what
   each failed attempt recorded, and that fail-fast causes abort the
   ladder instead of burning budget. *)

open Rfkit_la
open Rfkit_circuit
open Rfkit_solve

(* stiff diode ladder: needs several Newton iterations from x = 0, so
   injected faults at chosen attempts/iterations actually land *)
let diode_ladder () =
  let nl = Netlist.create () in
  Netlist.vsource nl "V1" "vdd" "0" (Wave.Dc 5.0);
  Netlist.resistor nl "R1" "vdd" "a" 10.0;
  Netlist.diode nl "D1" "a" "b" ~is:1e-16 ();
  Netlist.diode nl "D2" "b" "c" ~is:1e-16 ();
  Netlist.diode nl "D3" "c" "0" ~is:1e-16 ();
  Mna.build nl

let with_plan plan f =
  Faults.arm plan;
  Fun.protect ~finally:Faults.disarm f

let strategy = Alcotest.testable
    (fun ppf s -> Format.pp_print_string ppf (Supervisor.strategy_name s))
    (fun a b -> Supervisor.strategy_name a = Supervisor.strategy_name b)

let cause_str c = Supervisor.cause_to_string c

let attempt_causes (attempts : Supervisor.attempt list) =
  List.map
    (fun (a : Supervisor.attempt) -> Option.map cause_str a.Supervisor.cause)
    attempts

(* check a solved DC point is physical: node a sits near 2.74 V *)
let check_solution c (x : Vec.t) =
  Alcotest.(check bool)
    (Printf.sprintf "v(a) = %.3f V plausible" x.(Mna.node c "a"))
    true
    (x.(Mna.node c "a") > 2.0 && x.(Mna.node c "a") < 3.5)

(* ------------------------------------------------ recovery ladder rungs *)

let solve_with_singulars c k =
  with_plan { Faults.none with engine = Some "dc"; singular_attempts = k }
    (fun () -> Dc.solve_outcome c)

let test_recovers_via_damping () =
  let c = diode_ladder () in
  match solve_with_singulars c 1 with
  | Supervisor.Failed f -> Alcotest.fail (Supervisor.failure_to_string f)
  | Supervisor.Converged (x, r) ->
      check_solution c x;
      (match r.Supervisor.strategy with
      | Supervisor.Tighten_damping _ -> ()
      | s -> Alcotest.failf "won via %s, expected damping" (Supervisor.strategy_name s));
      Alcotest.(check int) "two attempts" 2 (List.length r.Supervisor.attempts);
      Alcotest.(check (list (option string)))
        "first attempt records the singular Jacobian"
        [ Some "singular Jacobian"; None ]
        (attempt_causes r.Supervisor.attempts)

let test_recovers_via_gmin () =
  let c = diode_ladder () in
  match solve_with_singulars c 2 with
  | Supervisor.Failed f -> Alcotest.fail (Supervisor.failure_to_string f)
  | Supervisor.Converged (x, r) ->
      check_solution c x;
      Alcotest.(check strategy)
        "won via gmin stepping" (Supervisor.Gmin_stepping 8) r.Supervisor.strategy;
      Alcotest.(check int) "three attempts" 3 (List.length r.Supervisor.attempts)

let test_recovers_via_source_ramp () =
  let c = diode_ladder () in
  match solve_with_singulars c 3 with
  | Supervisor.Failed f -> Alcotest.fail (Supervisor.failure_to_string f)
  | Supervisor.Converged (x, r) ->
      check_solution c x;
      Alcotest.(check strategy)
        "won via source ramping" (Supervisor.Source_ramping 8) r.Supervisor.strategy;
      Alcotest.(check int) "four attempts" 4 (List.length r.Supervisor.attempts)

let test_ladder_exhausted () =
  let c = diode_ladder () in
  match solve_with_singulars c 99 with
  | Supervisor.Converged _ -> Alcotest.fail "cannot converge with every rung sabotaged"
  | Supervisor.Failed f ->
      Alcotest.(check string)
        "final cause" "singular Jacobian" (cause_str f.Supervisor.cause);
      Alcotest.(check int)
        "every rung ran and is on the trace" 4
        (List.length f.Supervisor.f_attempts)

(* ------------------------------------------------------ NaN fail-fast *)

let test_nan_fail_fast () =
  let c = diode_ladder () in
  let outcome =
    with_plan { Faults.none with engine = Some "dc"; nan_at = Some (2, 1) }
      (fun () -> Dc.solve_outcome c)
  in
  match outcome with
  | Supervisor.Converged _ -> Alcotest.fail "NaN injection must fail the solve"
  | Supervisor.Failed f ->
      (match f.Supervisor.cause with
      | Supervisor.Non_finite { iter; index } ->
          Alcotest.(check int) "offending Newton iteration" 2 iter;
          Alcotest.(check int) "offending unknown index" 1 index
      | c -> Alcotest.failf "expected Non_finite, got %s" (cause_str c));
      Alcotest.(check int)
        "fail-fast: the ladder stopped after one attempt" 1
        (List.length f.Supervisor.f_attempts)

(* --------------------------------------------------------- budgets *)

let test_iteration_budget_exhaustion () =
  let c = diode_ladder () in
  let budget =
    { Supervisor.attempt_iterations = 3; total_iterations = 5; wall_clock = 300.0 }
  in
  match Dc.solve_outcome ~budget c with
  | Supervisor.Converged (_, r) ->
      Alcotest.failf "5 iterations cannot solve this deck (won via %s)"
        (Supervisor.strategy_name r.Supervisor.strategy)
  | Supervisor.Failed f ->
      (match f.Supervisor.cause with
      | Supervisor.Budget_exhausted Supervisor.Iterations -> ()
      | c -> Alcotest.failf "expected iteration-budget exhaustion, got %s" (cause_str c));
      Alcotest.(check bool)
        "trace holds the attempts that burned the budget" true
        (List.length f.Supervisor.f_attempts >= 1);
      List.iter
        (fun (a : Supervisor.attempt) ->
          Alcotest.(check bool)
            "each traced attempt stayed within its cap" true
            (a.Supervisor.stats.Supervisor.iterations <= 3))
        f.Supervisor.f_attempts

let test_wall_clock_budget () =
  let c = diode_ladder () in
  (* negative: "already exhausted" without racing the clock granularity *)
  let budget =
    { Supervisor.default_budget with Supervisor.wall_clock = -1.0 }
  in
  match Dc.solve_outcome ~budget c with
  | Supervisor.Converged _ -> Alcotest.fail "a zero wall-clock budget must fail"
  | Supervisor.Failed f -> (
      match f.Supervisor.cause with
      | Supervisor.Budget_exhausted Supervisor.Wall_clock -> ()
      | c -> Alcotest.failf "expected wall-clock exhaustion, got %s" (cause_str c))

(* ------------------------------------------- krylov stall (HB engine) *)

let rectifier () =
  let nl = Netlist.create () in
  Netlist.vsource nl "V1" "in" "0" (Wave.sine 2.0 10e6);
  Netlist.resistor nl "RS" "in" "a" 50.0;
  Netlist.diode nl "D1" "a" "out" ~is:1e-14 ();
  Netlist.resistor nl "RL" "out" "0" 10e3;
  Netlist.capacitor nl "CL" "out" "0" 100e-12;
  Mna.build nl

let test_krylov_stall_recovery () =
  let c = rectifier () in
  let options =
    { Rfkit_rf.Hb.default_options with Rfkit_rf.Hb.solver = Rfkit_rf.Hb.Matrix_free_gmres }
  in
  let outcome =
    with_plan { Faults.none with engine = Some "hb"; krylov_stall_attempts = 1 }
      (fun () -> Rfkit_rf.Hb.solve_outcome ~options c ~freq:10e6)
  in
  match outcome with
  | Supervisor.Failed f -> Alcotest.fail (Supervisor.failure_to_string f)
  | Supervisor.Converged (_, r) ->
      (match attempt_causes r.Supervisor.attempts with
      | Some first :: _ ->
          Alcotest.(check bool)
            (Printf.sprintf "first attempt stalled in GMRES: %s" first)
            true
            (String.length first >= 6 && String.sub first 0 6 = "Krylov")
      | _ -> Alcotest.fail "first attempt should carry a Krylov stall cause");
      Alcotest.(check bool)
        "recovered on a later rung" true
        (List.length r.Supervisor.attempts >= 2);
      Alcotest.(check bool)
        "krylov iterations surfaced in the report" true
        (r.Supervisor.stats.Supervisor.krylov_iterations > 0)

(* ------------------------------------------- transient step causes *)

(* a failed step's own cause reaches the supervisor: a NaN fails fast,
   a singular Jacobian reads as one *)
let tran_with plan =
  let c = rectifier () in
  with_plan plan (fun () -> Tran.run_outcome c ~t_stop:2e-7 ~dt:1e-9)

let test_tran_nan_fail_fast () =
  match tran_with { Faults.none with engine = Some "tran"; nan_at = Some (1, 0) } with
  | Supervisor.Converged _ -> Alcotest.fail "NaN injection must fail the run"
  | Supervisor.Failed f ->
      (match f.Supervisor.cause with
      | Supervisor.Non_finite { iter; index } ->
          Alcotest.(check int) "offending Newton iteration" 1 iter;
          Alcotest.(check int) "offending unknown index" 0 index
      | c -> Alcotest.failf "expected Non_finite, got %s" (cause_str c));
      Alcotest.(check int)
        "fail-fast: no finer-step retry" 1
        (List.length f.Supervisor.f_attempts)

let test_tran_singular_cause () =
  match tran_with { Faults.none with engine = Some "tran"; singular_attempts = 99 } with
  | Supervisor.Converged _ -> Alcotest.fail "every attempt is sabotaged"
  | Supervisor.Failed f ->
      Alcotest.(check string) "final cause" "singular Jacobian" (cause_str f.Supervisor.cause);
      Alcotest.(check (list (option string)))
        "every rung records the singular Jacobian"
        [ Some "singular Jacobian"; Some "singular Jacobian"; Some "singular Jacobian" ]
        (attempt_causes f.Supervisor.f_attempts)

(* ------------------------------------------------------- determinism *)

(* everything observable except wall-clock times *)
let outcome_signature (o : Vec.t Supervisor.outcome) =
  match o with
  | Supervisor.Converged (x, r) ->
      Printf.sprintf "C %s %s [%s] total=%d x=%s"
        r.Supervisor.engine
        (Supervisor.strategy_name r.Supervisor.strategy)
        (String.concat ";"
           (List.map (Option.value ~default:"-") (attempt_causes r.Supervisor.attempts)))
        r.Supervisor.total_iterations
        (String.concat "," (Array.to_list (Array.map (Printf.sprintf "%.12g") x)))
  | Supervisor.Failed f ->
      Printf.sprintf "F %s %s [%s]" f.Supervisor.f_engine
        (cause_str f.Supervisor.cause)
        (String.concat ";"
           (List.map (Option.value ~default:"-") (attempt_causes f.Supervisor.f_attempts)))

let qcheck_deterministic =
  QCheck.Test.make ~count:20 ~name:"supervisor outcome is deterministic under a fixed fault plan"
    QCheck.(int_range 0 5)
    (fun k ->
      let c = diode_ladder () in
      let run () = outcome_signature (solve_with_singulars c k) in
      String.equal (run ()) (run ()))

(* ----------------------------------------------------------- rendering *)

let contains s needle =
  let n = String.length needle and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = needle || go (i + 1)) in
  go 0

let test_failure_rendering () =
  let c = diode_ladder () in
  match solve_with_singulars c 99 with
  | Supervisor.Converged _ -> Alcotest.fail "must fail"
  | Supervisor.Failed f ->
      let s = Supervisor.failure_to_string f in
      List.iter
        (fun needle ->
          Alcotest.(check bool)
            (Printf.sprintf "rendering mentions %S" needle)
            true (contains s needle))
        [ "attempt 1"; "base"; "gmin-stepping"; "source-ramping"; "singular Jacobian" ]

let suite =
  [
    ( "solve.supervisor",
      [
        Alcotest.test_case "singular x1 -> damping rung recovers" `Quick
          test_recovers_via_damping;
        Alcotest.test_case "singular x2 -> gmin rung recovers" `Quick
          test_recovers_via_gmin;
        Alcotest.test_case "singular x3 -> source-ramp rung recovers" `Quick
          test_recovers_via_source_ramp;
        Alcotest.test_case "all rungs sabotaged -> Failed with full trace" `Quick
          test_ladder_exhausted;
        Alcotest.test_case "injected NaN fails fast with the unknown index" `Quick
          test_nan_fail_fast;
        Alcotest.test_case "iteration budget exhaustion carries the trace" `Quick
          test_iteration_budget_exhaustion;
        Alcotest.test_case "zero wall-clock budget trips immediately" `Quick
          test_wall_clock_budget;
        Alcotest.test_case "HB recovers from an injected Krylov stall" `Quick
          test_krylov_stall_recovery;
        Alcotest.test_case "failure rendering names every rung" `Quick
          test_failure_rendering;
        Alcotest.test_case "tran: injected NaN fails fast with its own cause" `Quick
          test_tran_nan_fail_fast;
        Alcotest.test_case "tran: a singular step reads as a singular Jacobian" `Quick
          test_tran_singular_cause;
      ] );
    ( "solve.properties",
      List.map QCheck_alcotest.to_alcotest [ qcheck_deterministic ] );
  ]
