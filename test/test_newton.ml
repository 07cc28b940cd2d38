(* Bitwise pins of the Newton iterates that [integrate.pins] does not
   cover: the DC operating point under each linear solver and on its
   continuation rungs, and the grid Newton of harmonic balance under its
   direct and matrix-free solves.

   [newton.pins] digests the %h-printed solution and the supervisor's
   report (winning rung, per-attempt iterations, Krylov iterations,
   residuals and causes), so a change in the order of the floating-point
   operations of a Newton update, a residual or a linear solve shows up
   as a digest mismatch. *)

open Rfkit_circuit
open Rfkit_rf
module Sup = Rfkit_solve.Supervisor
module Faults = Rfkit_solve.Faults

let deck name =
  let nl, _ = Deck.parse_file ("../examples/decks/" ^ name) in
  Mna.build nl

let digest f =
  let buf = Buffer.create 65536 in
  let fl v = Printf.bprintf buf "%h " v in
  let vec x = Array.iter fl x in
  let int i = Printf.bprintf buf "%d " i in
  let str s = Printf.bprintf buf "%s|" s in
  f ~fl ~vec ~int ~str;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* the report minus its wall-clock times *)
let report ~fl ~int ~str (r : Sup.report) =
  str (Sup.strategy_name r.Sup.strategy);
  int r.Sup.total_iterations;
  List.iter
    (fun (a : Sup.attempt) ->
      str (Sup.strategy_name a.Sup.strategy);
      int a.Sup.stats.Sup.iterations;
      int a.Sup.stats.Sup.krylov_iterations;
      fl a.Sup.stats.Sup.residual;
      str (match a.Sup.cause with None -> "-" | Some c -> Sup.cause_to_string c))
    r.Sup.attempts

let converged = function
  | Sup.Converged (x, r) -> (x, r)
  | Sup.Failed f -> Alcotest.fail (Sup.failure_to_string f)

let pin_dc ?(singular = 0) name solver () =
  digest (fun ~fl ~vec ~int ~str ->
      let c = deck name in
      let options = { Dc.default_options with Dc.solver } in
      let run () = Dc.solve_outcome ~options c in
      let x, r =
        converged
          (if singular = 0 then run ()
           else begin
             Faults.arm { Faults.none with engine = Some "dc"; singular_attempts = singular };
             Fun.protect ~finally:Faults.disarm run
           end)
      in
      vec x;
      report ~fl ~int ~str r)

(* a failed ladder: each attempt's stats and cause *)
let pin_dc_failure plan name () =
  digest (fun ~fl ~vec:_ ~int ~str ->
      let c = deck name in
      Faults.arm plan;
      match Fun.protect ~finally:Faults.disarm (fun () -> Dc.solve_outcome c) with
      | Sup.Converged _ -> Alcotest.fail "the sabotaged solve converged"
      | Sup.Failed f ->
          str (Sup.cause_to_string f.Sup.cause);
          List.iter
            (fun (a : Sup.attempt) ->
              str (Sup.strategy_name a.Sup.strategy);
              int a.Sup.stats.Sup.iterations;
              int a.Sup.stats.Sup.krylov_iterations;
              fl a.Sup.stats.Sup.residual;
              str (match a.Sup.cause with None -> "-" | Some c -> Sup.cause_to_string c))
            f.Sup.f_attempts)

let pin_hbn solver () =
  digest (fun ~fl ~vec ~int ~str ->
      let c = deck "rectifier.cir" in
      let options =
        { Hbn.dims = [| 8 |]; max_newton = 60; tol = 1e-9; gmres_tol = 1e-12 }
      in
      let res, r =
        converged
          (Hbn.run ~solver ~engine:"hbn" ~ladder:Hbn.ladder
             ~plan:(fun _ -> (options, None))
             c ~tones:[| 10e6 |])
      in
      vec res.Hbn.grid;
      int res.Hbn.newton_iters;
      int res.Hbn.gmres_iters_total;
      fl res.Hbn.residual;
      report ~fl ~int ~str r)

(* what -> digest recorded before the Newton loops were merged *)
let pins =
  [
    ("Dc hard_dc.cir dense LU", pin_dc "hard_dc.cir" Dc.Dense_lu,
     "439ea944a5a81c30feaa894931e5a8e9");
    ("Dc hard_dc.cir sparse direct", pin_dc "hard_dc.cir" Dc.Sparse_direct,
     "439ea944a5a81c30feaa894931e5a8e9");
    ("Dc hard_dc.cir ILU-GMRES", pin_dc "hard_dc.cir" Dc.Gmres_ilu,
     "3d197393b40e7373053d5f469fd1fc64");
    ("Dc mos_amp.cir dense LU", pin_dc "mos_amp.cir" Dc.Dense_lu,
     "f38d7fcf8cbb0341e0d45f64fa9feef3");
    ("Dc mos_amp.cir sparse direct", pin_dc "mos_amp.cir" Dc.Sparse_direct,
     "f38d7fcf8cbb0341e0d45f64fa9feef3");
    ("Dc mos_amp.cir ILU-GMRES", pin_dc "mos_amp.cir" Dc.Gmres_ilu,
     "5380373e8d69666a28e79f40762e3ee7");
    ("Dc hard_dc.cir gmin rung (2 singular attempts)",
     pin_dc ~singular:2 "hard_dc.cir" Dc.Sparse_direct,
     "3aebc4854d6541ad0d2fccecdbfca634");
    ("Dc hard_dc.cir source-ramp rung (3 singular attempts)",
     pin_dc ~singular:3 "hard_dc.cir" Dc.Sparse_direct,
     "88692fedc3dd084142d0dfc0648b265d");
    ("Dc hard_dc.cir ILU-GMRES gmin rung",
     pin_dc ~singular:2 "hard_dc.cir" Dc.Gmres_ilu,
     "f4cd734d406d8871b5c517ab1c4978b5");
    ("Dc hard_dc.cir every rung singular",
     pin_dc_failure { Faults.none with engine = Some "dc"; singular_attempts = 99 } "hard_dc.cir",
     "33d947aa1c81c238f49e592cc317205c");
    ("Dc hard_dc.cir NaN at iteration 2, unknown 1",
     pin_dc_failure { Faults.none with engine = Some "dc"; nan_at = Some (2, 1) } "hard_dc.cir",
     "b9d45857032d95786bc832d3efb2869b");
    ("Hbn spectral direct on rectifier.cir", pin_hbn Hbn.Direct,
     "7bc77a801935e7288498ccfc61d24581");
    ("Hbn spectral matrix-free GMRES on rectifier.cir", pin_hbn Hbn.Matrix_free_gmres,
     "6c2520d95d796428c26e47911f394fff");
  ]

let test_pins () =
  List.iter (fun (what, f, want) -> Alcotest.(check string) what want (f ())) pins

let suite =
  [
    ( "newton.pins",
      [ Alcotest.test_case "DC and HB Newton iterates bitwise pins" `Quick test_pins ] );
  ]
