(* EXP-MEAS -- Section 1's performance measures: "These specifications
   depend on other performance measures such as noise figure, intercept
   point, and 1dB compression point. Verification tools need to be able to
   analyze the design at its various stages and predict the performance
   measures as accurately as possible."

   Each measure runs on a stage with a closed-form answer, so the verdicts
   are quantitative. *)

open Rfkit
open Rfkit_circuit

let tanh_stage vsat a =
  let nl = Netlist.create () in
  Netlist.vsource nl "VIN" "in" "0" (Wave.sine a 10e6);
  Netlist.tanh_gm nl "G1" "0" "out" "in" "0" ~gm:1e-3 ~vsat;
  Netlist.resistor nl "RL" "out" "0" 1e3;
  Netlist.capacitor nl "CL" "out" "0" 1e-14;
  Mna.build nl

let cubic_stage g1 g3 a =
  let nl = Netlist.create () in
  Netlist.vsource nl "VIN" "in" "0" (Wave.Sum [ Wave.sine a 10e6; Wave.sine a 11e6 ]);
  Netlist.cubic_conductor nl "GN" "in" "out" ~g1 ~g3;
  Netlist.resistor nl "RL" "out" "0" 1.0;
  Mna.build nl

let report () =
  Util.section "EXP-MEAS | Section 1: the named performance measures";
  (* 1 dB compression of a tanh limiter *)
  let vsat = 0.3 in
  let p1db =
    match
      Rf.Measures.compression_point_1db ~build:(tanh_stage vsat) ~node:"out"
        ~freq:10e6 ()
    with
    | Ok (Some a) -> a
    | Ok None | Error _ -> nan
  in
  Util.verdict ~label:"1 dB compression point (tanh stage)"
    ~paper:"predictable (Sec 1)"
    ~measured:(Printf.sprintf "%.3f V (~0.6-0.7 vsat = %.3f)" p1db vsat)
    ~ok:(p1db > 0.5 *. vsat && p1db < 0.8 *. vsat);
  (* IIP3 of a cubic stage, closed form (4/3)|g1/g3| *)
  let g1 = 1e-3 and g3 = 3e-3 in
  let iip3 =
    match
      Rf.Measures.iip3 ~a_probe:0.05 ~build:(cubic_stage g1 g3) ~node:"out" ~f1:10e6
        ~f2:11e6 ()
    with
    | Ok a -> a
    | Error _ -> nan
  in
  let analytic = sqrt (4.0 /. 3.0 *. (g1 /. g3)) in
  Util.verdict ~label:"input intercept point IIP3 (cubic stage)"
    ~paper:(Printf.sprintf "%.4f V (analytic)" analytic)
    ~measured:(Printf.sprintf "%.4f V" iip3)
    ~ok:(Float.abs (iip3 -. analytic) < 0.05 *. analytic);
  (* noise figure of a symmetric resistive divider: exactly 3 dB *)
  let nl = Netlist.create () in
  Netlist.vsource nl "VIN" "src" "0" (Wave.Dc 0.0);
  Netlist.resistor nl "RS" "src" "mid" 1e3;
  Netlist.resistor nl "RP" "mid" "0" 1e3;
  let c = Mna.build nl in
  let nf = Rf.Measures.noise_figure c ~source_resistor:"RS" ~node:"mid" ~freq:1e6 in
  Util.verdict ~label:"noise figure (symmetric divider)" ~paper:"3.0 dB (textbook)"
    ~measured:(Printf.sprintf "%.2f dB" nf)
    ~ok:(Float.abs (nf -. 3.0) < 0.1)

let bench_tests =
  [
    Bechamel.Test.make ~name:"meas.p1db_sweep"
      (Bechamel.Staged.stage (fun () ->
           Rf.Measures.compression_point_1db ~build:(tanh_stage 0.3) ~node:"out"
             ~freq:10e6 ()));
  ]
