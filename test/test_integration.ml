(* Integration tests: flows that cross library boundaries, mirroring how a
   designer would chain the tools -- extraction feeding circuit analysis,
   ROMs co-simulated against the full system, one circuit solved by
   several steady-state engines, deck-driven analyses. *)

open Rfkit_la
open Rfkit_circuit
open Rfkit_rf

let check_float ?(eps = 1e-9) msg expected actual =
  Alcotest.(check (float eps)) msg expected actual

let converged = function
  | Rfkit_solve.Supervisor.Converged (r, _) -> r
  | Rfkit_solve.Supervisor.Failed f ->
      Alcotest.fail (Rfkit_solve.Supervisor.failure_to_string f)

(* ------------------------------------------------- extraction -> circuit *)

let test_extraction_feeds_circuit () =
  (* MoM-extract a parallel-plate capacitor, drop the value into an RC
     netlist, and confirm the AC corner lands where the extraction says *)
  let open Rfkit_em in
  let side = 1e-3 and gap = 20e-6 in
  let plate z name =
    Geo3.mesh_plate ~name
      ~origin:(Geo3.v3 (-.side /. 2.0) (-.side /. 2.0) z)
      ~u:(Geo3.v3 side 0.0 0.0) ~v:(Geo3.v3 0.0 side 0.0) ~nu:8 ~nv:8
  in
  let p = Mom.make Kernel.free_space [| plate gap "top"; plate 0.0 "bottom" |] in
  let sol = Mom.solve_dense p in
  let c_extracted = Mom.coupling_capacitance sol 0 1 in
  let r = 1e3 in
  let nl = Netlist.create () in
  Netlist.vsource nl "V1" "in" "0" (Wave.Dc 0.0);
  Netlist.resistor nl "R1" "in" "out" r;
  Netlist.capacitor nl "C1" "out" "0" c_extracted;
  let c = Mna.build nl in
  let fc = 1.0 /. (2.0 *. Float.pi *. r *. c_extracted) in
  let res = Ac.sweep c ~source:"V1" ~freqs:[| fc |] in
  let h = Ac.transfer c res "out" in
  check_float ~eps:1e-6 "extracted corner is -3 dB" (1.0 /. sqrt 2.0) (Cx.abs h.(0))

(* ----------------------------------------------- ROM <-> full transient *)

let test_rom_cosimulates_with_full_transient () =
  (* drive the full RC line and its order-6 PVL realization with the same
     step input: the outputs must overlay *)
  let open Rfkit_rom in
  let sections = 30 and r_total = 3e3 and c_total = 3e-12 in
  let d = Descriptor.rc_line ~sections ~r_total ~c_total in
  let rom = Pvl.reduce d ~s0:0.0 ~q:6 in
  (* full circuit transient with a step source *)
  let nl = Netlist.create () in
  let r_seg = r_total /. float_of_int sections in
  let c_seg = c_total /. float_of_int sections in
  Netlist.vsource nl "VIN" "n0" "0" (Wave.Dc 1.0);
  for k = 1 to sections do
    Netlist.resistor nl (Printf.sprintf "R%d" k)
      (Printf.sprintf "n%d" (k - 1))
      (Printf.sprintf "n%d" k)
      r_seg;
    Netlist.capacitor nl (Printf.sprintf "C%d" k) (Printf.sprintf "n%d" k) "0" c_seg
  done;
  let c = Mna.build nl in
  let tau = r_total *. c_total /. 2.0 in
  let t_stop = 6.0 *. tau and dt = tau /. 200.0 in
  let x0 = Vec.create (Mna.size c) in
  let full = Tran.run ~x0 c ~t_stop ~dt in
  let v_full = Tran.voltage_trace c full (Printf.sprintf "n%d" sections) in
  let rom_sim = Realize.simulate rom ~u:(fun _ -> 1.0) ~t_stop ~dt in
  let n = Array.length v_full in
  let worst = ref 0.0 in
  for k = n / 10 to n - 1 do
    let d = Float.abs (v_full.(k) -. rom_sim.Realize.output.(k)) in
    if d > !worst then worst := d
  done;
  Alcotest.(check bool)
    (Printf.sprintf "worst deviation %.2e V" !worst)
    true (!worst < 5e-3)

(* -------------------------------------- one circuit, several engines *)

let test_engines_agree_on_mixer () =
  (* the same mildly nonlinear two-tone circuit through HB2, MFDTD and
     MMFT: the main mix product must agree across all three *)
  let f1 = 50e3 and f2 = 20e6 in
  let nl = Netlist.create () in
  Netlist.vsource nl "VRF" "rf" "0" (Wave.sine 0.1 f1);
  Netlist.vsource nl "VLO" "lo" "0" (Wave.sine 1.0 f2);
  Netlist.mult_vccs nl "MIX" "0" "mix" ~a:("rf", "0") ~b:("lo", "0") ~k:2e-3;
  Netlist.resistor nl "RM" "mix" "0" 500.0;
  Netlist.capacitor nl "CM" "mix" "0" 2e-12;
  let c = Mna.build nl in
  let hb2 =
    converged (Hb2.solve_outcome ~options:{ Hb2.default_options with n1 = 8; n2 = 8 } c ~f1 ~f2)
  in
  let a_hb2 = Hb2.mix_amplitude hb2 "mix" ~k1:1 ~k2:1 in
  let mmft = converged (Mmft.solve_outcome c ~f1 ~f2) in
  let a_mmft = Mmft.mix_amplitude mmft "mix" ~slow:1 ~fast:1 in
  let mfdtd =
    converged @@ Mfdtd.solve_outcome ~options:{ Mfdtd.default_options with n1 = 8; n2 = 32 } c ~f1 ~f2
  in
  (* extract the same mix coefficient from the MFDTD bivariate grid *)
  let grid = Mfdtd.node_grid mfdtd "mix" in
  let n1 = 8 and n2 = 32 in
  let acc = ref Cx.zero in
  for i1 = 0 to n1 - 1 do
    for i2 = 0 to n2 - 1 do
      let ph =
        Cx.expi
          (-2.0 *. Float.pi
          *. ((float_of_int i1 /. float_of_int n1)
             +. (float_of_int i2 /. float_of_int n2)))
      in
      acc := Cx.( +: ) !acc (Cx.scale (Mat.get grid i1 i2) ph)
    done
  done;
  let a_mfdtd = 2.0 *. Cx.abs (Cx.scale (1.0 /. float_of_int (n1 * n2)) !acc) in
  check_float ~eps:(0.02 *. a_hb2) "HB2 vs MMFT" a_hb2 a_mmft;
  (* MFDTD uses first-order differences: coarser, looser bound *)
  check_float ~eps:(0.15 *. a_hb2) "HB2 vs MFDTD" a_hb2 a_mfdtd

(* -------------------------------------------------- deck-driven flow *)

let test_deck_to_hb_flow () =
  let text =
    "* rectifier deck\n\
     V1 in 0 SIN(0 1.5 5meg)\n\
     RS in a 100\n\
     D1 a out\n\
     RL out 0 5k\n\
     CL out 0 50p\n\
     .hb 6\n\
     .print out\n"
  in
  let nl, dirs = Deck.parse_string text in
  let c = Mna.build nl in
  Alcotest.(check bool) "hb directive present" true
    (List.exists (function Deck.Hb _ -> true | _ -> false) dirs);
  let freq = List.hd (Mna.fundamentals c) in
  check_float ~eps:1.0 "fundamental from deck" 5e6 freq;
  let res = converged (Hb.solve_outcome c ~freq) in
  let dc = (Grid.harmonic (Hb.waveform res "out") 0).Cx.re in
  Alcotest.(check bool) (Printf.sprintf "dc %.3f" dc) true (dc > 0.2 && dc < 1.5)

(* ---------------------------------------- oscillator -> spectrum flow *)

let test_oscillator_noise_to_spur_budget () =
  (* phase-noise numbers feed a system-level calculation: integrate L(fm)
     over a channel to get RMS phase error -- the kind of spec (adjacent
     channel interference) the paper's intro cites *)
  let open Rfkit_noise in
  let orbit = Oscillators.solve ~steps_per_period:250 (Oscillators.van_der_pol ()) in
  let res = Phase_noise.analyze orbit in
  (* integrated phase error over 1 kHz..1 MHz: 2 int L(f) df *)
  let n = 200 in
  let acc = ref 0.0 in
  let f_lo = 1e3 and f_hi = 1e6 in
  for k = 0 to n - 1 do
    let f1 = f_lo *. ((f_hi /. f_lo) ** (float_of_int k /. float_of_int n)) in
    let f2 = f_lo *. ((f_hi /. f_lo) ** (float_of_int (k + 1) /. float_of_int n)) in
    let l_mid = Phase_noise.lorentzian res ~harmonic:1 (0.5 *. (f1 +. f2)) in
    acc := !acc +. (l_mid *. (f2 -. f1))
  done;
  let rms_phase_deg = sqrt (2.0 *. !acc) *. 180.0 /. Float.pi in
  Alcotest.(check bool)
    (Printf.sprintf "rms phase error %.2e deg plausible" rms_phase_deg)
    true
    (rms_phase_deg > 0.0 && rms_phase_deg < 1.0)

let suite =
  let slow name f = Alcotest.test_case name `Slow f in
  [
    ( "integration",
      [
        slow "extraction feeds circuit" test_extraction_feeds_circuit;
        slow "rom co-simulates with transient" test_rom_cosimulates_with_full_transient;
        slow "engines agree on mixer" test_engines_agree_on_mixer;
        slow "deck to hb flow" test_deck_to_hb_flow;
        slow "noise to spur budget" test_oscillator_noise_to_spur_budget;
      ] );
  ]
