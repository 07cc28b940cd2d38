(* Tests for rfkit_noise: Floquet/PPV machinery and the phase-noise theory
   claims of the paper's Section 3 — linear jitter growth, finite
   Lorentzian, power conservation, LTV divergence. *)

open Rfkit_la
open Rfkit_noise

let check_float ?(eps = 1e-9) msg expected actual =
  Alcotest.(check (float eps)) msg expected actual

let converged = function
  | Rfkit_solve.Supervisor.Converged (r, _) -> r
  | Rfkit_solve.Supervisor.Failed f ->
      Alcotest.fail (Rfkit_solve.Supervisor.failure_to_string f)

(* shared solved orbit: lossy van der Pol (has a thermal noise source) *)
let vdp_orbit =
  lazy (Oscillators.solve ~steps_per_period:300 (Oscillators.van_der_pol ()))

let vdp_analysis = lazy (Phase_noise.analyze (Lazy.force vdp_orbit))

(* ---------------------------------------------------------------- Rng *)

let test_rng_reproducible () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 10 do
    check_float "same stream" (Rng.uniform a) (Rng.uniform b)
  done

let test_rng_gaussian_moments () =
  let rng = Rng.create 11 in
  let n = 20000 in
  let xs = Array.init n (fun _ -> Rng.gaussian rng) in
  check_float ~eps:0.03 "mean" 0.0 (Stats.mean xs);
  check_float ~eps:0.05 "variance" 1.0 (Stats.variance xs)

(* ------------------------------------------------------------- Floquet *)

let test_floquet_unit_multiplier () =
  let fl = (Lazy.force vdp_analysis).Phase_noise.floquet in
  Alcotest.(check bool)
    (Printf.sprintf "mu1 error %.2e" (Floquet.unit_multiplier_error fl))
    true
    (Floquet.unit_multiplier_error fl < 2e-2);
  (* second multiplier strictly inside the unit circle: stable orbit *)
  Alcotest.(check bool) "orbit stable" true
    (Cx.abs fl.Floquet.multipliers.(1) < 0.99)

let test_floquet_normalization_constancy () =
  let fl = (Lazy.force vdp_analysis).Phase_noise.floquet in
  Alcotest.(check bool)
    (Printf.sprintf "drift %.2e" fl.Floquet.normalization_drift)
    true
    (fl.Floquet.normalization_drift < 0.05)

let test_floquet_ppv_periodicity () =
  let fl = (Lazy.force vdp_analysis).Phase_noise.floquet in
  let err = Floquet.ppv_periodicity_error fl in
  Alcotest.(check bool) (Printf.sprintf "periodicity %.2e" err) true (err < 1e-3)

let test_floquet_rejects_forced () =
  (* a driven RC circuit has no unit multiplier *)
  let open Rfkit_circuit in
  let nl = Netlist.create () in
  Netlist.vsource nl "V1" "in" "0" (Wave.sine 1.0 1e6);
  Netlist.resistor nl "R1" "in" "out" 1e3;
  Netlist.capacitor nl "C1" "out" "0" 1e-9;
  let c = Mna.build nl in
  let orbit = converged (Rfkit_rf.Shooting.solve_outcome c ~freq:1e6) in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Floquet.compute orbit);
       false
     with Invalid_argument _ -> true)

(* ---------------------------------------------------------- Phase noise *)

let test_c_positive_and_small () =
  let res = Lazy.force vdp_analysis in
  Alcotest.(check bool) (Printf.sprintf "c = %.3e" res.Phase_noise.c) true
    (res.Phase_noise.c > 0.0 && res.Phase_noise.c < 1e-12)

let test_contributions_sum () =
  let res = Lazy.force vdp_analysis in
  let total =
    List.fold_left (fun s (_, v) -> s +. v) 0.0 res.Phase_noise.contributions
  in
  check_float ~eps:(1e-12 *. res.Phase_noise.c) "sum" res.Phase_noise.c total;
  (* the lossy vdP has exactly one noise source: the tank resistor *)
  Alcotest.(check int) "one source" 1 (List.length res.Phase_noise.contributions)

let test_lorentzian_finite_at_carrier () =
  let res = Lazy.force vdp_analysis in
  let s0 = Phase_noise.lorentzian res ~harmonic:1 0.0 in
  Alcotest.(check bool) "finite" true (Float.is_finite s0 && s0 > 0.0);
  (* LTV prediction diverges at the carrier instead *)
  Alcotest.(check bool) "ltv diverges" true
    (Phase_noise.ltv_psd res ~harmonic:1 0.0 = infinity)

let test_lorentzian_matches_ltv_far_out () =
  let res = Lazy.force vdp_analysis in
  let corner = Phase_noise.corner_offset res in
  let fm = 1e4 *. corner in
  let s_lor = Phase_noise.lorentzian res ~harmonic:1 fm in
  let ltv = Phase_noise.ltv_psd res ~harmonic:1 fm in
  check_float ~eps:(1e-6 *. ltv) "asymptote" ltv s_lor

let test_lorentzian_power_conserved () =
  let res = Lazy.force vdp_analysis in
  let ratio = Phase_noise.total_power_ratio res ~harmonic:1 in
  check_float ~eps:2e-2 "total power" 1.0 ratio

let test_lorentzian_monotone_rolloff () =
  let res = Lazy.force vdp_analysis in
  let corner = Phase_noise.corner_offset res in
  let prev = ref (Phase_noise.lorentzian res ~harmonic:1 0.0) in
  for k = 1 to 6 do
    let fm = corner *. (10.0 ** float_of_int (k - 3)) in
    let s = Phase_noise.lorentzian res ~harmonic:1 fm in
    Alcotest.(check bool) (Printf.sprintf "rolloff %d" k) true (s <= !prev +. 1e-30);
    prev := s
  done

let test_jitter_grows_linearly () =
  let res = Lazy.force vdp_analysis in
  let t1 = 1e-6 and t2 = 2e-6 in
  check_float
    ~eps:(1e-12 *. Phase_noise.jitter_variance res t2)
    "linear"
    (2.0 *. Phase_noise.jitter_variance res t1)
    (Phase_noise.jitter_variance res t2)

let test_l_dbc_shape () =
  (* L(fm) should fall ~20 dB/decade in the 1/f^2 region *)
  let res = Lazy.force vdp_analysis in
  let corner = Phase_noise.corner_offset res in
  let l1 = Phase_noise.l_dbc res ~fm:(1e3 *. corner) in
  let l2 = Phase_noise.l_dbc res ~fm:(1e4 *. corner) in
  check_float ~eps:0.2 "20 dB per decade" 20.0 (l1 -. l2)

(* --------------------------------------------------------- Monte-Carlo *)

let test_monte_carlo_slope_matches_c () =
  (* exaggerate the thermal noise so the random walk dominates within an
     affordable ensemble; fine steps keep the discretization-induced
     excess diffusion (which decays ~h^2) small *)
  let orbit = Oscillators.solve ~steps_per_period:900 (Oscillators.van_der_pol ()) in
  let res = Phase_noise.analyze orbit in
  let noise_scale = 1e6 in
  let ens =
    Jitter.run ~seed:3 ~trajectories:24 ~noise_scale orbit ~periods:40 ~node:"tank"
  in
  let slope, r2 = Jitter.fitted_slope ens in
  let expected = noise_scale *. res.Phase_noise.c in
  Alcotest.(check bool)
    (Printf.sprintf "linear growth (r2 = %.3f)" r2)
    true (r2 > 0.9);
  Alcotest.(check bool)
    (Printf.sprintf "slope %.3e vs c %.3e (ratio %.2f)" slope expected (slope /. expected))
    true
    (slope > 0.6 *. expected && slope < 1.8 *. expected)

(* --------------------------------------------------------- flicker *)

let test_flicker_corner_and_slopes () =
  (* add a 50 kHz-corner excess-noise generator: L(fm) gains a 1/f^3
     region below the corner *)
  let orbit =
    Oscillators.solve ~steps_per_period:300 (Oscillators.van_der_pol ~with_flicker:true ())
  in
  let res = Phase_noise.analyze orbit in
  Alcotest.(check bool) "flicker weight positive" true (res.Phase_noise.c_flicker > 0.0);
  let corner = Phase_noise.flicker_corner_offset res in
  (* the excess source has the same white PSD as the tank resistor and a
     50 kHz corner: the L(fm) corner sits at c_fl/c = 50 kHz / 2 *)
  check_float ~eps:(0.05 *. corner) "corner placement" 25e3 corner;
  (* slopes: ~30 dB/decade well below the corner, ~20 well above *)
  let slope f = Phase_noise.l_dbc_colored res ~fm:f -. Phase_noise.l_dbc_colored res ~fm:(10.0 *. f) in
  Alcotest.(check bool)
    (Printf.sprintf "1/f^3 region slope %.1f" (slope 100.0))
    true
    (slope 100.0 > 28.0 && slope 100.0 < 31.0);
  Alcotest.(check bool)
    (Printf.sprintf "1/f^2 region slope %.1f" (slope 10e6))
    true
    (slope 10e6 > 19.0 && slope 10e6 < 21.0);
  (* two sources now contribute *)
  Alcotest.(check int) "two sources" 2 (List.length res.Phase_noise.contributions)

let test_flicker_in_ac_noise () =
  (* AC noise of an R-C with an added flicker generator rises at low f *)
  let open Rfkit_circuit in
  let nl = Netlist.create () in
  Netlist.resistor nl "R1" "out" "0" 1e3;
  Netlist.capacitor nl "C1" "out" "0" 1e-12;
  Netlist.noise_current nl "NF" "out" "0" ~white:1e-22 ~flicker_corner:1e6;
  let c = Mna.build nl in
  let psd = Ac.output_noise c ~node:"out" ~freqs:[| 1e3; 1e6; 1e9 |] in
  Alcotest.(check bool)
    (Printf.sprintf "low-frequency rise: %.3g vs %.3g" psd.(0) psd.(1))
    true
    (psd.(0) > 100.0 *. psd.(1) /. 2.0);
  Alcotest.(check bool) "white floor at high f" true (psd.(2) < psd.(1))

(* ----------------------------------------------------- cyclostationary *)

let test_cyclo_collapses_to_lti () =
  (* zero-amplitude drive = time-invariant circuit: the LPTV analysis must
     reproduce the stationary AC noise at every frequency, including ones
     beyond the first Nyquist zone of the harmonic truncation *)
  let open Rfkit_circuit in
  let nl = Netlist.create () in
  Netlist.vsource nl "V1" "in" "0" (Wave.sine 0.0 1e6);
  Netlist.resistor nl "R1" "in" "out" 1e3;
  Netlist.capacitor nl "C1" "out" "0" 1e-9;
  let c = Mna.build nl in
  let hb = converged (Rfkit_rf.Hb.solve_outcome c ~freq:1e6) in
  let freqs = [| 1e4; 159.155e3; 2.5e6 |] in
  let cyc = Cyclo.output_noise hb ~node:"out" ~freqs in
  let ac = Ac.output_noise c ~node:"out" ~freqs in
  Array.iteri
    (fun i v -> check_float ~eps:(1e-6 *. v) (Printf.sprintf "f %g" freqs.(i)) v cyc.(i))
    ac

let test_cyclo_noise_folding () =
  (* ideal multiplying mixer: input white noise from both RF and image
     sidebands folds onto the IF -- output PSD = S/2 (gain 0.5 per
     sideband, two sidebands) plus the load's own thermal noise *)
  let open Rfkit_circuit in
  let f_lo = 100e6 in
  let nl = Netlist.create () in
  Netlist.vsource nl "VLO" "lo" "0" (Wave.sine 1.0 f_lo);
  Netlist.resistor nl "RN" "rf" "0" 1e3;
  Netlist.capacitor nl "CRF" "rf" "0" 1e-15;
  Netlist.mult_vccs nl "MIX" "0" "mix" ~a:("rf", "0") ~b:("lo", "0") ~k:1e-3;
  Netlist.resistor nl "RM" "mix" "0" 1e3;
  Netlist.capacitor nl "CM" "mix" "0" 1e-15;
  let c = Mna.build nl in
  let hb = converged (Rfkit_rf.Hb.solve_outcome c ~freq:f_lo) in
  let out = Cyclo.output_noise hb ~node:"mix" ~freqs:[| 5e6 |] in
  let s_r = 4.0 *. Device.boltzmann *. Device.room_temp *. 1e3 in
  let expect = (0.5 *. s_r) +. s_r in
  check_float ~eps:(1e-3 *. expect) "folded PSD" expect out.(0);
  (* the conversion-gain table shows the two symmetric sidebands *)
  let gains =
    Cyclo.conversion_gains hb ~node:"mix"
      ~source_pattern:(Mna.noise_pattern c (Mna.noise_sources c).(0))
      ~offset:5e6
  in
  let g k = List.assoc k gains in
  check_float ~eps:1e-2 "lower sideband gain" 500.0 (g (-1));
  check_float ~eps:1e-2 "upper sideband gain" 500.0 (g 1);
  Alcotest.(check bool) "no direct feedthrough" true (g 0 < 1e-3)

let test_cyclo_modulated_source () =
  (* a diode switched hard by the drive: its shot noise is cyclostationary
     (PSD follows the instantaneous current), so the output noise exceeds
     what the average current alone would predict at the conversion peaks *)
  let open Rfkit_circuit in
  let f0 = 50e6 in
  let nl = Netlist.create () in
  Netlist.vsource nl "V1" "in" "0" (Wave.Sine { ampl = 1.0; freq = f0; phase = 0.0; offset = 0.3 });
  Netlist.resistor nl "R1" "in" "d" 1e3;
  Netlist.diode nl "D1" "d" "0" ();
  let c = Mna.build nl in
  let hb = converged (Rfkit_rf.Hb.solve_outcome c ~freq:f0) in
  let out = Cyclo.output_noise hb ~node:"d" ~freqs:[| 1e6 |] in
  Alcotest.(check bool) (Printf.sprintf "psd %.3e positive" out.(0)) true (out.(0) > 0.0)

(* -------------------------------------------------- other oscillators *)

let test_negative_gm_lc () =
  let bench = Oscillators.negative_gm_lc () in
  let orbit = Oscillators.solve ~steps_per_period:200 bench in
  let f = 1.0 /. orbit.Rfkit_rf.Shooting.period in
  (* near the tank resonance, pulled slightly by the saturating pair *)
  Alcotest.(check bool)
    (Printf.sprintf "freq %.3e near guess %.3e" f bench.Oscillators.freq_guess)
    true
    (Float.abs (f -. bench.Oscillators.freq_guess) < 0.2 *. bench.Oscillators.freq_guess);
  let res = Phase_noise.analyze orbit in
  Alcotest.(check bool) "c positive" true (res.Phase_noise.c > 0.0)

let test_ring3 () =
  let bench = Oscillators.ring3 () in
  let orbit = Oscillators.solve ~steps_per_period:150 bench in
  let f = 1.0 /. orbit.Rfkit_rf.Shooting.period in
  Alcotest.(check bool) (Printf.sprintf "ring oscillates at %.3e" f) true
    (f > 1e7 && f < 1e9);
  (* three stages with three noise sources *)
  let res = Phase_noise.analyze orbit in
  Alcotest.(check int) "three noise sources" 3
    (List.length res.Phase_noise.contributions)

let suite =
  let tc name f = Alcotest.test_case name `Quick f in
  let slow name f = Alcotest.test_case name `Slow f in
  [
    ("noise.rng", [ tc "reproducible" test_rng_reproducible; tc "gaussian" test_rng_gaussian_moments ]);
    ( "noise.floquet",
      [
        slow "unit multiplier" test_floquet_unit_multiplier;
        slow "normalization constancy" test_floquet_normalization_constancy;
        slow "ppv periodicity" test_floquet_ppv_periodicity;
        tc "rejects forced circuit" test_floquet_rejects_forced;
      ] );
    ( "noise.phase",
      [
        slow "c plausible" test_c_positive_and_small;
        slow "contributions sum" test_contributions_sum;
        slow "lorentzian finite at carrier" test_lorentzian_finite_at_carrier;
        slow "matches ltv far out" test_lorentzian_matches_ltv_far_out;
        slow "power conserved" test_lorentzian_power_conserved;
        slow "monotone rolloff" test_lorentzian_monotone_rolloff;
        slow "jitter linear" test_jitter_grows_linearly;
        slow "L(fm) slope" test_l_dbc_shape;
      ] );
    ("noise.monte-carlo", [ slow "slope matches c" test_monte_carlo_slope_matches_c ]);
    ( "noise.cyclo",
      [
        slow "collapses to lti" test_cyclo_collapses_to_lti;
        slow "noise folding" test_cyclo_noise_folding;
        slow "modulated source" test_cyclo_modulated_source;
      ] );
    ( "noise.flicker",
      [
        slow "corner and slopes" test_flicker_corner_and_slopes;
        tc "ac noise" test_flicker_in_ac_noise;
      ] );
    ( "noise.oscillators",
      [ slow "negative-gm lc" test_negative_gm_lc; slow "ring3" test_ring3 ] );
  ]
