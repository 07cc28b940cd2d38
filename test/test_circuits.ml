(* Regression tests pinning the paper-benchmark circuits to the numbers
   the reproduction reports (see EXPERIMENTS.md). *)

open Rfkit_la
open Rfkit_rf
open Rfkit_circuits

let check_float ?(eps = 1e-9) msg expected actual =
  Alcotest.(check (float eps)) msg expected actual

let converged = function
  | Rfkit_solve.Supervisor.Converged (r, _) -> r
  | Rfkit_solve.Supervisor.Failed f ->
      Alcotest.fail (Rfkit_solve.Supervisor.failure_to_string f)

(* -------------------------------------------------------- Fig 4 mixer *)

let test_mixer_fig4_numbers () =
  let p = Mixer.paper_params in
  let c = Mixer.build p in
  let res =
    converged
      (Mmft.solve_outcome
         ~options:{ Mmft.default_options with slow_harmonics = 3; steps2 = 50 }
         c ~f1:p.Mixer.f_rf ~f2:p.Mixer.f_lo)
  in
  let a1 = Mmft.mix_amplitude res Mixer.output_node ~slow:1 ~fast:1 in
  let a3 = Mmft.mix_amplitude res Mixer.output_node ~slow:3 ~fast:1 in
  check_float ~eps:2e-3 "main mix ~60 mV" 60e-3 a1;
  check_float ~eps:0.2e-3 "third mix ~1.1 mV" 1.0e-3 a3;
  let ratio_db = 20.0 *. log10 (a1 /. a3) in
  Alcotest.(check bool)
    (Printf.sprintf "35 dB distortion (got %.1f)" ratio_db)
    true
    (Float.abs (ratio_db -. 35.0) < 2.0)

let test_mixer_scales () =
  (* a scaled mixer keeps the same relative distortion: the ratio is set by
     the limiter, not by the tone placement *)
  let p = Mixer.scaled_params ~f_rf:10e3 ~f_lo:50e6 in
  let c = Mixer.build p in
  let res = converged (Mmft.solve_outcome c ~f1:p.Mixer.f_rf ~f2:p.Mixer.f_lo) in
  let a1 = Mmft.mix_amplitude res Mixer.output_node ~slow:1 ~fast:1 in
  let a3 = Mmft.mix_amplitude res Mixer.output_node ~slow:3 ~fast:1 in
  Alcotest.(check bool) "ratio preserved" true
    (Float.abs ((20.0 *. log10 (a1 /. a3)) -. 35.0) < 3.0)

(* ---------------------------------------------------- Fig 1 modulator *)

let test_modulator_fig1_numbers () =
  let p = Modulator.paper_params in
  let c = Modulator.build p in
  let res =
    converged (Hb2.solve_outcome ~options:{ Hb2.default_options with n1 = 8; n2 = 8 } c
      ~f1:p.Modulator.f_bb ~f2:p.Modulator.f_lo)
  in
  let carrier = Hb2.mix_amplitude res Modulator.output_node ~k1:(-1) ~k2:1 in
  let image = Hb2.mix_amplitude res Modulator.output_node ~k1:1 ~k2:1 in
  let leak = Hb2.mix_amplitude res Modulator.output_node ~k1:0 ~k2:1 in
  check_float ~eps:1.0 "image -35 dBc" (-35.0) (Spectrum.dbc ~carrier image);
  check_float ~eps:1.0 "LO leak -78 dBc" (-78.0) (Spectrum.dbc ~carrier leak);
  (* parameter->spur estimates agree with the solved circuit *)
  check_float ~eps:1.0 "image estimate" (Modulator.expected_image_dbc p)
    (Spectrum.dbc ~carrier image)

let test_modulator_ideal_rejects_image () =
  (* zero imbalance: the image vanishes below -100 dBc *)
  let p = { Modulator.paper_params with Modulator.gain_imbalance = 0.0 } in
  let c = Modulator.build p in
  let res =
    converged (Hb2.solve_outcome ~options:{ Hb2.default_options with n1 = 8; n2 = 8 } c
      ~f1:p.Modulator.f_bb ~f2:p.Modulator.f_lo)
  in
  let carrier = Hb2.mix_amplitude res Modulator.output_node ~k1:(-1) ~k2:1 in
  let image = Hb2.mix_amplitude res Modulator.output_node ~k1:1 ~k2:1 in
  Alcotest.(check bool) "image suppressed" true
    (Spectrum.dbc ~carrier image < -100.0)

(* -------------------------------------------------------- converter *)

let test_converter_engines_agree () =
  let p = Converter.default_params in
  let c = Converter.build p in
  let mf =
    converged @@ Mfdtd.solve_outcome
      ~options:{ Mfdtd.default_options with n1 = 12; n2 = 32 }
      c ~f1:p.Converter.f_mod ~f2:p.Converter.f_pwm
  in
  let hs =
    converged @@ Hs.solve_outcome
      ~options:{ Hs.default_options with n1 = 12; steps2 = 32 }
      c ~f1:p.Converter.f_mod ~f2:p.Converter.f_pwm
  in
  let gm = Mfdtd.node_grid mf Converter.output_node in
  let gh = Hs.node_grid hs Converter.output_node in
  Alcotest.(check bool) "MFDTD = HS" true (Mat.max_abs (Mat.sub gm gh) < 1e-4)

let test_converter_tracks_modulation () =
  let p = Converter.default_params in
  let c = Converter.build p in
  let mf =
    converged @@ Mfdtd.solve_outcome
      ~options:{ Mfdtd.default_options with n1 = 16; n2 = 32 }
      c ~f1:p.Converter.f_mod ~f2:p.Converter.f_pwm
  in
  let grid = Mfdtd.node_grid mf Converter.output_node in
  (* fast-axis mean per slow sample follows the input modulation shape:
     peak near t1 = T/4, trough near 3T/4 *)
  let mean i1 = Stats.mean (Mat.row grid i1) in
  Alcotest.(check bool) "peak in the first half" true (mean 4 > mean 12);
  (* swing matches the modulation depth times the conversion gain *)
  let swing = mean 4 -. mean 12 in
  Alcotest.(check bool)
    (Printf.sprintf "swing %.3f plausible" swing)
    true
    (swing > 0.05 && swing < 0.5)

(* ------------------------------------------------------------- deck *)

let test_deck_noise_directive () =
  let text = "R1 out 0 1k\nC1 out 0 1p\n.noise 1e3 1e9\n.print out\n" in
  let _, dirs = Rfkit_circuit.Deck.parse_string text in
  Alcotest.(check bool) "parsed" true
    (List.exists
       (function
         | Rfkit_circuit.Deck.Noise_sweep { f_start; f_stop } ->
             f_start = 1e3 && f_stop = 1e9
         | _ -> false)
       dirs)

let suite =
  let tc name f = Alcotest.test_case name `Quick f in
  let slow name f = Alcotest.test_case name `Slow f in
  [
    ( "circuits.mixer",
      [ slow "fig4 numbers" test_mixer_fig4_numbers; slow "scaled" test_mixer_scales ] );
    ( "circuits.modulator",
      [
        tc "fig1 numbers" test_modulator_fig1_numbers;
        tc "ideal rejects image" test_modulator_ideal_rejects_image;
      ] );
    ( "circuits.converter",
      [
        slow "engines agree" test_converter_engines_agree;
        slow "tracks modulation" test_converter_tracks_modulation;
      ] );
    ("circuits.deck", [ tc "noise directive" test_deck_noise_directive ]);
  ]
