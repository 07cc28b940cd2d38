(* EXP-F1 -- Fig 1: modulator in-band spectrum via two-tone harmonic
   balance. Paper: dual-conversion quadrature modulator, 80 kHz base-band
   on a 1.62 GHz carrier; spur table shows a -35 dBc sideband from a
   layout imbalance and a weak LO spurious response near -78 dBc that
   conventional transient analysis missed. *)

open Rfkit
open Rfkit_circuits

let solve () =
  let p = Modulator.paper_params in
  let c = Modulator.build p in
  Util.converged (Rf.Hb2.solve_outcome
    ~options:{ Rf.Hb2.default_options with n1 = 8; n2 = 8 }
    c ~f1:p.Modulator.f_bb ~f2:p.Modulator.f_lo)

let report () =
  Util.section "EXP-F1 | Fig 1: modulator in-band spectrum (two-tone HB)";
  let p = Modulator.paper_params in
  let res, dt = Util.timed solve in
  Printf.printf "  tones: %.0f kHz base-band, %.2f GHz carrier (separation %.0fx)\n"
    (p.Modulator.f_bb /. 1e3)
    (p.Modulator.f_lo /. 1e9)
    (p.Modulator.f_lo /. p.Modulator.f_bb);
  Printf.printf "  HB2: %d Newton / %d GMRES iterations, residual %.1e, %.3f s\n\n"
    res.Rf.Hb2.newton_iters res.Rf.Hb2.gmres_iters_total res.Rf.Hb2.residual dt;
  let carrier = Rf.Hb2.mix_amplitude res Modulator.output_node ~k1:(-1) ~k2:1 in
  Printf.printf "  in-band lines (dBc vs the %.3f V desired sideband):\n" carrier;
  List.iter
    (fun (s : Rf.Hb2.spur) ->
      let offset = s.Rf.Hb2.freq -. p.Modulator.f_lo in
      if Float.abs offset < 6.0 *. p.Modulator.f_bb && s.Rf.Hb2.amplitude > 1e-7 then
        Printf.printf "    %+9.0f kHz  (%+d,%+d)  %8.2f dBc\n" (offset /. 1e3)
          s.Rf.Hb2.k1 s.Rf.Hb2.k2
          (Rf.Spectrum.dbc ~carrier s.Rf.Hb2.amplitude))
    (Rf.Hb2.spectrum res Modulator.output_node);
  print_newline ();
  let image_dbc =
    Rf.Spectrum.dbc ~carrier (Rf.Hb2.mix_amplitude res Modulator.output_node ~k1:1 ~k2:1)
  in
  let leak_dbc =
    Rf.Spectrum.dbc ~carrier (Rf.Hb2.mix_amplitude res Modulator.output_node ~k1:0 ~k2:1)
  in
  Util.verdict ~label:"imbalance sideband" ~paper:"-35 dBc"
    ~measured:(Printf.sprintf "%.1f dBc" image_dbc)
    ~ok:(Float.abs (image_dbc +. 35.0) < 1.5);
  Util.verdict ~label:"LO spurious response" ~paper:"~-78 dBc"
    ~measured:(Printf.sprintf "%.1f dBc" leak_dbc)
    ~ok:(Float.abs (leak_dbc +. 78.0) < 1.5)

let bench_tests =
  [ Bechamel.Test.make ~name:"fig1.hb2_modulator" (Bechamel.Staged.stage solve) ]
