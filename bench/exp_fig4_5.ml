(* EXP-F4 / EXP-F5 -- Figs 4-5: the switching mixer.

   Fig 4: MMFT output -- time-varying first and third slow harmonics; the
   900.1 MHz mix at ~60 mV and the 900.3 MHz distortion at ~1.1 mV, 35 dB
   down.

   Fig 5: the same answer from univariate shooting "took almost 300 times
   as long" at 50 steps per fast period. The full univariate run (9000 LO
   cycles per RF period, times Newton iterations) is costed from a
   measured per-cycle time. *)

open Rfkit
open Rfkit_circuits

let solve_mmft () =
  let p = Mixer.paper_params in
  let c = Mixer.build p in
  Util.converged
    (Rf.Mmft.solve_outcome
       ~options:{ Rf.Mmft.default_options with slow_harmonics = 3; steps2 = 50 }
       c ~f1:p.Mixer.f_rf ~f2:p.Mixer.f_lo)

let report () =
  Util.section "EXP-F4 | Fig 4: switching mixer via MMFT";
  let p = Mixer.paper_params in
  let res, t_mmft = Util.timed solve_mmft in
  Printf.printf "  MMFT: %d slow harmonics, %d fast steps/period, %d Newton iters, %.3f s\n"
    res.Rf.Mmft.options.Rf.Mmft.slow_harmonics res.Rf.Mmft.options.Rf.Mmft.steps2
    res.Rf.Mmft.newton_iters t_mmft;
  let a1 = Rf.Mmft.mix_amplitude res Mixer.output_node ~slow:1 ~fast:1 in
  let a3 = Rf.Mmft.mix_amplitude res Mixer.output_node ~slow:3 ~fast:1 in
  Util.verdict ~label:"main mix (900.1 MHz) amplitude" ~paper:"60 mV"
    ~measured:(Printf.sprintf "%.1f mV" (a1 *. 1e3))
    ~ok:(Float.abs ((a1 *. 1e3) -. 60.0) < 6.0);
  Util.verdict ~label:"3rd-harmonic mix (900.3 MHz)" ~paper:"~1.1 mV"
    ~measured:(Printf.sprintf "%.2f mV" (a3 *. 1e3))
    ~ok:(a3 *. 1e3 > 0.7 && a3 *. 1e3 < 1.5);
  Util.verdict ~label:"distortion below carrier" ~paper:"~35 dB"
    ~measured:(Printf.sprintf "%.1f dB" (20.0 *. log10 (a1 /. a3)))
    ~ok:(Float.abs ((20.0 *. log10 (a1 /. a3)) -. 35.0) < 3.0);

  Util.section "EXP-F5 | Fig 5: univariate shooting baseline";
  let c = Mixer.build p in
  let cycles = int_of_float (p.Mixer.f_lo /. p.Mixer.f_rf) in
  let sample_cycles = 100 in
  let _, t_sample =
    Util.timed (fun () ->
        Circuit.Tran.run c
          ~t_stop:(float_of_int sample_cycles /. p.Mixer.f_lo)
          ~dt:(1.0 /. p.Mixer.f_lo /. 50.0))
  in
  let per_cycle = t_sample /. float_of_int sample_cycles in
  let newton = 4 in
  let t_shoot = per_cycle *. float_of_int (cycles * newton) in
  Printf.printf "  shooting at 50 steps/LO cycle: %d cycles/RF period x %d Newton\n"
    cycles newton;
  Printf.printf "  measured %.1f us per LO cycle -> %.1f s for the full solve\n"
    (per_cycle *. 1e6) t_shoot;
  Util.verdict ~label:"MMFT speedup over shooting" ~paper:"~300x"
    ~measured:(Printf.sprintf "%.0fx" (t_shoot /. t_mmft))
    ~ok:(t_shoot /. t_mmft > 50.0)

let bench_tests =
  [
    Bechamel.Test.make ~name:"fig4.mmft_mixer" (Bechamel.Staged.stage solve_mmft);
    Bechamel.Test.make ~name:"fig5.shooting_100_lo_cycles"
      (Bechamel.Staged.stage (fun () ->
           let p = Mixer.paper_params in
           let c = Mixer.build p in
           Circuit.Tran.run c
             ~t_stop:(100.0 /. p.Mixer.f_lo)
             ~dt:(1.0 /. p.Mixer.f_lo /. 50.0)));
  ]
