(* EXP-S3 -- Section 3 (no figure in the paper): the phase-noise theory's
   quantitative claims, checked on the lossy van der Pol oscillator:

   - mean-square jitter grows "precisely linearly" with time;
   - the perturbed spectrum is finite at the carrier (Lorentzian) while
     LTI/LTV analyses "erroneously predict infinite noise power density at
     the carrier";
   - "total carrier power is preserved despite spectral spreading";
   - per-source contributions and two independent analytic cross-checks
     of the diffusion constant. *)

open Rfkit
open Noise

let orbit () = Oscillators.solve ~steps_per_period:300 (Oscillators.van_der_pol ())

let report () =
  Util.section "EXP-S3 | Section 3: oscillator phase noise";
  let orb, t_orbit = Util.timed orbit in
  let res, t_pn = Util.timed (fun () -> Phase_noise.analyze orb) in
  let f0 = Phase_noise.oscillator_frequency res in
  Printf.printf "  lossy van der Pol: f0 = %.4f MHz (shooting %.2f s, PPV %.2f s)\n"
    (f0 /. 1e6) t_orbit t_pn;
  let fl = res.Phase_noise.floquet in
  Printf.printf "  Floquet multipliers: %s\n"
    (String.concat ", "
       (Array.to_list
          (Array.map (fun m -> Printf.sprintf "%.4f" (La.Cx.abs m)) fl.Floquet.multipliers)));
  Printf.printf "  c = %.4e s\n\n" res.Phase_noise.c;

  (* analytic cross-checks *)
  let r = 2e3 and cap = 1e-9 in
  let amp = Rf.Grid.amplitude (Rf.Shooting.waveform orb "tank") 1 in
  let s_noise = 4.0 *. Circuit.Device.boltzmann *. Circuit.Device.room_temp /. r in
  let w0 = 2.0 *. Float.pi *. f0 in
  let c_analytic = s_noise /. (4.0 *. amp *. amp *. cap *. cap *. w0 *. w0) in
  Util.verdict ~label:"c vs high-Q LC analytic formula"
    ~paper:"(theory exact)"
    ~measured:(Printf.sprintf "ratio %.3f" (res.Phase_noise.c /. c_analytic))
    ~ok:(Float.abs ((res.Phase_noise.c /. c_analytic) -. 1.0) < 0.05);
  let q_tank = r /. (w0 *. 1e-6) in
  let p_sig = amp *. amp /. (2.0 *. r) in
  let leeson fm =
    Rfkit.La.Stats.db10
      (2.0 *. Circuit.Device.boltzmann *. Circuit.Device.room_temp /. p_sig
      *. Float.pow (f0 /. (2.0 *. q_tank *. fm)) 2.0)
  in
  let l_1k = Phase_noise.l_dbc res ~fm:1e3 in
  Util.verdict ~label:"L(1 kHz) vs Leeson's formula"
    ~paper:(Printf.sprintf "%.1f dBc/Hz" (leeson 1e3))
    ~measured:(Printf.sprintf "%.1f dBc/Hz" l_1k)
    ~ok:(Float.abs (l_1k -. leeson 1e3) < 1.0);

  (* the three structural claims *)
  Util.verdict ~label:"jitter variance linear in t" ~paper:"precisely linear"
    ~measured:
      (Printf.sprintf "Var(2t)/Var(t) = %.4f"
         (Phase_noise.jitter_variance res 2e-6 /. Phase_noise.jitter_variance res 1e-6))
    ~ok:
      (Float.abs
         ((Phase_noise.jitter_variance res 2e-6 /. Phase_noise.jitter_variance res 1e-6)
         -. 2.0)
      < 1e-9);
  let s0 = Phase_noise.lorentzian res ~harmonic:1 0.0 in
  Util.verdict ~label:"spectrum finite at carrier" ~paper:"finite (Lorentzian)"
    ~measured:(Printf.sprintf "S(0) = %.3e /Hz" s0)
    ~ok:(Float.is_finite s0);
  Util.verdict ~label:"LTV prediction at carrier" ~paper:"infinite (wrong)"
    ~measured:
      (if Phase_noise.ltv_psd res ~harmonic:1 0.0 = infinity then "infinite" else "finite")
    ~ok:(Phase_noise.ltv_psd res ~harmonic:1 0.0 = infinity);
  Util.verdict ~label:"carrier power preserved" ~paper:"integral = 1"
    ~measured:(Printf.sprintf "%.4f" (Phase_noise.total_power_ratio res ~harmonic:1))
    ~ok:(Float.abs (Phase_noise.total_power_ratio res ~harmonic:1 -. 1.0) < 0.02);

  (* Monte-Carlo validation on a finer orbit *)
  Util.subsection "Monte-Carlo validation (noise x 1e6)";
  let fine, _ = Util.timed (fun () -> Oscillators.solve ~steps_per_period:900 (Oscillators.van_der_pol ())) in
  let res_fine = Phase_noise.analyze fine in
  let ens, t_mc =
    Util.timed (fun () ->
        Jitter.run ~seed:11 ~trajectories:20 ~noise_scale:1e6 fine ~periods:35
          ~node:"tank")
  in
  let slope, r2 = Jitter.fitted_slope ens in
  Printf.printf "  ensemble of 20 noisy trajectories, 35 cycles: %.1f s\n" t_mc;
  Util.verdict ~label:"MC jitter slope vs c" ~paper:"equal"
    ~measured:
      (Printf.sprintf "ratio %.2f (r2 %.3f)" (slope /. (1e6 *. res_fine.Phase_noise.c)) r2)
    ~ok:
      (slope > 0.6 *. 1e6 *. res_fine.Phase_noise.c
      && slope < 1.9 *. 1e6 *. res_fine.Phase_noise.c);

  Util.subsection "cyclostationary noise (forced circuits)";
  (* the intro's claim that RF noise needs cyclostationary treatment: an
     ideal switching mixer folds input noise from both sidebands onto the
     IF -- stationary AC analysis misses half the noise *)
  let open Rfkit_circuit in
  let f_lo = 100e6 in
  let nl = Netlist.create () in
  Netlist.vsource nl "VLO" "lo" "0" (Wave.sine 1.0 f_lo);
  Netlist.resistor nl "RN" "rf" "0" 1e3;
  Netlist.capacitor nl "CRF" "rf" "0" 1e-15;
  Netlist.mult_vccs nl "MIXN" "0" "mix" ~a:("rf", "0") ~b:("lo", "0") ~k:1e-3;
  Netlist.resistor nl "RM" "mix" "0" 1e3;
  Netlist.capacitor nl "CM" "mix" "0" 1e-15;
  let cm = Mna.build nl in
  let hbm = Util.converged (Rf.Hb.solve_outcome cm ~freq:f_lo) in
  let folded = (Cyclo.output_noise hbm ~node:"mix" ~freqs:[| 5e6 |]).(0) in
  let s_r = 4.0 *. Device.boltzmann *. Device.room_temp *. 1e3 in
  Util.verdict ~label:"mixer IF noise with folding" ~paper:"cyclostationary"
    ~measured:
      (Printf.sprintf "%.3e vs analytic %.3e" folded ((0.5 *. s_r) +. s_r))
    ~ok:(Float.abs (folded -. ((0.5 *. s_r) +. s_r)) < 0.01 *. folded);

  Util.subsection "per-source contributions";
  List.iter
    (fun (label, v) ->
      Printf.printf "  %-20s %.3e s (%.1f%%)\n" label v
        (100.0 *. v /. res.Phase_noise.c))
    res.Phase_noise.contributions

let bench_tests =
  [
    Bechamel.Test.make ~name:"sec3.vdp_shooting" (Bechamel.Staged.stage orbit);
    Bechamel.Test.make ~name:"sec3.ppv_analysis"
      (Bechamel.Staged.stage
         (let orb = orbit () in
          fun () -> Phase_noise.analyze orb));
  ]
