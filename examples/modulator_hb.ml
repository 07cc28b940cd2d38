(* The paper's Fig 1 experiment: in-band output spectrum of a quadrature
   modulator with an 80 kHz base-band and a 1.62 GHz carrier -- six decades
   of tone separation -- solved by two-tone harmonic balance, with the
   transient-analysis dynamic-range comparison of Section 2.1.

     dune exec examples/modulator_hb.exe *)

open Rfkit
open Rfkit_circuits

let () =
  let p = Modulator.paper_params in
  let c = Modulator.build p in
  Printf.printf
    "quadrature modulator: base-band %.0f kHz, carrier %.2f GHz (ratio %.0f)\n\n"
    (p.Modulator.f_bb /. 1e3)
    (p.Modulator.f_lo /. 1e9)
    (p.Modulator.f_lo /. p.Modulator.f_bb);

  (* --- two-tone HB ----------------------------------------------------- *)
  let t0 = Unix.gettimeofday () in
  let res =
    match
      Rf.Hb2.solve_outcome
        ~options:{ Rf.Hb2.default_options with n1 = 8; n2 = 8 }
        c ~f1:p.Modulator.f_bb ~f2:p.Modulator.f_lo
    with
    | Solve.Supervisor.Converged (res, _) -> res
    | Solve.Supervisor.Failed f -> failwith (Solve.Supervisor.failure_to_string f)
  in
  let dt = Unix.gettimeofday () -. t0 in
  Printf.printf "HB2: %d Newton iterations, %d GMRES iterations, %.3f s\n\n"
    res.Rf.Hb2.newton_iters res.Rf.Hb2.gmres_iters_total dt;

  (* --- Fig 1: the in-band spectrum ------------------------------------- *)
  let carrier = Rf.Hb2.mix_amplitude res Modulator.output_node ~k1:(-1) ~k2:1 in
  Printf.printf "in-band spectrum (dBc relative to the %.4f V desired sideband):\n"
    carrier;
  Printf.printf "  %-14s %-28s %10s\n" "freq offset" "line" "level";
  let spurs = Rf.Hb2.spectrum res Modulator.output_node in
  List.iter
    (fun (s : Rf.Hb2.spur) ->
      let offset = s.Rf.Hb2.freq -. p.Modulator.f_lo in
      if Float.abs offset < 6.0 *. p.Modulator.f_bb && s.Rf.Hb2.amplitude > 1e-7 then begin
        let label =
          if s.Rf.Hb2.k1 = -1 && s.Rf.Hb2.k2 = 1 then "desired sideband"
          else if s.Rf.Hb2.k1 = 1 && s.Rf.Hb2.k2 = 1 then "image (layout imbalance)"
          else if s.Rf.Hb2.k1 = 0 && s.Rf.Hb2.k2 = 1 then "LO feed-through spur"
          else Printf.sprintf "mix (%+d, %+d)" s.Rf.Hb2.k1 s.Rf.Hb2.k2
        in
        Printf.printf "  %+9.0f kHz  %-28s %7.2f dBc\n" (offset /. 1e3) label
          (Rf.Spectrum.dbc ~carrier s.Rf.Hb2.amplitude)
      end)
    spurs;
  Printf.printf "\npaper's Fig 1: sideband at -35 dBc (out of spec, traced to a\n";
  Printf.printf "layout imbalance) and a weak LO spur at -78 dBc.\n";

  (* --- Section 2.1: what transient analysis can and cannot see --------- *)
  Printf.printf "\ntransient comparison (paper ran base-band at 1 MHz to cope):\n";
  let f_bb_tran = 1e6 in
  let c_tran = Modulator.build { p with Modulator.f_bb = f_bb_tran } in
  let dt_step = 1.0 /. p.Modulator.f_lo /. 24.0 in
  let t_stop = 2.0 /. f_bb_tran in
  let t0 = Unix.gettimeofday () in
  let tran = Circuit.Tran.run c_tran ~t_stop ~dt:dt_step in
  let t_tran = Unix.gettimeofday () -. t0 in
  let v = Circuit.Tran.voltage_trace c_tran tran Modulator.output_node in
  let lines =
    Rf.Spectrum.of_transient ~times:tran.Circuit.Tran.times ~values:v
      ~window:(1.0 /. f_bb_tran) ~n_fft:65536
  in
  let desired_f = p.Modulator.f_lo -. f_bb_tran in
  let car_line = Rf.Spectrum.nearest lines desired_f in
  let leak =
    Rf.Spectrum.demodulate ~times:tran.Circuit.Tran.times ~values:v
      ~freq:p.Modulator.f_lo ~window:(1.0 /. f_bb_tran)
  in
  let floor =
    Rf.Spectrum.noise_floor lines
      ~exclude:[ desired_f; p.Modulator.f_lo; p.Modulator.f_lo +. f_bb_tran ]
      ~tol:1e-3
  in
  Printf.printf "  %d steps over 2 base-band periods: %.1f s\n"
    (Array.length tran.Circuit.Tran.times) t_tran;
  Printf.printf "  desired sideband:    %7.2f dBc (reference)\n"
    (Rf.Spectrum.dbc ~carrier:car_line.Rf.Spectrum.amplitude
       car_line.Rf.Spectrum.amplitude);
  Printf.printf "  LO spur estimate:    %7.2f dBc  (true: -78)\n"
    (Rf.Spectrum.dbc ~carrier:car_line.Rf.Spectrum.amplitude leak);
  Printf.printf "  FFT noise floor:     %7.2f dBc\n"
    (Rf.Spectrum.dbc ~carrier:car_line.Rf.Spectrum.amplitude floor);
  Printf.printf
    "  -> integration error buries the -78 dBc spur; HB resolved it to\n\
    \     machine precision at the true 80 kHz base-band, which transient\n\
    \     analysis could not even afford to simulate.\n"
