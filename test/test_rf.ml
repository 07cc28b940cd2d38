(* Tests for the rfkit_rf steady-state and multi-time engines. The key
   validation pattern is cross-engine agreement: the same circuit solved by
   AC, HB, shooting, MFDTD, HS, MMFT and transient must tell one story. *)

open Rfkit_la
open Rfkit_circuit
open Rfkit_rf

let check_float ?(eps = 1e-9) msg expected actual =
  Alcotest.(check (float eps)) msg expected actual

let converged = function
  | Rfkit_solve.Supervisor.Converged (r, _) -> r
  | Rfkit_solve.Supervisor.Failed f ->
      Alcotest.fail (Rfkit_solve.Supervisor.failure_to_string f)

(* --------------------------------------------------------------- fixtures *)

(* series RC low-pass driven by a sine *)
let rc_lowpass ~ampl ~freq =
  let nl = Netlist.create () in
  Netlist.vsource nl "V1" "in" "0" (Wave.sine ampl freq);
  Netlist.resistor nl "R1" "in" "out" 1e3;
  Netlist.capacitor nl "C1" "out" "0" 1e-9;
  Mna.build nl

(* diode half-wave rectifier with RC load *)
let rectifier ~freq =
  let nl = Netlist.create () in
  Netlist.vsource nl "V1" "in" "0" (Wave.sine 2.0 freq);
  Netlist.diode nl "D1" "in" "out" ();
  Netlist.resistor nl "RL" "out" "0" 10e3;
  Netlist.capacitor nl "CL" "out" "0" 1e-12;
  Mna.build nl

(* van der Pol oscillator: LC tank with cubic negative conductance *)
let vdp ?(g1 = -1e-3) ?(g3 = 1e-3) () =
  let nl = Netlist.create () in
  Netlist.capacitor nl "C1" "tank" "0" 1e-9;
  Netlist.inductor nl "L1" "tank" "0" 1e-6;
  Netlist.cubic_conductor nl "GN" "tank" "0" ~g1 ~g3;
  Mna.build nl

(* switching mixer: multiplying transconductor (behavioral Gilbert cell)
   commutated by an LO square wave, RF sine input, RC output filter *)
let mixer ~f_rf ~f_lo =
  let nl = Netlist.create () in
  Netlist.vsource nl "VRF" "rf" "0" (Wave.sine 0.1 f_rf);
  Netlist.vsource nl "VLO" "lo" "0" (Wave.square 1.0 f_lo);
  Netlist.mult_vccs nl "MIX" "mix" "0" ~a:("rf", "0") ~b:("lo", "0") ~k:2e-3;
  Netlist.resistor nl "RM" "mix" "0" 500.0;
  Netlist.capacitor nl "CM" "mix" "0" 10e-12;
  Mna.build nl

let expected_rc_transfer ~freq =
  (* H = 1/(1 + j w R C) with R = 1k, C = 1n *)
  let w = 2.0 *. Float.pi *. freq in
  let rc = 1e3 *. 1e-9 in
  Cx.( /: ) Cx.one (Cx.make 1.0 (w *. rc))

(* ----------------------------------------------------------------- Grid *)

let test_grid_diff_sine () =
  let n = 32 and period = 2.0 *. Float.pi in
  let samples = Vec.init n (fun i -> sin (2.0 *. Float.pi *. float_of_int i /. float_of_int n)) in
  let d = Grid.diff_samples ~period samples in
  for i = 0 to n - 1 do
    let t = period *. float_of_int i /. float_of_int n in
    check_float ~eps:1e-9 (Printf.sprintf "cos at %d" i) (cos t) d.(i)
  done

let test_grid_harmonic () =
  let n = 64 in
  let samples =
    Vec.init n (fun i ->
        let t = float_of_int i /. float_of_int n in
        0.5 +. (3.0 *. cos (2.0 *. Float.pi *. 2.0 *. t)))
  in
  check_float ~eps:1e-9 "dc" 0.5 (Grid.amplitude samples 0);
  check_float ~eps:1e-9 "second harmonic" 3.0 (Grid.amplitude samples 2);
  check_float ~eps:1e-9 "empty harmonic" 0.0 (Grid.amplitude samples 3)

(* ------------------------------------------------------------------- HB *)

let test_hb_linear_matches_ac () =
  let freq = 159.155e3 in
  (* near the RC corner *)
  let c = rc_lowpass ~ampl:1.0 ~freq in
  let res = converged (Hb.solve_outcome c ~freq) in
  let h = expected_rc_transfer ~freq in
  check_float ~eps:1e-6 "fundamental amplitude" (Cx.abs h)
    (Hb.harmonic_amplitude res "out" 1);
  check_float ~eps:1e-9 "no second harmonic" 0.0 (Hb.harmonic_amplitude res "out" 2)

let test_hb_gmres_matches_direct () =
  let freq = 1e6 in
  let c = rectifier ~freq in
  let direct = converged (Hb.solve_outcome c ~freq) in
  let gmres =
    converged (Hb.solve_outcome
      ~options:{ Hb.default_options with solver = Hb.Matrix_free_gmres }
      c ~freq)
  in
  check_float ~eps:1e-6 "dc output agrees"
    (Hb.harmonic_amplitude direct "out" 0)
    (Hb.harmonic_amplitude gmres "out" 0);
  check_float ~eps:1e-6 "fundamental agrees"
    (Hb.harmonic_amplitude direct "out" 1)
    (Hb.harmonic_amplitude gmres "out" 1);
  Alcotest.(check bool) "gmres actually iterated" true (gmres.Hb.gmres_iters_total > 0)

let test_hb_rectifier_dc () =
  let c = rectifier ~freq:1e6 in
  let res = converged (Hb.solve_outcome c ~freq:1e6) in
  (* half-wave rectified 2 V sine into light load: positive DC well below peak *)
  let dc = Grid.harmonic (Hb.waveform res "out") 0 in
  Alcotest.(check bool)
    (Printf.sprintf "dc %.3f plausible" dc.Cx.re)
    true
    (dc.Cx.re > 0.2 && dc.Cx.re < 1.4);
  (* distortion present: second harmonic nonzero *)
  Alcotest.(check bool) "nonlinearity generates harmonics" true
    (Hb.harmonic_amplitude res "out" 2 > 1e-3)

let test_hb_residual_of_solution () =
  let freq = 2e6 in
  let c = rectifier ~freq in
  let res = converged (Hb.solve_outcome c ~freq) in
  Alcotest.(check bool) "residual small" true
    (Hb.residual_norm c ~freq res.Hb.samples < 1e-8)

(* ------------------------------------------------------------- Shooting *)

let test_shooting_matches_hb () =
  let freq = 1e6 in
  let c = rectifier ~freq in
  let hb = converged (Hb.solve_outcome c ~freq) in
  let sh =
    converged
      (Shooting.solve_outcome
         ~options:{ Shooting.default_options with steps_per_period = 400 }
         c ~freq)
  in
  let v_hb = Grid.amplitude (Hb.waveform hb "out") 0 in
  let v_sh = Grid.amplitude (Shooting.waveform sh "out") 0 in
  check_float ~eps:2e-2 "dc agreement" v_hb v_sh;
  check_float ~eps:2e-2 "fundamental agreement"
    (Grid.amplitude (Hb.waveform hb "out") 1)
    (Grid.amplitude (Shooting.waveform sh "out") 1)

let test_shooting_monodromy_stable () =
  let freq = 1e6 in
  let c = rc_lowpass ~ampl:1.0 ~freq in
  let sh = converged (Shooting.solve_outcome c ~freq) in
  (* driven dissipative circuit: all Floquet multipliers inside unit circle *)
  let ev = Eig.eigenvalues_sorted sh.Shooting.monodromy in
  Alcotest.(check bool) "multipliers stable" true (Cx.abs ev.(0) < 1.0)

let test_vdp_autonomous () =
  let c = vdp () in
  let f0 = 1.0 /. (2.0 *. Float.pi *. sqrt (1e-6 *. 1e-9)) in
  let res =
    Shooting.solve_autonomous
      ~options:{ Shooting.default_options with steps_per_period = 400; warm_periods = 30 }
      c ~freq_guess:f0
      ~kick:(fun x -> x.(0) <- 0.3)
  in
  (* period near the tank resonance *)
  check_float ~eps:(0.05 /. f0) "period" (1.0 /. f0) res.Shooting.period;
  (* describing-function amplitude sqrt(-4 g1 / (3 g3)) = 2/sqrt(3) *)
  let a = Grid.amplitude (Shooting.waveform res "tank") 1 in
  check_float ~eps:0.08 "limit cycle amplitude" (2.0 /. sqrt 3.0) a;
  (* one Floquet multiplier at unity (phase direction) *)
  let ev = Eig.eigenvalues_sorted res.Shooting.monodromy in
  check_float ~eps:3e-2 "unit multiplier" 1.0 (Cx.abs ev.(0))

(* ----------------------------------------------------------------- MPDE *)

let test_mpde_split_wave () =
  let w = Wave.Sum [ Wave.sine 1.0 1e3; Wave.square 2.0 1e9; Wave.Dc 0.5 ] in
  let parts = Mpde.split_wave_multi ~tones:[| 1e3; 1e9 |] w in
  Alcotest.(check int) "one part per tone" 2 (Array.length parts);
  check_float "slow at t" (0.5 +. Wave.eval (Wave.sine 1.0 1e3) 1e-4) (Wave.eval parts.(0) 1e-4);
  check_float "fast at t" (Wave.eval (Wave.square 2.0 1e9) 0.3e-9) (Wave.eval parts.(1) 0.3e-9)

let test_mpde_split_rejects () =
  Alcotest.(check bool) "unalignable frequency rejected" true
    (try
       ignore (Mpde.split_wave_multi ~tones:[| 1e4; 1e9 |] (Wave.sine 1.0 7.71e5));
       false
     with Invalid_argument _ -> true)

let test_mpde_diagonal_consistency () =
  (* b^(t, t) = b(t) for a two-tone source *)
  let nl = Netlist.create () in
  Netlist.vsource nl "V1" "in" "0"
    (Wave.Sum [ Wave.sine 1.0 1e3; Wave.sine 0.3 1e6 ]);
  Netlist.resistor nl "R1" "in" "0" 1e3;
  let c = Mna.build nl in
  List.iter
    (fun t ->
      let b2 = Mpde.eval_bn c ~tones:[| 1e3; 1e6 |] [| t; t |] in
      let b1 = Mna.eval_b c t in
      check_float ~eps:1e-12 (Printf.sprintf "diag at %g" t) (Vec.norm_inf (Vec.sub b1 b2)) 0.0)
    [ 0.0; 1.23e-4; 7.7e-4 ]

(* A source aligned with neither tone (3.3 MHz against 1 MHz and 10 MHz)
   is a model limitation every two-tone engine refuses with a typed
   failure, and the multi-rate cascade ends Exhausted rather than raising. *)
let test_mpde_off_tone_source_typed () =
  let c = rc_lowpass ~ampl:1.0 ~freq:3.3e6 in
  let f1 = 1e6 and f2 = 10e6 in
  let unsupported name = function
    | Rfkit_solve.Supervisor.Converged _ -> Alcotest.failf "%s converged" name
    | Rfkit_solve.Supervisor.Failed f ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: %s" name (Rfkit_solve.Supervisor.failure_to_string f))
          true
          (match f.Rfkit_solve.Supervisor.cause with
          | Rfkit_solve.Supervisor.Unsupported _ -> true
          | _ -> false)
  in
  unsupported "hb2" (Hb2.solve_outcome c ~f1 ~f2);
  unsupported "mfdtd" (Mfdtd.solve_outcome c ~f1 ~f2);
  unsupported "hs" (Hs.solve_outcome c ~f1 ~f2);
  unsupported "envelope" (Envelope.run_outcome c ~f1 ~f2 ~t1_stop:(2.0 /. f1));
  match Qpss.solve_outcome c ~f1 ~f2 with
  | Rfkit_solve.Cascade.Exhausted _ -> ()
  | Rfkit_solve.Cascade.Completed _ -> Alcotest.fail "qpss completed on an off-tone source"

let test_mpde_cost_accounting () =
  let c1 = Mpde.Cost.compare_representations ~separation:1e3 () in
  let c2 = Mpde.Cost.compare_representations ~separation:1e6 () in
  Alcotest.(check bool) "univariate grows with separation" true
    (c2.Mpde.Cost.univariate_samples > c1.Mpde.Cost.univariate_samples * 100);
  Alcotest.(check int) "bivariate constant" c1.Mpde.Cost.bivariate_samples
    c2.Mpde.Cost.bivariate_samples

let test_mpde_reconstruction_error () =
  let err =
    Mpde.Cost.bivariate_reconstruction_error ~n1:64 ~n2:200 ~separation:50.0
      ~rise:0.1
  in
  Alcotest.(check bool) (Printf.sprintf "error %.3g small" err) true (err < 0.05)

(* ---------------------------------------------------------------- MFDTD *)

let test_mfdtd_linear_two_tone () =
  (* linear RC driven by both tones: bivariate solution's mean along each
     axis reproduces the single-tone AC responses *)
  let f1 = 1e3 and f2 = 1e6 in
  let nl = Netlist.create () in
  Netlist.vsource nl "V1" "in" "0" (Wave.Sum [ Wave.sine 1.0 f1; Wave.sine 0.5 f2 ]);
  Netlist.resistor nl "R1" "in" "out" 1e3;
  Netlist.capacitor nl "C1" "out" "0" 1e-9;
  let c = Mna.build nl in
  let res =
    converged @@ Mfdtd.solve_outcome
      ~options:{ Mfdtd.default_options with n1 = 8; n2 = 32; tol = 1e-8 }
      c ~f1 ~f2
  in
  let grid = Mfdtd.node_grid res "out" in
  (* slow axis: average over t2 isolates the slow response; BE on 8 points
     is coarse, so compare loosely against |H(f1)| ~ 1 *)
  let slow_wave = Vec.init 8 (fun i1 -> Stats.mean (Mat.row grid i1)) in
  let slow_amp = Grid.amplitude slow_wave 1 in
  let h1 = Cx.abs (expected_rc_transfer ~freq:f1) in
  Alcotest.(check bool)
    (Printf.sprintf "slow amp %.3f vs %.3f" slow_amp h1)
    true
    (Float.abs (slow_amp -. h1) < 0.15)

let test_mfdtd_diagonal_matches_transient () =
  (* small separation so the transient reference is affordable *)
  let f1 = 1e3 and f2 = 50e3 in
  let nl = Netlist.create () in
  Netlist.vsource nl "V1" "in" "0" (Wave.Sum [ Wave.sine 0.5 f1; Wave.sine 0.5 f2 ]);
  Netlist.resistor nl "R1" "in" "out" 1e3;
  Netlist.diode nl "D1" "out" "0" ~is:1e-12 ();
  Netlist.resistor nl "R2" "out" "0" 5e3;
  Netlist.capacitor nl "C1" "out" "0" 20e-9;
  let c = Mna.build nl in
  let res =
    converged @@ Mfdtd.solve_outcome
      ~options:{ Mfdtd.default_options with n1 = 24; n2 = 40; tol = 1e-8 }
      c ~f1 ~f2
  in
  (* transient over several slow periods to settle, then compare DC level *)
  let tr = Tran.run c ~t_stop:(4.0 /. f1) ~dt:(1.0 /. f2 /. 60.0) in
  let v_tr = Tran.voltage_trace c tr "out" in
  let n_tr = Array.length v_tr in
  let tail = Array.sub v_tr (n_tr - (n_tr / 4)) (n_tr / 4) in
  let dc_tr = Stats.mean tail in
  let diag = Mfdtd.node_diagonal res "out" ~n:512 in
  let dc_mf = Stats.mean diag in
  check_float ~eps:0.03 "dc agreement" dc_tr dc_mf

(* MFDTD pins: Newton counts and mix-product amplitudes of the backward
   differences taken point by point, (q_i - q_{i-1}) / h per axis. The FFT
   symbol form applies the same circulant operator, so it must reproduce
   them to roundoff. *)
let test_mfdtd_pins () =
  let pin ~what ~expected actual =
    let rel = Float.abs (actual -. expected) /. Float.abs expected in
    Alcotest.(check bool)
      (Printf.sprintf "%s %.17g vs %.17g (rel %.2e)" what actual expected rel)
      true (rel <= 1e-9)
  in
  let case ~what c ~f1 ~f2 ~n1 ~n2 ~node ~newton ~mixes =
    let r =
      converged @@ Mfdtd.solve_outcome ~options:{ Mfdtd.default_options with n1; n2 } c ~f1 ~f2
    in
    Alcotest.(check int) (what ^ " newton") newton r.Mfdtd.newton_iters;
    let sol = Qpss.of_mfdtd r in
    List.iter
      (fun (k1, k2, expected) ->
        pin ~what:(Printf.sprintf "%s (%d,%d)" what k1 k2) ~expected (sol.Qpss.mix node ~k1 ~k2))
      mixes
  in
  let open Rfkit_circuits in
  let m = Mixer.paper_params in
  case ~what:"mixer 16x32" (Mixer.build m) ~f1:m.Mixer.f_rf ~f2:m.Mixer.f_lo ~n1:16 ~n2:32
    ~node:Mixer.output_node ~newton:3
    ~mixes:[ (-1, 1, 0.05941314156865498); (1, 1, 0.059411489143613071) ];
  let p = Converter.default_params in
  case ~what:"converter 12x32" (Converter.build p) ~f1:p.Converter.f_mod ~f2:p.Converter.f_pwm
    ~n1:12 ~n2:32 ~node:Converter.output_node ~newton:3
    ~mixes:[ (1, 0, 0.11034551905991481); (-1, 1, 0.0027273069971142836) ]

(* ------------------------------------------------------------------- HS *)

let test_hs_matches_mfdtd () =
  let f1 = 1e3 and f2 = 1e6 in
  let nl = Netlist.create () in
  Netlist.vsource nl "V1" "in" "0" (Wave.Sum [ Wave.sine 0.5 f1; Wave.sine 0.5 f2 ]);
  Netlist.resistor nl "R1" "in" "out" 1e3;
  Netlist.capacitor nl "C1" "out" "0" 1e-9;
  Netlist.cubic_conductor nl "GN" "out" "0" ~g1:1e-4 ~g3:5e-4;
  let c = Mna.build nl in
  let mf =
    converged @@ Mfdtd.solve_outcome
      ~options:{ Mfdtd.default_options with n1 = 12; n2 = 32 }
      c ~f1 ~f2
  in
  let hs =
    converged @@ Hs.solve_outcome ~options:{ Hs.default_options with n1 = 12; steps2 = 32 } c ~f1 ~f2
  in
  let g_mf = Mfdtd.node_grid mf "out" in
  let g_hs = Hs.node_grid hs "out" in
  (* same bivariate solution up to the different fast-axis discretizations *)
  let diff = Mat.max_abs (Mat.sub g_mf g_hs) in
  Alcotest.(check bool) (Printf.sprintf "grids agree (%.3g)" diff) true (diff < 0.05)

(* ----------------------------------------------------------------- MMFT *)

let test_mmft_delay_matrix () =
  (* delay operator must shift band-limited sequences exactly *)
  let k = 3 in
  let period1 = 1.0 in
  let delay = 0.1234 in
  let d = Mmft.delay_matrix ~k ~period1 ~delay in
  let m_count = (2 * k) + 1 in
  let f t = 1.0 +. (2.0 *. cos (2.0 *. Float.pi *. t)) -. (0.7 *. sin (2.0 *. Float.pi *. 3.0 *. t)) in
  let samples = Vec.init m_count (fun m -> f (float_of_int m /. float_of_int m_count)) in
  let shifted = Mat.matvec d samples in
  for m = 0 to m_count - 1 do
    let s = (float_of_int m /. float_of_int m_count) +. delay in
    check_float ~eps:1e-10 (Printf.sprintf "sample %d" m) (f s) shifted.(m)
  done

let test_mmft_mixer_vs_transient () =
  (* moderate separation so the brute-force reference is cheap *)
  let f_rf = 1e3 and f_lo = 40e3 in
  let c = mixer ~f_rf ~f_lo in
  let res =
    converged
      (Mmft.solve_outcome
         ~options:{ Mmft.default_options with slow_harmonics = 3; steps2 = 64 }
         c ~f1:f_rf ~f2:f_lo)
  in
  (* reference: long transient + leakage-free demodulation at f_lo + f_rf
     (the window is an integer number of periods of every tone) *)
  let tr = Tran.run c ~t_stop:(3.0 /. f_rf) ~dt:(1.0 /. f_lo /. 64.0) in
  let v = Tran.voltage_trace c tr "mix" in
  let amp_ref =
    Spectrum.demodulate ~times:tr.Tran.times ~values:v ~freq:(f_lo +. f_rf)
      ~window:(1.0 /. f_rf)
  in
  let amp_mmft = Mmft.mix_amplitude res "mix" ~slow:1 ~fast:1 in
  Alcotest.(check bool)
    (Printf.sprintf "mix amplitude %.4g vs transient %.4g" amp_mmft amp_ref)
    true
    (Float.abs (amp_mmft -. amp_ref) < 0.15 *. amp_ref)

(* ------------------------------------------------------------- Envelope *)

let test_envelope_am_tracking () =
  (* true AM through the multiplier: envelope of the output's carrier
     harmonic must track the slow modulating bias (1 + 0.5 sin wm t) *)
  let f_carrier = 1e6 and f_mod = 1e3 in
  let nl = Netlist.create () in
  Netlist.vsource nl "VC" "carrier" "0" (Wave.sine 1.0 f_carrier);
  Netlist.vsource nl "VM" "am" "0"
    (Wave.Sine { ampl = 0.5; freq = f_mod; phase = 0.0; offset = 1.0 });
  Netlist.mult_vccs nl "MOD" "0" "out" ~a:("carrier", "0") ~b:("am", "0") ~k:1e-3;
  Netlist.resistor nl "RO" "out" "0" 1e3;
  Netlist.capacitor nl "CO" "out" "0" 1e-12;
  let c = Mna.build nl in
  let res =
    converged @@ Envelope.run_outcome
      ~options:{ Envelope.steps2 = 32; n1 = 20 }
      c ~f1:f_mod ~f2:f_carrier ~t1_stop:(1.0 /. f_mod)
  in
  let env = Envelope.envelope_magnitude res "out" ~harmonic:1 in
  (* gm * R = 1, so envelope = 1 + 0.5 sin(wm t1) *)
  Array.iteri
    (fun i a ->
      let t = res.Envelope.t1s.(i) in
      let expect = 1.0 +. (0.5 *. sin (2.0 *. Float.pi *. f_mod *. t)) in
      check_float ~eps:0.06 (Printf.sprintf "am tracking %d" i) expect a)
    env

(* ------------------------------------------------------------------ HB2 *)

let test_hb2_linear_two_tone () =
  let f1 = 1e3 and f2 = 1e6 in
  let nl = Netlist.create () in
  Netlist.vsource nl "V1" "in" "0" (Wave.Sum [ Wave.sine 1.0 f1; Wave.sine 0.5 f2 ]);
  Netlist.resistor nl "R1" "in" "out" 1e3;
  Netlist.capacitor nl "C1" "out" "0" 1e-9;
  let c = Mna.build nl in
  let res =
    converged (Hb2.solve_outcome ~options:{ Hb2.default_options with n1 = 8; n2 = 8 } c ~f1 ~f2)
  in
  let h1 = Cx.abs (expected_rc_transfer ~freq:f1) in
  let h2 = Cx.abs (expected_rc_transfer ~freq:f2) in
  check_float ~eps:1e-6 "tone 1 response" h1 (Hb2.mix_amplitude res "out" ~k1:1 ~k2:0);
  check_float ~eps:1e-6 "tone 2 response" (0.5 *. h2)
    (Hb2.mix_amplitude res "out" ~k1:0 ~k2:1);
  check_float ~eps:1e-10 "no intermod in linear circuit" 0.0
    (Hb2.mix_amplitude res "out" ~k1:1 ~k2:1)

let test_hb2_intermodulation () =
  (* cubic nonlinearity generates IM products at k1 +- k2; compare the
     third-order product against the small-signal analytic estimate *)
  let f1 = 1e3 and f2 = 1e6 in
  let a = 0.1 in
  let g1 = 1e-3 and g3 = 1e-4 in
  let r_load = 1e3 in
  let nl = Netlist.create () in
  Netlist.vsource nl "V1" "in" "0" (Wave.Sum [ Wave.sine a f1; Wave.sine a f2 ]);
  (* current source driven by nonlinear conductor sensing the input *)
  Netlist.cubic_conductor nl "GN" "in" "mid" ~g1 ~g3;
  Netlist.resistor nl "RL" "mid" "0" r_load;
  let c = Mna.build nl in
  let res =
    converged (Hb2.solve_outcome ~options:{ Hb2.default_options with n1 = 8; n2 = 8 } c ~f1 ~f2)
  in
  (* the 2f2 - f1 like products exist; check IM at (1, 2): amplitude of the
     cubic term (3/4) g3 a^2 a ... loosely: it must be well above floor and
     far below the fundamentals *)
  let fund = Hb2.mix_amplitude res "mid" ~k1:1 ~k2:0 in
  let im = Hb2.mix_amplitude res "mid" ~k1:1 ~k2:2 in
  Alcotest.(check bool) "IM present" true (im > 1e-8);
  Alcotest.(check bool) "IM below fundamental" true (im < 0.1 *. fund)

let test_hb2_spectrum_listing () =
  let f1 = 1e3 and f2 = 1e6 in
  let nl = Netlist.create () in
  Netlist.vsource nl "V1" "in" "0" (Wave.Sum [ Wave.sine 1.0 f1; Wave.sine 0.5 f2 ]);
  Netlist.resistor nl "R1" "in" "0" 1e3;
  let c = Mna.build nl in
  let res =
    converged (Hb2.solve_outcome ~options:{ Hb2.default_options with n1 = 4; n2 = 4 } c ~f1 ~f2)
  in
  let spurs = Hb2.spectrum res "in" in
  (* both驱动 tones appear at the right frequencies *)
  let has f =
    List.exists
      (fun s -> Float.abs (s.Hb2.freq -. f) < 1.0 && s.Hb2.amplitude > 0.4)
      spurs
  in
  Alcotest.(check bool) "tone 1 listed" true (has f1);
  Alcotest.(check bool) "tone 2 listed" true (has f2)

(* ------------------------------------------------------------------ HBn *)

let test_hbn_embeds_one_tone () =
  (* a circuit driven only at f1 and solved on a two-tone torus: nothing
     varies along the f2 axis, so the f1 harmonics must be the single-tone
     answer on the same f1 grid *)
  let f1 = 1e6 and f2 = 1.31e9 in
  let c = rectifier ~freq:f1 in
  let hb =
    converged (Hb.solve_outcome ~options:{ Hb.default_options with n_samples = 16 } c ~freq:f1)
  in
  let hbn =
    converged
      (Hbn.solve_outcome
         ~options:{ Hbn.dims = [| 16; 4 |]; max_newton = 60; tol = 1e-9; gmres_tol = 1e-12 }
         c ~tones:[| f1; f2 |])
  in
  for k = 0 to 4 do
    let a1 = Hb.harmonic_amplitude hb "out" k in
    check_float ~eps:(1e-8 +. (1e-6 *. a1)) (Printf.sprintf "harmonic %d" k) a1
      (Hbn.mix_amplitude hbn "out" [| k; 0 |])
  done;
  check_float ~eps:1e-9 "nothing on the f2 axis" 0.0 (Hbn.mix_amplitude hbn "out" [| 0; 1 |])

let test_hbn_direct_matches_gmres () =
  (* the linear solver is an implementation choice: the dense direct
     Newton step and preconditioned GMRES must land on the same answer,
     with one tone and with two *)
  let solve ~solver c ~tones ~dims =
    converged
      (Hbn.run ~solver ~engine:"hbn" ~ladder:Hbn.ladder
         ~plan:(fun _ -> ({ Hbn.dims; max_newton = 60; tol = 1e-10; gmres_tol = 1e-12 }, None))
         c ~tones)
  in
  let agree label c ~tones ~dims ~node mixes =
    let direct = solve ~solver:Hbn.Direct c ~tones ~dims in
    let gmres = solve ~solver:Hbn.Matrix_free_gmres c ~tones ~dims in
    Alcotest.(check int) (label ^ ": direct runs no GMRES") 0 direct.Hbn.gmres_iters_total;
    Alcotest.(check bool) (label ^ ": gmres iterated") true (gmres.Hbn.gmres_iters_total > 0);
    List.iter
      (fun k ->
        let a = Hbn.mix_amplitude direct node k in
        check_float ~eps:(1e-9 +. (1e-7 *. a)) (label ^ " mix") a
          (Hbn.mix_amplitude gmres node k))
      mixes
  in
  agree "one tone" (rectifier ~freq:1e6) ~tones:[| 1e6 |] ~dims:[| 16 |] ~node:"out"
    [ [| 0 |]; [| 1 |]; [| 2 |]; [| 3 |] ];
  let f1 = 1e6 and f2 = 1.31e9 in
  let nl = Netlist.create () in
  Netlist.vsource nl "V1" "in" "0" (Wave.Sum [ Wave.sine 0.3 f1; Wave.sine 0.3 f2 ]);
  Netlist.cubic_conductor nl "GN" "in" "mid" ~g1:1e-3 ~g3:2e-4;
  Netlist.resistor nl "RL" "mid" "0" 1e3;
  Netlist.capacitor nl "CL" "mid" "0" 1e-13;
  agree "two tones" (Mna.build nl) ~tones:[| f1; f2 |] ~dims:[| 8; 8 |] ~node:"mid"
    [ [| 1; 0 |]; [| 0; 1 |]; [| 2; 1 |]; [| 1; 2 |]; [| 3; 0 |] ]

let test_hbn_three_tone_im3 () =
  (* two closely spaced RF tones through a cubic compressor then an ideal
     mixer: the classic two-tone IM3 test needing a third (LO) tone *)
  let fa = 1e6 and fb = 1.1e6 and flo = 900e6 in
  let nl = Netlist.create () in
  Netlist.vsource nl "VA" "rf" "0" (Wave.Sum [ Wave.sine 0.05 fa; Wave.sine 0.05 fb ]);
  Netlist.vsource nl "VLO" "lo" "0" (Wave.sine 1.0 flo);
  Netlist.cubic_conductor nl "GC" "rf" "cmp" ~g1:1e-3 ~g3:3e-3;
  Netlist.resistor nl "RC" "cmp" "0" 1e3;
  Netlist.mult_vccs nl "MIX" "0" "mix" ~a:("cmp", "0") ~b:("lo", "0") ~k:1e-3;
  Netlist.resistor nl "RM" "mix" "0" 1e3;
  Netlist.capacitor nl "CM" "mix" "0" 1e-13;
  let c = Mna.build nl in
  let res =
    converged (Hbn.solve_outcome
      ~options:
        { Hbn.dims = [| 8; 8; 8 |]; max_newton = 60; tol = 1e-10; gmres_tol = 1e-12 }
      c ~tones:[| fa; fb; flo |])
  in
  let up = Hbn.mix_amplitude res "mix" [| 1; 0; 1 |] in
  let im3a = Hbn.mix_amplitude res "mix" [| 2; -1; 1 |] in
  let im3b = Hbn.mix_amplitude res "mix" [| -1; 2; 1 |] in
  Alcotest.(check bool) "upconverted tone present" true (up > 5e-3);
  Alcotest.(check bool) "IM3 present" true (im3a > 1e-7);
  (* the two third-order products are symmetric for equal tone amplitudes *)
  check_float ~eps:(0.01 *. im3a) "IM3 symmetry" im3a im3b;
  Alcotest.(check bool) "IM3 well below carrier" true (im3a < 0.01 *. up)

let test_hbn_memory_scales_with_tones () =
  let nl = Netlist.create () in
  Netlist.vsource nl "V1" "a" "0" (Wave.sine 1.0 1e6);
  Netlist.resistor nl "R1" "a" "b" 1e3;
  Netlist.capacitor nl "C1" "b" "0" 1e-12;
  let c = Mna.build nl in
  let mem d = Hbn.memory_estimate c ~dims:(Array.make d 8) in
  (* each added tone multiplies the state by the per-axis sample count *)
  Alcotest.(check bool) "x8 per tone" true
    (mem 2 = 8 * mem 1 && mem 4 = 8 * mem 3)

(* -------------------------------------------------------------- Spectrum *)

let test_spectrum_dbc () =
  check_float "dbc" (-40.0) (Spectrum.dbc ~carrier:1.0 0.01)

let test_spectrum_transient_sine () =
  let f = 1e4 in
  let times = Array.init 4001 (fun i -> float_of_int i *. 1e-7) in
  let values = Array.map (fun t -> 0.8 *. sin (2.0 *. Float.pi *. f *. t)) times in
  let lines = Spectrum.of_transient ~times ~values ~window:2e-4 ~n_fft:2048 in
  let peak = Spectrum.nearest lines f in
  check_float ~eps:2e-2 "amplitude recovered" 0.8 peak.Spectrum.amplitude;
  check_float ~eps:1e-9 "frequency bin" f peak.Spectrum.freq

(* ------------------------------------------------------------- measures *)

(* tanh limiter stage: gain compression analytically known via the
   describing function of tanh (H1 of tanh(a sin / vsat) ~ a - a^3/4vsat^2):
   1 dB compression at a ~ 0.66 vsat *)
let tanh_stage vsat a =
  let nl = Netlist.create () in
  Netlist.vsource nl "VIN" "in" "0" (Wave.sine a 10e6);
  Netlist.tanh_gm nl "G1" "0" "out" "in" "0" ~gm:1e-3 ~vsat;
  Netlist.resistor nl "RL" "out" "0" 1e3;
  Netlist.capacitor nl "CL" "out" "0" 1e-14;
  Mna.build nl

let test_p1db_of_tanh_limiter () =
  let vsat = 0.3 in
  let p1db =
    match
      Measures.compression_point_1db ~build:(tanh_stage vsat) ~node:"out"
        ~freq:10e6 ()
    with
    | Ok (Some a) -> a
    | Ok None -> Alcotest.fail "tanh limiter must compress within the scan range"
    | Error f -> Alcotest.fail (Rfkit_solve.Supervisor.failure_to_string f)
  in
  (* series expansion predicts ~0.66 vsat; the full tanh compresses a bit
     earlier, so accept 0.55..0.75 vsat *)
  Alcotest.(check bool)
    (Printf.sprintf "P1dB %.3f V vs vsat %.3f" p1db vsat)
    true
    (p1db > 0.55 *. vsat && p1db < 0.8 *. vsat)

(* cubic stage: IIP3 analytically A^2 = (4/3) |g1/g3| *)
let cubic_stage g1 g3 a =
  let nl = Netlist.create () in
  Netlist.vsource nl "VIN" "in" "0"
    (Wave.Sum [ Wave.sine a 10e6; Wave.sine a 11e6 ]);
  (* drive a grounded cubic conductor and observe its current in a load
     via a unity current mirror: simplest is the conductor into a small
     load so feedback is negligible *)
  Netlist.cubic_conductor nl "GN" "in" "out" ~g1 ~g3;
  Netlist.resistor nl "RL" "out" "0" 1.0;
  Mna.build nl

let test_iip3_of_cubic () =
  let g1 = 1e-3 and g3 = 3e-3 in
  let a_iip3 =
    match
      Measures.iip3 ~a_probe:0.05 ~build:(cubic_stage g1 g3) ~node:"out" ~f1:10e6
        ~f2:11e6 ()
    with
    | Ok a -> a
    | Error f -> Alcotest.fail (Rfkit_solve.Supervisor.failure_to_string f)
  in
  let analytic = sqrt (4.0 /. 3.0 *. (g1 /. g3)) in
  check_float ~eps:(0.03 *. analytic) "IIP3 matches (4/3)|g1/g3|" analytic a_iip3

let test_measures_typed_failure () =
  (* two ideal sources in parallel: structurally singular, so every HB
     solve fails its pre-flight; the measures return that failure *)
  let vloop _ =
    let nl = Netlist.create () in
    Netlist.vsource nl "V1" "in" "0" (Wave.sine 0.1 10e6);
    Netlist.vsource nl "V2" "in" "0" (Wave.sine 0.1 10e6);
    Netlist.resistor nl "RL" "in" "0" 1e3;
    Mna.build nl
  in
  let structural = function
    | Error { Rfkit_solve.Supervisor.cause = Structurally_singular _; _ } -> true
    | _ -> false
  in
  Alcotest.(check bool) "small-signal gain" true
    (structural (Measures.small_signal_gain ~build:vloop ~node:"in" ~freq:10e6));
  Alcotest.(check bool) "compression point" true
    (structural (Measures.compression_point_1db ~build:vloop ~node:"in" ~freq:10e6 ()));
  Alcotest.(check bool) "iip3" true
    (structural (Measures.iip3 ~build:vloop ~node:"in" ~f1:10e6 ~f2:11e6 ()))

let test_noise_figure_attenuator () =
  (* textbook: a matched resistive attenuator's noise figure equals its
     attenuation. A divider with R_series = R_load: loss 6 dB, NF 6 dB
     relative to the source resistor contribution *)
  let nl = Netlist.create () in
  Netlist.vsource nl "VIN" "src" "0" (Wave.Dc 0.0);
  Netlist.resistor nl "RS" "src" "mid" 1e3;
  Netlist.resistor nl "RP" "mid" "0" 1e3;
  let c = Mna.build nl in
  let nf = Measures.noise_figure c ~source_resistor:"RS" ~node:"mid" ~freq:1e6 in
  (* total noise at mid: RS and RP in parallel (both 1k): each contributes
     half; NF = 10 log10(total / RS part) = 3 dB *)
  check_float ~eps:0.05 "NF of symmetric divider" 3.0 nf

(* ------------------------------------------------------------- failures *)

let unsupported = function
  | Rfkit_solve.Supervisor.Failed { Rfkit_solve.Supervisor.cause = Unsupported _; _ } -> true
  | _ -> false

let test_mmft_rejects_close_tones () =
  (* the sample-snapping construction needs widely separated tones *)
  let nl = Netlist.create () in
  Netlist.vsource nl "V1" "a" "0" (Wave.Sum [ Wave.sine 0.1 1e6; Wave.sine 0.1 3e6 ]);
  Netlist.resistor nl "R1" "a" "0" 1e3;
  let c = Mna.build nl in
  Alcotest.(check bool) "fails typed as Unsupported" true
    (unsupported (Mmft.solve_outcome c ~f1:1e6 ~f2:3e6))

let test_hbn_rejects_dims_mismatch () =
  let nl = Netlist.create () in
  Netlist.vsource nl "V1" "a" "0" (Wave.sine 0.1 1e6);
  Netlist.resistor nl "R1" "a" "0" 1e3;
  let c = Mna.build nl in
  Alcotest.(check bool) "typed Unsupported" true
    (unsupported
       (Hbn.solve_outcome
          ~options:{ Hbn.dims = [| 8; 8 |]; max_newton = 5; tol = 1e-9; gmres_tol = 1e-10 }
          c ~tones:[| 1e6 |]))

let test_hb2_rejects_unaligned_source () =
  (* a 3.7 MHz source is a multiple of neither tone: the two-tone grid
     cannot represent it, and the outcome API says so with a typed cause *)
  let nl = Netlist.create () in
  Netlist.vsource nl "V1" "a" "0" (Wave.Sum [ Wave.sine 0.1 1e6; Wave.sine 0.1 3.7e6 ]);
  Netlist.resistor nl "R1" "a" "0" 1e3;
  let c = Mna.build nl in
  Alcotest.(check bool) "typed Unsupported" true
    (unsupported (Hb2.solve_outcome c ~f1:1e6 ~f2:1.31e9))

let test_autonomous_needs_oscillation () =
  (* a damped RC circuit with no source: autonomous shooting must detect
     that nothing oscillates instead of returning a bogus orbit *)
  let nl = Netlist.create () in
  Netlist.resistor nl "R1" "a" "0" 1e3;
  Netlist.capacitor nl "C1" "a" "0" 1e-9;
  let c = Mna.build nl in
  Alcotest.(check bool) "raises" true
    (try
       ignore
         (Shooting.solve_autonomous c ~freq_guess:1e6 ~kick:(fun x -> x.(0) <- 0.1));
       false
     with Shooting.No_convergence _ -> true)

(* ------------------------------------------------------------ properties *)

let qcheck_suite =
  let open QCheck in
  let coeffs =
    make
      Gen.(list_size (int_range 1 5) (float_range (-2.0) 2.0))
      ~print:Print.(list float)
  in
  [
    Test.make ~name:"grid: spectral derivative exact for band-limited signals"
      ~count:40 coeffs (fun cs ->
        let n = 32 in
        let period = 1e-6 in
        let w0 = 2.0 *. Float.pi /. period in
        let f t =
          List.fold_left
            (fun (acc, k) c -> (acc +. (c *. sin (float_of_int k *. w0 *. t)), k + 1))
            (0.0, 1) cs
          |> fst
        in
        let df t =
          List.fold_left
            (fun (acc, k) c ->
              ( acc +. (c *. float_of_int k *. w0 *. cos (float_of_int k *. w0 *. t)),
                k + 1 ))
            (0.0, 1) cs
          |> fst
        in
        let samples = Vec.init n (fun i -> f (period *. float_of_int i /. float_of_int n)) in
        let d = Grid.diff_samples ~period samples in
        let ok = ref true in
        let scale = Array.fold_left (fun m v -> Float.max m (Float.abs v)) 1.0 d in
        for i = 0 to n - 1 do
          let t = period *. float_of_int i /. float_of_int n in
          if Float.abs (d.(i) -. df t) > 1e-8 *. scale then ok := false
        done;
        !ok);
    Test.make ~name:"hb: linear RC fundamental matches the analytic transfer"
      ~count:25
      (QCheck.make
         Gen.(pair (float_range 0.2 5.0) (float_range 0.2 5.0))
         ~print:Print.(pair float float))
      (fun (r_k, c_n) ->
        let r = r_k *. 1e3 and cap = c_n *. 1e-9 in
        let freq = 1.0 /. (2.0 *. Float.pi *. r *. cap) in
        let nl = Netlist.create () in
        Netlist.vsource nl "V1" "in" "0" (Wave.sine 1.0 freq);
        Netlist.resistor nl "R1" "in" "out" r;
        Netlist.capacitor nl "C1" "out" "0" cap;
        let c = Mna.build nl in
        let res = converged (Hb.solve_outcome c ~freq) in
        Float.abs (Hb.harmonic_amplitude res "out" 1 -. (1.0 /. sqrt 2.0)) < 1e-5);
    Test.make ~name:"mmft: delay matrix shifts band-limited sequences" ~count:40
      (QCheck.make
         Gen.(pair (int_range 1 4) (float_range 0.01 0.9))
         ~print:Print.(pair int float))
      (fun (k, delay) ->
        let period1 = 1.0 in
        let d = Mmft.delay_matrix ~k ~period1 ~delay in
        let m_count = (2 * k) + 1 in
        let f t = 1.0 +. (0.7 *. cos (2.0 *. Float.pi *. float_of_int k *. t)) in
        let samples =
          Vec.init m_count (fun m -> f (float_of_int m /. float_of_int m_count))
        in
        let shifted = Mat.matvec d samples in
        let ok = ref true in
        for m = 0 to m_count - 1 do
          let expect = f ((float_of_int m /. float_of_int m_count) +. delay) in
          if Float.abs (shifted.(m) -. expect) > 1e-8 then ok := false
        done;
        !ok);
    Test.make ~name:"mpde: b^(t,t) = b(t) for random two-tone sources" ~count:40
      (QCheck.make
         Gen.(pair (float_range 0.1 3.0) (float_range 0.1 3.0))
         ~print:Print.(pair float float))
      (fun (a1, a2) ->
        let f1 = 1e4 and f2 = 1e8 in
        let nl = Netlist.create () in
        Netlist.vsource nl "V1" "in" "0" (Wave.Sum [ Wave.sine a1 f1; Wave.sine a2 f2 ]);
        Netlist.resistor nl "R1" "in" "0" 1e3;
        let c = Mna.build nl in
        let ok = ref true in
        List.iter
          (fun t ->
            let b2 = Mpde.eval_bn c ~tones:[| f1; f2 |] [| t; t |] in
            let b1 = Mna.eval_b c t in
            if Vec.norm_inf (Vec.sub b1 b2) > 1e-12 then ok := false)
          [ 0.0; 3.3e-5; 8.9e-5 ];
        !ok);
  ]

let suite =
  let tc name f = Alcotest.test_case name `Quick f in
  let slow name f = Alcotest.test_case name `Slow f in
  [
    ("rf.grid", [ tc "spectral diff" test_grid_diff_sine; tc "harmonics" test_grid_harmonic ]);
    ( "rf.hb",
      [
        tc "linear vs ac" test_hb_linear_matches_ac;
        tc "gmres vs direct" test_hb_gmres_matches_direct;
        tc "rectifier dc" test_hb_rectifier_dc;
        tc "residual at solution" test_hb_residual_of_solution;
      ] );
    ( "rf.shooting",
      [
        tc "matches hb" test_shooting_matches_hb;
        tc "monodromy stable" test_shooting_monodromy_stable;
        slow "van der pol autonomous" test_vdp_autonomous;
      ] );
    ( "rf.mpde",
      [
        tc "split wave" test_mpde_split_wave;
        tc "split rejects" test_mpde_split_rejects;
        tc "diagonal consistency" test_mpde_diagonal_consistency;
        tc "off-tone source typed" test_mpde_off_tone_source_typed;
        tc "cost accounting" test_mpde_cost_accounting;
        tc "reconstruction error" test_mpde_reconstruction_error;
      ] );
    ( "rf.mfdtd",
      [
        tc "linear two-tone" test_mfdtd_linear_two_tone;
        slow "diagonal vs transient" test_mfdtd_diagonal_matches_transient;
        tc "pins" test_mfdtd_pins;
      ] );
    ("rf.hs", [ slow "matches mfdtd" test_hs_matches_mfdtd ]);
    ( "rf.mmft",
      [
        tc "delay matrix" test_mmft_delay_matrix;
        slow "mixer vs transient" test_mmft_mixer_vs_transient;
      ] );
    ("rf.envelope", [ slow "am tracking" test_envelope_am_tracking ]);
    ( "rf.hb2",
      [
        tc "linear two-tone" test_hb2_linear_two_tone;
        tc "intermodulation" test_hb2_intermodulation;
        tc "spectrum listing" test_hb2_spectrum_listing;
      ] );
    ( "rf.hbn",
      [
        tc "one tone embeds in two" test_hbn_embeds_one_tone;
        tc "direct vs gmres" test_hbn_direct_matches_gmres;
        slow "three-tone im3" test_hbn_three_tone_im3;
        tc "memory scaling" test_hbn_memory_scales_with_tones;
      ] );
    ( "rf.spectrum",
      [ tc "dbc" test_spectrum_dbc; tc "transient sine" test_spectrum_transient_sine ] );
    ( "rf.measures",
      [
        slow "p1db of tanh" test_p1db_of_tanh_limiter;
        tc "iip3 of cubic" test_iip3_of_cubic;
        tc "noise figure" test_noise_figure_attenuator;
        tc "failed solve is typed" test_measures_typed_failure;
      ] );
    ( "rf.failures",
      [
        tc "mmft close tones" test_mmft_rejects_close_tones;
        tc "hbn dims mismatch" test_hbn_rejects_dims_mismatch;
        tc "hb2 unaligned source" test_hb2_rejects_unaligned_source;
        slow "autonomous needs oscillation" test_autonomous_needs_oscillation;
      ] );
    ("rf.properties", List.map QCheck_alcotest.to_alcotest qcheck_suite);
  ]
