(* Tests of the time-stepping core: the one implicit step, the one period
   integrator with monodromy and the one (M - I) shooting Newton behind
   transient, shooting, hierarchical shooting, the envelope method, MMFT,
   the jitter ensemble and the PSS periodicity check.

   [integrate.pins] digests the %h-printed results of every engine built
   on the core, on fixed inputs, so any change in the order of the
   floating-point operations of a step, a monodromy recurrence or a
   shooting update shows up as a digest mismatch. *)

open Rfkit_la
open Rfkit_circuit
open Rfkit_rf
open Rfkit_noise
open Rfkit_circuits
module Sup = Rfkit_solve.Supervisor

let converged = function
  | Sup.Converged (r, _) -> r
  | Sup.Failed f -> Alcotest.fail (Sup.failure_to_string f)

let rectifier () =
  let nl, _ = Deck.parse_file "../examples/decks/rectifier.cir" in
  Mna.build nl

let digest f =
  let buf = Buffer.create 65536 in
  let fl v = Printf.bprintf buf "%h " v in
  let vec x = Array.iter fl x in
  let mat (m : Mat.t) = vec m.Mat.a in
  let int i = Printf.bprintf buf "%d " i in
  f ~fl ~vec ~mat ~int;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* ---------------------------------------------------------------- pins -- *)

let pin_tran () =
  digest (fun ~fl ~vec ~mat:_ ~int:_ ->
      let c = rectifier () in
      List.iter
        (fun method_ ->
          let res = Tran.run ~method_ c ~t_stop:2e-7 ~dt:1e-9 in
          vec res.Tran.times;
          Array.iter vec res.Tran.states;
          let cert = Tran.certify ~method_ c res in
          List.iter
            (fun ch -> fl ch.Rfkit_solve.Certify.measured)
            cert.Rfkit_solve.Certify.checks)
        [ Tran.Backward_euler; Tran.Trapezoidal ])

let rectifier_shooting = lazy (converged (Shooting.solve_outcome (rectifier ()) ~freq:10e6))

let pin_shooting () =
  digest (fun ~fl:_ ~vec ~mat ~int ->
      let r = Lazy.force rectifier_shooting in
      vec r.Shooting.x0;
      mat r.Shooting.samples;
      mat r.Shooting.monodromy;
      int r.Shooting.newton_iters;
      int r.Shooting.integration_steps)

let vdp_orbit =
  lazy (Oscillators.solve ~steps_per_period:100 (Oscillators.van_der_pol ()))

let pin_autonomous () =
  digest (fun ~fl ~vec ~mat ~int ->
      let r = Lazy.force vdp_orbit in
      fl r.Shooting.period;
      vec r.Shooting.x0;
      mat r.Shooting.samples;
      mat r.Shooting.monodromy;
      int r.Shooting.newton_iters;
      int r.Shooting.integration_steps)

let pin_hs_envelope () =
  digest (fun ~fl:_ ~vec ~mat ~int ->
      let p = Converter.default_params in
      let c = Converter.build p in
      let f1 = p.Converter.f_mod and f2 = p.Converter.f_pwm in
      let hs =
        converged
          (Hs.solve_outcome
             ~options:{ Hs.default_options with n1 = 8; steps2 = 24 }
             c ~f1 ~f2)
      in
      Array.iter mat hs.Hs.slices;
      int hs.Hs.sweeps;
      let env =
        converged
          (Envelope.run_outcome
             ~options:{ Envelope.steps2 = 24; n1 = 6 }
             c ~f1 ~f2 ~t1_stop:(0.25 /. f1))
      in
      vec env.Envelope.t1s;
      Array.iter mat env.Envelope.slices)

let pin_mmft () =
  digest (fun ~fl:_ ~vec:_ ~mat ~int ->
      let p = Mixer.scaled_params ~f_rf:10e3 ~f_lo:50e6 in
      let c = Mixer.build p in
      let r = converged (Mmft.solve_outcome c ~f1:p.Mixer.f_rf ~f2:p.Mixer.f_lo) in
      Array.iter mat r.Mmft.slices;
      int r.Mmft.newton_iters;
      int r.Mmft.integration_steps)

let pin_jitter () =
  digest (fun ~fl:_ ~vec ~mat:_ ~int ->
      let e =
        Jitter.run ~seed:5 ~trajectories:3 ~noise_scale:1e6 (Lazy.force vdp_orbit)
          ~periods:4 ~node:"tank"
      in
      int (Array.length e.Jitter.mean_times);
      vec e.Jitter.mean_times;
      vec e.Jitter.variances)

let pin_periodicity () =
  digest (fun ~fl ~vec:_ ~mat:_ ~int:_ ->
      fl (Pss.periodicity_error (Pss.of_shooting (Lazy.force rectifier_shooting))))

(* what -> digest recorded before the time-stepping core was merged *)
let pins =
  [
    ( "Tran.run BE/trap and Tran.certify on rectifier.cir",
      pin_tran,
      "cce9a6c3a3f3bbe534635b6222919be9" );
    ( "Shooting.solve_outcome on rectifier.cir at 10 MHz",
      pin_shooting,
      "0875f8417c93bfafd23a413fcbef1d9a" );
    ( "autonomous shooting on van der Pol",
      pin_autonomous,
      "86edeb24376ad942da51ec14c316e57a" );
    ( "Hs.solve_outcome and Envelope.run_outcome on Converter",
      pin_hs_envelope,
      "e4c60f4c40104f2213d2c717cb98a64b" );
    ( "Mmft.solve_outcome on the scaled mixer",
      pin_mmft,
      "910d759ce763e9c90e9af5ddf571e1f7" );
    ( "Jitter.run ensemble on van der Pol",
      pin_jitter,
      "c918b458d42b16310589bde12ebca642" );
    ( "Pss.periodicity_error of the rectifier orbit",
      pin_periodicity,
      "21da849c4dd9f02506dcbb9caa9afd02" );
  ]

let test_pins () =
  List.iter (fun (what, f, want) -> Alcotest.(check string) what want (f ())) pins

(* ------------------------------------------------------------ caches -- *)

(* shooting's steps and monodromy factors share one symbolic cache per
   period under the circuit's ordering, so a fill-reducing order costs no
   extra analyses *)
let test_shooting_analyses_per_ordering () =
  let fulls mode =
    let c = rectifier () in
    Mna.set_ordering c mode;
    Sparse_lu.reset_counts ();
    ignore (converged (Shooting.solve_outcome c ~freq:10e6));
    snd (Sparse_lu.counts ())
  in
  let natural = fulls Rfkit_struct.Order.Natural in
  List.iter
    (fun mode ->
      Alcotest.(check int)
        (Rfkit_struct.Order.mode_to_string mode ^ " analyses as natural")
        natural (fulls mode))
    [ Rfkit_struct.Order.Amd_only; Rfkit_struct.Order.Btf_amd ]

(* ------------------------------------------------------------ faults -- *)

(* the noisy step polls Guard like every other step: an injected NaN ends
   the ensemble in a typed failure instead of a silently wrong run *)
let test_jitter_nan_is_typed () =
  let orbit = Lazy.force vdp_orbit in
  Rfkit_solve.Faults.arm
    { Rfkit_solve.Faults.none with engine = Some "jitter"; nan_at = Some (1, 0) };
  Fun.protect ~finally:Rfkit_solve.Faults.disarm (fun () ->
      match
        Jitter.run ~seed:5 ~trajectories:2 ~noise_scale:1e6 orbit ~periods:3 ~node:"tank"
      with
      | _ -> Alcotest.fail "the poisoned jitter run returned"
      | exception
          Rfkit_solve.Error.No_convergence
            { Rfkit_solve.Error.cause = Sup.Non_finite { index; _ }; engine; _ } ->
          Alcotest.(check string) "engine" "jitter" engine;
          Alcotest.(check int) "poisoned unknown" 0 index)

let suite =
  [
    ( "integrate.pins",
      [ Alcotest.test_case "time-stepping engines bitwise pins" `Quick test_pins ] );
    ( "integrate.core",
      [
        Alcotest.test_case "shooting analyses do not depend on the ordering" `Quick
          test_shooting_analyses_per_ordering;
        Alcotest.test_case "an injected NaN ends a jitter run typed" `Quick
          test_jitter_nan_is_typed;
      ] );
  ]
