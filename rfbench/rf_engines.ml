(* The rf group: the paper's Section 2 steady-state engines on mid-size
   nonlinear circuits. HB Jacobians, preconditioners and the multi-tone
   and multi-time engines are exercised here and nowhere else. *)

open Rfkit
open Rfkit_circuit
open Rfkit_circuits
open Common

type size = {
  pss_stages : int;
  gmres_stages : int;
  shoot_stages : int;
  tones : int;  (** Hbn tone count on the EXP-TONES chain *)
  pss_reps : int;
  gmres_reps : int;
  multitone_reps : int;
  mpde_reps : int;
  shoot_reps : int;
}

let size = function
  | Large ->
      { pss_stages = 10; gmres_stages = 32; shoot_stages = 32; tones = 4; pss_reps = 1;
        gmres_reps = 1; multitone_reps = 1; mpde_reps = 4; shoot_reps = 2 }
  | Small ->
      { pss_stages = 3; gmres_stages = 8; shoot_stages = 8; tones = 3; pss_reps = 4;
        gmres_reps = 8; multitone_reps = 3; mpde_reps = 3; shoot_reps = 3 }

let freq = 10e6
let n_samples = 32

type inputs = {
  pss_deck : Gen.deck;
  gmres_deck : Gen.deck;
  shoot_deck : Gen.deck;
  modulator : Modulator.params;
  mixer : Mixer.params;
  tone_set : float array;
}

let generate ~seed scale =
  let s = size scale in
  let rng = Prng.make ~stream:2 seed in
  let pss_deck = Gen.diode_chain rng ~stages:s.pss_stages ~freq in
  let gmres_deck = Gen.diode_chain rng ~stages:s.gmres_stages ~freq in
  let shoot_deck = Gen.diode_chain rng ~stages:s.shoot_stages ~freq in
  let p = Modulator.paper_params in
  let modulator =
    { p with Modulator.gain_imbalance = Prng.jitter rng ~frac:0.05 p.Modulator.gain_imbalance }
  in
  let m = Mixer.paper_params in
  let mixer = { m with Mixer.a_rf = Prng.jitter rng ~frac:0.05 m.Mixer.a_rf } in
  let rf = [| 1e6; 1.31e6; 1.73e6 |] in
  let tone_set =
    Array.append
      (Array.init (s.tones - 1) (fun k -> Prng.jitter rng ~frac:0.01 rf.(k)))
      [| 900e6 |]
  in
  { pss_deck; gmres_deck; shoot_deck; modulator; mixer; tone_set }

(* the EXP-TONES compressor + mixer chain driven by [tones] (last = LO) *)
let tones_chain tones =
  let nl = Netlist.create () in
  let d = Array.length tones in
  let rf_tones = Array.to_list (Array.sub tones 0 (d - 1)) |> List.map (Wave.sine 0.05) in
  Netlist.vsource nl "VRF" "rf" "0" (Wave.Sum rf_tones);
  Netlist.vsource nl "VLO" "lo" "0" (Wave.sine 1.0 tones.(d - 1));
  Netlist.cubic_conductor nl "GC" "rf" "cmp" ~g1:1e-3 ~g3:3e-3;
  Netlist.resistor nl "RC" "cmp" "0" 1e3;
  Netlist.mult_vccs nl "MIX" "0" "mix" ~a:("cmp", "0") ~b:("lo", "0") ~k:1e-3;
  Netlist.resistor nl "RM" "mix" "0" 1e3;
  Netlist.capacitor nl "CM" "mix" "0" 1e-13;
  Mna.build nl

type t = {
  size : size;
  inputs : inputs;
  pss_c : Mna.t;
  gmres_c : Mna.t;
  shoot_c : Mna.t;
  mod_c : Mna.t;
  mix_c : Mna.t;
  tones_c : Mna.t;
}

let load scale inputs =
  let deck (d : Gen.deck) = (Postlayout.load_deck d).Postlayout.c in
  let pss_c = deck inputs.pss_deck in
  let gmres_c = deck inputs.gmres_deck in
  let shoot_c = deck inputs.shoot_deck in
  let mod_c, mix_c, tones_c =
    Trace.span ~layer:"circuit" "mna.build" (fun () ->
        (Modulator.build inputs.modulator, Mixer.build inputs.mixer, tones_chain inputs.tone_set))
  in
  { size = size scale; inputs; pss_c; gmres_c; shoot_c; mod_c; mix_c; tones_c }

(* ---- operations --------------------------------------------------------- *)

let pss t =
  match
    Trace.span ~layer:"rf" "rf.pss.solve_outcome" (fun () ->
        Rf.Pss.solve_outcome ~chain:(Rf.Pss.default_chain ~n_samples ()) t.pss_c ~freq)
  with
  | Solve.Cascade.Exhausted _ -> None
  | Solve.Cascade.Completed (sol, report) ->
      let cert = Trace.span ~layer:"solve" "solve.certify.pss" (fun () -> Rf.Pss.certify sol) in
      Some (sol, report, cert)

let hb ~solver c =
  match
    Trace.span ~layer:"rf" "rf.hb.solve_outcome" (fun () ->
        Rf.Hb.solve_outcome
          ~options:{ Rf.Hb.default_options with n_samples; solver }
          c ~freq)
  with
  | Solve.Supervisor.Failed _ -> None
  | Solve.Supervisor.Converged (res, _) -> Some res

let hb_gmres t =
  match hb ~solver:Rf.Hb.Matrix_free_gmres t.gmres_c with
  | None -> None
  | Some res ->
      let cert =
        Trace.span ~layer:"solve" "solve.certify.pss" (fun () -> Rf.Pss.certify (Rf.Pss.of_hb res))
      in
      Some (res, cert)

let hb2 t =
  let p = t.inputs.modulator in
  match
    Trace.span ~layer:"rf" "rf.hb2.solve_outcome" (fun () ->
        Rf.Hb2.solve_outcome
          ~options:{ Rf.Hb2.default_options with n1 = 8; n2 = 8 }
          t.mod_c ~f1:p.Modulator.f_bb ~f2:p.Modulator.f_lo)
  with
  | Solve.Supervisor.Failed _ -> None
  | Solve.Supervisor.Converged (res, _) -> Some res

let hbn_dims t = Array.make (Array.length t.inputs.tone_set) 8

let hbn t =
  match
    Trace.span ~layer:"rf" "rf.hbn.solve_outcome" (fun () ->
        Rf.Hbn.solve_outcome
          ~options:{ Rf.Hbn.dims = hbn_dims t; max_newton = 60; tol = 1e-9; gmres_tol = 1e-11 }
          t.tones_c ~tones:t.inputs.tone_set)
  with
  | Solve.Supervisor.Failed _ -> None
  | Solve.Supervisor.Converged (res, _) -> Some res

let mixer_freqs t = (t.inputs.mixer.Mixer.f_rf, t.inputs.mixer.Mixer.f_lo)

(* MMFT through the Qpss cascade, cross-certified by MFDTD *)
let mpde t =
  let f1, f2 = mixer_freqs t in
  match
    Trace.span ~layer:"rf" "rf.qpss.solve_outcome" (fun () ->
        Rf.Qpss.solve_outcome t.mix_c ~f1 ~f2)
  with
  | Solve.Cascade.Exhausted _ -> None
  | Solve.Cascade.Completed (sol, report) -> (
      match
        Trace.span ~layer:"rf" "rf.mfdtd.solve_outcome" (fun () ->
            Rf.Mfdtd.solve_outcome t.mix_c ~f1 ~f2)
      with
      | Solve.Supervisor.Failed _ -> None
      | Solve.Supervisor.Converged (cross, _) ->
          let cert =
            Trace.span ~layer:"solve" "solve.certify.qpss" (fun () ->
                Rf.Qpss.certify ~cross:(Rf.Qpss.of_mfdtd cross) ~nodes:[ Mixer.output_node ] sol)
          in
          Some (sol, report, cert))

let shooting c =
  match
    Trace.span ~layer:"rf" "rf.shooting.solve_outcome" (fun () ->
        Rf.Shooting.solve_outcome c ~freq)
  with
  | Solve.Supervisor.Failed _ -> None
  | Solve.Supervisor.Converged (res, _) -> Some res

let shoot t =
  match shooting t.shoot_c with
  | None -> None
  | Some res ->
      let cert =
        Trace.span ~layer:"solve" "solve.certify.pss" (fun () ->
            Rf.Pss.certify (Rf.Pss.of_shooting res))
      in
      Some (res, cert)

let ops t =
  let s = t.size in
  let certified_opt f = fun () -> match f t with Some (_, c) -> certified c | None -> false in
  [
    { metric = "pss_s"; reps = s.pss_reps; value = seconds;
      run = (fun () -> match pss t with Some (_, _, c) -> certified c | None -> false) };
    { metric = "hb_gmres_s"; reps = s.gmres_reps; value = seconds; run = certified_opt hb_gmres };
    { metric = "multitone_s"; reps = s.multitone_reps; value = seconds;
      run =
        (fun () ->
          match (hb2 t, hbn t) with
          | Some a, Some b -> finite a.Rf.Hb2.residual && finite b.Rf.Hbn.residual
          | _ -> false) };
    { metric = "mpde_s"; reps = s.mpde_reps; value = seconds;
      run = (fun () -> match mpde t with Some (_, _, c) -> certified c | None -> false) };
    { metric = "shooting_s"; reps = s.shoot_reps; value = seconds; run = certified_opt shoot };
  ]

(* ---- correctness gates -------------------------------------------------- *)

(* HB (direct), HB-GMRES and shooting on one circuit certify each other
   pairwise through the two-engine spectrum cross-check *)
let gate_cross t =
  match
    ( hb ~solver:Rf.Hb.Direct t.pss_c,
      hb ~solver:Rf.Hb.Matrix_free_gmres t.pss_c,
      shooting t.pss_c )
  with
  | Some a, Some b, Some c ->
      let a = Rf.Pss.of_hb a and b = Rf.Pss.of_hb b and c = Rf.Pss.of_shooting c in
      List.for_all
        (fun (x, y) -> certified (Rf.Pss.certify ~cross:y x))
        [ (a, b); (a, c); (b, c) ]
  | _ -> false

(* Hb2 and the 2-tone Hbn agree on the modulator, and its image sideband
   sits within 1.5 dB of the small-signal estimate *)
let gate_modulator t =
  let p = t.inputs.modulator in
  match hb2 t with
  | None -> false
  | Some r2 -> (
      match
        Rf.Hbn.solve_outcome
          ~options:{ Rf.Hbn.dims = [| 8; 8 |]; max_newton = 60; tol = 1e-9; gmres_tol = 1e-12 }
          t.mod_c ~tones:[| p.Modulator.f_bb; p.Modulator.f_lo |]
      with
      | Solve.Supervisor.Failed _ -> false
      | Solve.Supervisor.Converged (rn, _) ->
          let out = Modulator.output_node in
          let carrier = Rf.Hb2.mix_amplitude r2 out ~k1:(-1) ~k2:1 in
          let image = Rf.Hb2.mix_amplitude r2 out ~k1:1 ~k2:1 in
          let agree k1 k2 =
            Float.abs (Rf.Hb2.mix_amplitude r2 out ~k1 ~k2 -. Rf.Hbn.mix_amplitude rn out [| k1; k2 |])
            <= 1e-6 *. carrier
          in
          let image_dbc = Rf.Spectrum.dbc ~carrier image in
          agree (-1) 1 && agree 1 1 && agree 0 1
          && Float.abs (image_dbc -. Modulator.expected_image_dbc p) <= 1.5)

let gates t =
  [
    ("rf.pss_cross", fun () -> gate_cross t);
    ("rf.modulator_hb2_hbn", fun () -> gate_modulator t);
  ]

(* ---- traced-run probes -------------------------------------------------- *)

let probe t =
  (match pss t with
  | None -> ()
  | Some (_, report, _) ->
      seti "pss.stages_tried" report.Solve.Cascade.stages_tried;
      seti "hb.newton_iters" report.Solve.Cascade.winner_report.Solve.Supervisor.stats.Solve.Supervisor.iterations);
  (* the direct HB Newton step factors one dense real matrix of
     (samples x unknowns)^2 doubles: computed, not measured *)
  let dim = float_of_int (n_samples * Mna.size t.pss_c) in
  set "hb.jacobian_mb" (mb (dim *. dim *. 8.0));
  (match hb_gmres t with
  | Some (res, _) -> seti "hb.gmres_iters" res.Rf.Hb.gmres_iters_total
  | None -> ());
  (match hb2 t with Some r -> seti "hb2.gmres_iters" r.Rf.Hb2.gmres_iters_total | None -> ());
  let dims = hbn_dims t in
  seti "hbn.unknowns" (Rf.Hbn.problem_size t.tones_c ~dims);
  set "hbn.memory_mb" (mb (float_of_int (Rf.Hbn.memory_estimate t.tones_c ~dims)));
  (match hbn t with Some r -> seti "hbn.gmres_iters" r.Rf.Hbn.gmres_iters_total | None -> ());
  (match mpde t with
  | Some (_, report, _) ->
      seti "qpss.stages_tried" report.Solve.Cascade.stages_tried;
      seti "mmft.newton_iters"
        report.Solve.Cascade.winner_report.Solve.Supervisor.stats.Solve.Supervisor.iterations
  | None -> ());
  match shoot t with
  | Some (res, _) ->
      seti "shooting.newton_iters" res.Rf.Shooting.newton_iters;
      seti "shooting.steps" res.Rf.Shooting.integration_steps
  | None -> ()
