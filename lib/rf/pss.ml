open Rfkit_la
open Rfkit_circuit
open Rfkit_solve

type solution = {
  circuit : Mna.t;
  engine : string;
  freq : float;
  times : Vec.t;
  samples : Mat.t;
}

let of_hb (r : Hb.result) =
  {
    circuit = r.Hb.circuit;
    engine = "hb";
    freq = r.Hb.freq;
    times = r.Hb.times;
    samples = r.Hb.samples;
  }

let of_shooting (r : Shooting.result) =
  {
    circuit = r.Shooting.circuit;
    engine = "shooting";
    freq = 1.0 /. r.Shooting.period;
    times = r.Shooting.times;
    samples = r.Shooting.samples;
  }

(* the transient ends exactly at a period boundary, so resampling its last
   period keeps the source phase of t = 0 *)
let of_tran c ~freq ~n (tr : Tran.result) =
  let period = 1.0 /. freq in
  let size = Mna.size c in
  let samples = Mat.make n size in
  for i = 0 to size - 1 do
    let col = Tran.sample_last_period tr ~per:period ~n (fun x -> x.(i)) in
    Mat.set_col samples i col
  done;
  { circuit = c; engine = "tran-fft"; freq; times = Grid.times ~period ~n; samples }

(* ------------------------------------------------------------- cascade -- *)

type stage_spec =
  | Hb_stage of Hb.options
  | Shooting_stage of Shooting.options
  | Tran_fft of { periods : int; steps_per_period : int; n_samples : int }

let stage_engine = function
  | Hb_stage o -> (
      match o.Hb.solver with
      | Hb.Direct -> "hb"
      | Hb.Matrix_free_gmres -> "hb-gmres")
  | Shooting_stage _ -> "shooting"
  | Tran_fft _ -> "tran-fft"

let default_chain ?(n_samples = Hb.default_options.Hb.n_samples) () =
  [
    Hb_stage { Hb.default_options with Hb.n_samples };
    Hb_stage
      { Hb.default_options with Hb.n_samples; solver = Hb.Matrix_free_gmres };
    Shooting_stage Shooting.default_options;
    Tran_fft { periods = 12; steps_per_period = 256; n_samples = 64 };
  ]

(* The cascade's shared budget axes are wall clock and Newton iterations.
   The transient fallback counts integration steps, not Newton iterations,
   so it keeps its own step-sized iteration pool and inherits only the
   remaining wall clock. *)
let to_stage c ~freq spec =
  Cascade.stage ~engine:(stage_engine spec) (fun ~budget () ->
      match spec with
      | Hb_stage options ->
          Supervisor.map of_hb (Hb.solve_outcome ~budget ~options c ~freq)
      | Shooting_stage options ->
          Supervisor.map of_shooting (Shooting.solve_outcome ~budget ~options c ~freq)
      | Tran_fft { periods; steps_per_period; n_samples } ->
          let period = 1.0 /. freq in
          let dt = period /. float_of_int steps_per_period in
          let t_stop = float_of_int periods *. period in
          let budget =
            { Tran.default_budget with Supervisor.wall_clock = budget.Supervisor.wall_clock }
          in
          Supervisor.map (of_tran c ~freq ~n:n_samples)
            (Tran.run_outcome ~budget c ~t_stop ~dt))

let solve_outcome ?budget ?chain c ~freq =
  let chain = match chain with Some l -> l | None -> default_chain () in
  Cascade.run ?budget (List.map (to_stage c ~freq) chain)

(* ------------------------------------------------------------ measures -- *)

let waveform sol name = Mat.col sol.samples (Mna.node sol.circuit name)
let harmonic_amplitude sol name k = Grid.amplitude (waveform sol name) k

(* ------------------------------------------------------- certification -- *)

(* magnitude of the largest term in the KCL balance: normalizes residuals
   so one certificate spans circuits stamped in volts, amps or coulombs *)
let kcl_scale c ~period (samples : Mat.t) (times : Vec.t) =
  let ns = samples.Mat.rows and n = samples.Mat.cols in
  let qs = Mat.make ns n in
  let m = ref 0.0 in
  for s = 0 to ns - 1 do
    let xs = Mat.row samples s in
    Mat.set_row qs s (Mna.eval_q c xs);
    m := Float.max !m (Vec.norm_inf (Mna.eval_f c xs));
    m := Float.max !m (Vec.norm_inf (Mna.eval_b c times.(s)))
  done;
  for j = 0 to n - 1 do
    let dq = Grid.diff_samples ~period (Mat.col qs j) in
    m := Float.max !m (Vec.norm_inf dq)
  done;
  if !m > 0.0 then !m else 1.0

let spectral_residual sol ~factor =
  let period = 1.0 /. sol.freq in
  let dense =
    if factor = 1 then sol.samples
    else begin
      let ns = sol.samples.Mat.rows and n = sol.samples.Mat.cols in
      let d = Mat.make (ns * factor) n in
      for j = 0 to n - 1 do
        Mat.set_col d j (Grid.resample ~factor (Mat.col sol.samples j))
      done;
      d
    end
  in
  let times = Grid.times ~period ~n:dense.Mat.rows in
  Hb.residual_norm sol.circuit ~freq:sol.freq dense
  /. kcl_scale sol.circuit ~period dense times

let reintegrate_period c ~period ~steps x0 =
  let dt = period /. float_of_int steps in
  let x = ref (Vec.copy x0) and t = ref 0.0 in
  for _ = 1 to steps do
    x := Tran.implicit_step c ~scheme:Tran.Trap ~x_prev:!x ~t_prev:!t ~dt;
    t := !t +. dt
  done;
  !x

(* time-domain re-evaluation: integrate one period from the claimed
   periodic point with an integrator none of the engines used for the
   final answer (trapezoidal) and measure the orbit mismatch *)
let periodicity_error sol =
  let period = 1.0 /. sol.freq in
  let x0 = Mat.row sol.samples 0 in
  let steps = max 128 (4 * sol.samples.Mat.rows) in
  let scale = Float.max 1e-9 (Mat.max_abs sol.samples) in
  match reintegrate_period sol.circuit ~period ~steps x0 with
  | x_end -> Vec.norm_inf (Vec.sub x_end x0) /. scale
  | exception (Tran.Step_failed _ | Error.No_convergence _) -> infinity

let cross_harmonics = 4

let cross_error a b =
  let n = a.samples.Mat.cols in
  let amp sol j k = Grid.amplitude (Mat.col sol.samples j) k in
  let scale = ref 0.0 and dev = ref 0.0 in
  for j = 0 to n - 1 do
    for k = 0 to cross_harmonics do
      let x = amp a j k and y = amp b j k in
      scale := Float.max !scale (Float.max x y);
      dev := Float.max !dev (Float.abs (x -. y))
    done
  done;
  if !scale > 0.0 then !dev /. !scale else 0.0

let non_finite_count (m : Mat.t) =
  Array.fold_left
    (fun acc v -> if Float.is_finite v then acc else acc +. 1.0)
    0.0 m.Mat.a

(* Engine-aware spectral checks: a band-limited HB solution must satisfy
   the collocation equations AT its own grid points almost exactly (any
   violation means the result was corrupted after the solve), while the
   residual BETWEEN grid points measures aliasing/truncation and is
   legitimately ~1e-4 on sharply nonlinear decks. Time-marched samples
   (shooting BDF2, resampled transient) carry O(h^2) integration error
   that a spectral re-evaluation sees as residual, so they get a single
   looser check. The time-domain re-integration check is engine-neutral. *)
let spectral_checks ~tol_scale sol =
  match sol.engine with
  | "hb" | "hb-gmres" ->
      [
        Certify.check ~name:"kcl-collocation"
          ~measured:(spectral_residual sol ~factor:1)
          ~threshold:(1e-6 *. tol_scale);
        Certify.check ~name:"kcl-dense"
          ~measured:(spectral_residual sol ~factor:2)
          ~threshold:(1e-2 *. tol_scale);
      ]
  | "shooting" ->
      [
        Certify.check ~name:"kcl-spectral"
          ~measured:(spectral_residual sol ~factor:1)
          ~threshold:(0.1 *. tol_scale);
      ]
  | _ ->
      [
        Certify.check ~name:"kcl-spectral"
          ~measured:(spectral_residual sol ~factor:1)
          ~threshold:(0.2 *. tol_scale);
      ]

let certify ?(tol_scale = 1.0) ?cross sol =
  let checks =
    Certify.check ~name:"finite" ~measured:(non_finite_count sol.samples)
      ~threshold:0.5
    :: spectral_checks ~tol_scale sol
    @ [
        Certify.check ~name:"periodicity" ~measured:(periodicity_error sol)
          ~threshold:(5e-2 *. tol_scale);
      ]
  in
  let checks =
    match cross with
    | None -> checks
    | Some other ->
        checks
        @ [
            Certify.check
              ~name:(Printf.sprintf "cross-spectrum(%s)" other.engine)
              ~measured:(cross_error sol other)
              ~threshold:(0.1 *. tol_scale);
          ]
  in
  Certify.assemble ~subject:("pss:" ^ sol.engine) checks
