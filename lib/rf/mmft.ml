open Rfkit_la
open Rfkit_circuit
open Rfkit_solve

exception No_convergence = Error.No_convergence

let engine = "mmft"

type options = {
  slow_harmonics : int;
  steps2 : int;
  max_newton : int;
  tol : float;
}

let default_options = { slow_harmonics = 3; steps2 = 50; max_newton = 30; tol = 1e-8 }

type result = {
  circuit : Mna.t;
  f1 : float;
  f2 : float;
  options : options;
  sample_times : float array;  (* snapped slow instants s_m *)
  slices : Mat.t array;
  newton_iters : int;
  integration_steps : int;
}

(* Exponential-basis interpolation matrix at sample instants [s]:
   E[m,k] = e^{j k' w1 s_m} with signed k' = k - kmax. *)
let basis_matrix ~kmax ~period1 s =
  let m_count = (2 * kmax) + 1 in
  let w1 = 2.0 *. Float.pi /. period1 in
  Cmat.init m_count m_count (fun m k ->
      Cx.expi (float_of_int (k - kmax) *. w1 *. s.(m)))

(* Delay operator on band-limited T1-periodic sequences sampled at the
   (possibly non-uniform) instants [s]: values at s_m + delay expressed as
   a real matrix acting on the samples, D = Re(E_delayed E^{-1}). Real
   because the trigonometric interpolant of real data is real. *)
let delay_matrix_at ~kmax ~period1 ~delay s =
  let m_count = (2 * kmax) + 1 in
  let e = basis_matrix ~kmax ~period1 s in
  let e_shift =
    basis_matrix ~kmax ~period1 (Array.map (fun sm -> sm +. delay) s)
  in
  let e_inv = Clu.inverse e in
  let d = Cmat.mul e_shift e_inv in
  Mat.init m_count m_count (fun i j -> (Cmat.get d i j).Cx.re)

let delay_matrix ~k ~period1 ~delay =
  let m_count = (2 * k) + 1 in
  let s = Array.init m_count (fun m -> period1 *. float_of_int m /. float_of_int m_count) in
  delay_matrix_at ~kmax:k ~period1 ~delay s

(* backward-Euler fast-period steps, tagged and stopped as transient
   steps, with a fresh symbolic LU per step and a fresh factor per
   monodromy step *)
let stepper =
  {
    Shooting.engine = "tran";
    gear2 = false;
    start = Tran.default_stop;
    stop = Tran.default_stop;
    period_cache = false;
  }

(* one fast period from y0 starting at absolute time t0; step k arrives
   at (t0 + (k-1) h) + h, where a transient stepping on from
   t0 + (k-1) h arrives *)
let integrate_phase ?with_monodromy c ~t0 ~period2 ~steps y0 =
  let h = period2 /. float_of_int steps in
  Shooting.integrate ?with_monodromy stepper c
    ~time:(fun k -> t0 +. (float_of_int (k - 1) *. h) +. h)
    ~h ~m:steps y0

let solve_core ~options ~iter_cap c ~f1 ~f2 =
  let { slow_harmonics = k; steps2; max_newton; tol } = options in
  let n = Mna.size c in
  let m_count = (2 * k) + 1 in
  let period1 = 1.0 /. f1 and period2 = 1.0 /. f2 in
  (* slow sample instants snapped to multiples of the fast period so every
     phase sees the same fast-carrier phase (Kundert's MFT condition);
     requires f2 >> f1, which is the method's domain anyway — a violation
     is a modelling error, so it fail-fasts the ladder as [Unsupported] *)
  let ratio = period1 /. period2 in
  if ratio < float_of_int (2 * m_count) then begin
    let what =
      Printf.sprintf
        "MMFT needs widely separated tones (T1/T2 = %.1f too small for %d phases)"
        ratio m_count
    in
    Error.fail ~engine ~cause:(Supervisor.Unsupported what) what
  end;
  let s =
    Array.init m_count (fun m ->
        let ideal = period1 *. float_of_int m /. float_of_int m_count in
        Float.round (ideal /. period2) *. period2)
  in
  let d = delay_matrix_at ~kmax:k ~period1 ~delay:period2 s in
  let total_steps = ref 0 in
  (* initial guess: each phase from an uncoupled fast-periodic solve with
     sources at absolute time s_m + tau *)
  let xdc = Dc.dc_point c in
  let y =
    Array.init m_count (fun m ->
        let b tau = Mna.eval_b c (s.(m) +. tau) in
        match Slice.solve_periodic_outcome c ~b ~period2 ~steps:steps2 ~y0:xdc with
        | Supervisor.Converged (traj, _) ->
            total_steps := !total_steps + (steps2 * 8);
            Mat.row traj 0
        | Supervisor.Failed f ->
            (* an interrupt or deadline is not a failed slice: re-raise
               it; otherwise start from DC *)
            Supervisor.reraise_abort f;
            xdc)
  in
  (* Newton on the flattened phases y = [y_0; ...; y_{M-1}] for
     rho_m = phi_m(y_m) - sum_m' D[m,m'] y_m' *)
  let y = Array.concat (Array.to_list y) in
  let monos = Array.make m_count (Mat.make 0 0) in
  let residual y =
    let r = Vec.create (m_count * n) in
    let scale_ref = ref 1.0 in
    for m = 0 to m_count - 1 do
      let traj, mono =
        integrate_phase c ~t0:s.(m) ~period2 ~steps:steps2 (Array.sub y (m * n) n)
      in
      total_steps := !total_steps + steps2;
      monos.(m) <- mono;
      for i = 0 to n - 1 do
        let acc = ref 0.0 in
        for m' = 0 to m_count - 1 do
          acc := !acc +. (Mat.get d m m' *. y.((m' * n) + i))
        done;
        let phi = Mat.get traj steps2 i in
        r.((m * n) + i) <- phi -. !acc;
        scale_ref := Float.max !scale_ref (Float.abs phi)
      done
    done;
    (r, !scale_ref)
  in
  (* Jacobian: blockdiag(M_m) - D (x) I_n *)
  let solve _ r =
    let dim = m_count * n in
    let j = Mat.make dim dim in
    for m = 0 to m_count - 1 do
      for i = 0 to n - 1 do
        for jj = 0 to n - 1 do
          Mat.set j ((m * n) + i) ((m * n) + jj) (Mat.get monos.(m) i jj)
        done;
        for m' = 0 to m_count - 1 do
          Mat.update j ((m * n) + i) ((m' * n) + i) (fun w -> w -. Mat.get d m m')
        done
      done
    done;
    (Lu.solve (Lu.factor j) r, 0)
  in
  let stop =
    { Newton.max_iter = min max_newton iter_cap; res_abs = 0.0; res_rel = tol; step_rel = 0.0;
      damping = infinity }
  in
  match Newton.run ~engine ~stop ~residual ~solve y with
  | Error (cause, _) -> Error (cause, Supervisor.no_stats)
  | Ok (y, stats) ->
      (* final trajectories for output processing *)
      let slices =
        Array.init m_count (fun m ->
            let traj, _ =
              integrate_phase ~with_monodromy:false c ~t0:s.(m) ~period2 ~steps:steps2
                (Array.sub y (m * n) n)
            in
            total_steps := !total_steps + steps2;
            Mat.init steps2 n (fun kk i -> Mat.get traj kk i))
      in
      Ok
        ( {
            circuit = c;
            f1;
            f2;
            options;
            sample_times = s;
            slices;
            newton_iters = stats.Supervisor.iterations;
            integration_steps = !total_steps;
          },
          stats )

let solve_outcome ?budget ?(options = default_options) c ~f1 ~f2 =
  Supervisor.run ?budget ~engine
    ~ladder:[ Supervisor.Base; Supervisor.Escalate_samples 2 ]
    ~attempt:(fun strategy ~iter_cap ->
      let options =
        match strategy with
        | Supervisor.Escalate_samples f ->
            { options with steps2 = options.steps2 * f }
        | _ -> options
      in
      try solve_core ~options ~iter_cap c ~f1 ~f2 with
      | Error.No_convergence e -> Error (e.Error.cause, Supervisor.no_stats)
      | Tran.Step_failed { cause; _ } -> Error (cause, Supervisor.no_stats))
    ()

(* Time-varying slow harmonic of a node: at fast offset tau,
   x(s_m + tau) = sum_j A_j(tau) e^{j j w1 s_m}; the coefficients come from
   the (generally non-uniform) interpolation solve E a = y. *)
let harmonic_waveform res name j =
  let idx = Mna.node res.circuit name in
  let kmax = res.options.slow_harmonics in
  let m_count = (2 * kmax) + 1 in
  let steps2 = res.options.steps2 in
  let period1 = 1.0 /. res.f1 in
  let e = basis_matrix ~kmax ~period1 res.sample_times in
  let e_fact = Clu.factor e in
  Cvec.init steps2 (fun kk ->
      let y = Cvec.init m_count (fun m -> Cx.re (Mat.get res.slices.(m) kk idx)) in
      let a = Clu.solve e_fact y in
      a.(j + kmax))

let harmonic_magnitude res name j =
  let h = harmonic_waveform res name j in
  Array.map (fun z -> 2.0 *. Cx.abs z) h

let mix_amplitude res name ~slow ~fast =
  let h = harmonic_waveform res name slow in
  let steps2 = res.options.steps2 in
  (* H_slow(tau) includes the carrier factor of each fast-time instant:
     x(s_m + tau), so the fast dependence is exactly e^{j fast w2 tau}
     plus the slow-harmonic's own phase advance e^{j slow w1 tau}. Demodulate
     both to extract c_{slow,fast}. *)
  let w1 = 2.0 *. Float.pi *. res.f1 and w2 = 2.0 *. Float.pi *. res.f2 in
  let period2 = 1.0 /. res.f2 in
  let acc = ref Cx.zero in
  for kk = 0 to steps2 - 1 do
    let tau = period2 *. float_of_int kk /. float_of_int steps2 in
    let dem = Cx.expi (-.((float_of_int fast *. w2) +. (float_of_int slow *. w1)) *. tau) in
    acc := Cx.( +: ) !acc (Cx.( *: ) h.(kk) dem)
  done;
  let c = Cx.scale (1.0 /. float_of_int steps2) !acc in
  2.0 *. Cx.abs c
