open Rfkit_la
open Rfkit_circuit
open Rfkit_rf

type ensemble = {
  crossing_index : int array;
  mean_times : float array;
  variances : float array;
}

let engine = "jitter"

(* Euler-Maruyama: one backward-Euler step with the frozen noise current
   as the right-hand side, solved until the Newton step vanishes (the
   residual test never passes) *)
let stop = { Tran.default_stop with res_abs = neg_infinity; step_rel = 1e-12 }

let run ?(seed = 42) ?(trajectories = 24) ?(noise_scale = 1.0) orbit ~periods ~node =
  let c = orbit.Shooting.circuit in
  let n = Mna.size c in
  let idx = Mna.node c node in
  let m = orbit.Shooting.samples.Mat.rows in
  let dt = orbit.Shooting.period /. float_of_int m in
  let sources = Mna.noise_sources c in
  let patterns = Array.map (Mna.noise_pattern c) sources in
  let level =
    (* threshold = orbit mean of the observed node *)
    Stats.mean (Mat.col orbit.Shooting.samples idx)
  in
  (* every step of every trajectory stamps the same C/dt + G pattern, so
     one symbolic cache turns all but the first factor into refactors *)
  let cache = ref None in
  let total_steps = periods * m in
  let max_crossings = periods - 1 in
  let crossing_times = Array.make_matrix trajectories max_crossings nan in
  for traj = 0 to trajectories - 1 do
    let rng = Rng.create (seed + (7919 * traj)) in
    let x = ref (Vec.copy orbit.Shooting.x0) in
    let t = ref 0.0 in
    let count = ref 0 in
    for _step = 1 to total_steps do
      let i_noise = Vec.create n in
      Array.iteri
        (fun j (src : Device.noise_source) ->
          let psd = noise_scale *. src.Device.psd_at !x in
          if psd > 0.0 then begin
            let amp = sqrt (psd /. (2.0 *. dt)) *. Rng.gaussian rng in
            Vec.axpy amp patterns.(j) i_noise
          end)
        sources;
      let x_next =
        try
          Tran.implicit_step ~stop ~symb:cache ~engine ~rhs:i_noise c ~scheme:Tran.Be
            ~x_prev:!x ~t_prev:!t ~dt
        (* the step polls Guard: interrupts and deadlines abort the
           ensemble mid-trajectory, a non-finite iterate ends it typed *)
        with Tran.Step_failed { time; cause } ->
          Rfkit_solve.Error.fail ~engine ~time ~cause "noisy step failed"
      in
      let t_next = !t +. dt in
      let v_prev = !x.(idx) and v_next = x_next.(idx) in
      if v_prev < level && v_next >= level && !count < max_crossings then begin
        let frac = (level -. v_prev) /. (v_next -. v_prev) in
        crossing_times.(traj).(!count) <- !t +. (frac *. dt);
        incr count
      end;
      x := x_next;
      t := t_next
    done
  done;
  (* keep crossings observed by every trajectory *)
  let complete = ref max_crossings in
  for traj = 0 to trajectories - 1 do
    let cnt = ref 0 in
    while !cnt < max_crossings && not (Float.is_nan crossing_times.(traj).(!cnt)) do
      incr cnt
    done;
    if !cnt < !complete then complete := !cnt
  done;
  let k = !complete in
  let mean_times = Array.make k 0.0 and variances = Array.make k 0.0 in
  for p = 0 to k - 1 do
    let col = Array.init trajectories (fun traj -> crossing_times.(traj).(p)) in
    mean_times.(p) <- Stats.mean col;
    variances.(p) <- Stats.variance col
  done;
  { crossing_index = Array.init k (fun i -> i + 1); mean_times; variances }

let fitted_slope e =
  let slope, _, r2 = Stats.linreg e.mean_times e.variances in
  (slope, r2)
