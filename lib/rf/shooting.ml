open Rfkit_la
open Rfkit_circuit
open Rfkit_solve

exception No_convergence = Error.No_convergence

let engine = "shooting"

type options = {
  steps_per_period : int;
  max_newton : int;
  tol : float;
  warm_periods : int;
}

let default_options =
  { steps_per_period = 100; max_newton = 40; tol = 1e-9; warm_periods = 3 }

type result = {
  circuit : Mna.t;
  period : float;
  x0 : Vec.t;
  times : Vec.t;
  samples : Mat.t;
  monodromy : Mat.t;
  newton_iters : int;
  integration_steps : int;
}

type stepper = {
  engine : string;
  gear2 : bool;
  start : Tran.stop;
  stop : Tran.stop;
  period_cache : bool;
}

(* Gear-2 (BDF2) is the standard shooting integrator: unlike backward
   Euler it does not damp oscillator amplitudes to first order, and unlike
   trapezoidal it does not make algebraic MNA rows oscillate (which would
   park a Floquet multiplier at -1 and break (M - I)). Its residual is
   dominated by the q/h terms, so it also stops on a vanishing Newton
   step. *)
let gear2_stop ~damping =
  { Tran.max_iter = 50; res_abs = 1e-13; res_rel = 1e-11; step_rel = 1e-11; damping }

(* the steps poll Guard and the fault hooks as transient steps: a
   singular plan for "shooting" fires in its (M - I) Newton only *)
let stepper ~damping =
  {
    engine = "tran";
    gear2 = true;
    start = Tran.default_stop;
    stop = gear2_stop ~damping;
    period_cache = true;
  }

(* One period from x0 in m steps of h: a backward-Euler start step, then
   Gear-2 or BE steps; step k arrives at [time k] and sees the sources
   [b (time k)]. The monodromy M = dx_m/dx0 is propagated alongside:
     BE:    (a_c C1 + G1) M1 = (C0/h) M0
     Gear2: (a_c C1 + G1) M1 = (2/h) C0 M0 - (1/(2h)) C_-1 M_-1
   with the step's own Jacobian on the left. The monodromy is dense, but
   every product against it is a sparse matmat and every solve a sparse
   LU. *)
let integrate ?(with_monodromy = true) ?coupling ?b st c ~time ~h ~m x0 =
  let n = Mna.size c in
  let b = match b with Some b -> b | None -> Mna.eval_b c in
  let perm = Mna.ordering_perm c in
  (* with [period_cache] one symbolic LU analysis serves every step and
     monodromy factor of the period: BE and Gear-2 companion matrices
     share the C-union-G pattern *)
  let period_symb = ref None in
  let symb = if st.period_cache then Some period_symb else None in
  let traj = Mat.make (m + 1) n in
  Mat.set_row traj 0 x0;
  let mono = ref (if with_monodromy then Mat.identity n else Mat.make 0 0) in
  let mono_prev = ref !mono in
  let x = ref (Vec.copy x0) and x_prev2 = ref (Vec.copy x0) in
  for k = 1 to m do
    let t1 = time k in
    let x_prev = !x in
    let scheme = if st.gear2 && k > 1 then Tran.Gear2 !x_prev2 else Tran.Be in
    (* the coupling reference is sampled at the arrival instant; the grid
       is periodic so step [m] wraps to index 0 *)
    let coupling = Option.map (fun (inv_h1, q_ref) -> (inv_h1, q_ref.(k mod m))) coupling in
    let x_next =
      Tran.implicit_step
        ~stop:(if k = 1 then st.start else st.stop)
        ?symb ~engine:st.engine ~rhs:(b t1) ?coupling c ~scheme ~x_prev
        ~t_prev:(t1 -. h) ~dt:h
    in
    if with_monodromy then begin
      let j = Tran.step_jacobian ?coupling c ~scheme ~dt:h x_next in
      let f =
        try
          if st.period_cache then Sparse_lu.factor_cached ?perm period_symb j
          else Sparse_lu.factor ?perm j
        with Lu.Singular ->
          raise (Tran.Step_failed { time = t1; cause = Supervisor.Singular_jacobian })
      in
      let rhs =
        match scheme with
        | Tran.Gear2 x_m1 ->
            Mat.sub
              (Sparse.matmat (Sparse.scale (2.0 /. h) (Mna.jac_c_sparse c x_prev)) !mono)
              (Sparse.matmat (Sparse.scale (0.5 /. h) (Mna.jac_c_sparse c x_m1)) !mono_prev)
        | _ -> Sparse.matmat (Sparse.scale (1.0 /. h) (Mna.jac_c_sparse c x_prev)) !mono
      in
      mono_prev := !mono;
      mono := Sparse_lu.solve_mat f rhs
    end;
    Mat.set_row traj k x_next;
    x_prev2 := x_prev;
    x := x_next
  done;
  (traj, !mono)

(* Newton on x0 for phi(x0) - x0 = 0, phi one period of [period]:
   (M - I) dx = phi(x0) - x0, full steps. *)
let newton ~engine ~max_newton ~tol period x_init =
  let last = ref (Mat.make 0 0, Mat.make 0 0) in
  let residual x0 =
    let ((traj, _) as p) = period x0 in
    last := p;
    let xt = Mat.row traj (traj.Mat.rows - 1) in
    (Vec.sub xt x0, Vec.norm_inf xt)
  in
  let solve _ r =
    let mono = snd !last in
    (Lu.solve (Lu.factor (Mat.sub mono (Mat.identity (Array.length r)))) r, 0)
  in
  let stop =
    { Newton.max_iter = max_newton; res_abs = 0.0; res_rel = tol; step_rel = 0.0;
      damping = infinity }
  in
  Newton.run ~engine ~stop ~residual ~solve x_init
  |> Result.map (fun (_, stats) -> (fst !last, snd !last, stats))

(* one period of m steps from x0, the sources positioned from t_offset *)
let one_period ?with_monodromy st c ~period ~m ~t_offset x0 =
  let h = period /. float_of_int m in
  integrate ?with_monodromy st c ~time:(fun k -> t_offset +. (float_of_int k *. h)) ~h ~m x0

let solve_core ~options ~damping ~iter_cap ?x0 c ~freq =
  let period = 1.0 /. freq in
  let m = options.steps_per_period in
  let n = Mna.size c in
  let st = stepper ~damping in
  let x_init =
    match x0 with
    | Some v -> Vec.copy v
    | None ->
        let start = Dc.dc_point c in
        let x = ref start in
        for p = 0 to options.warm_periods - 1 do
          let tr, _ =
            one_period ~with_monodromy:false st c ~period ~m
              ~t_offset:(float_of_int p *. period) !x
          in
          x := Mat.row tr m
        done;
        !x
  in
  match
    newton ~engine ~max_newton:(min options.max_newton iter_cap) ~tol:options.tol
      (one_period st c ~period ~m ~t_offset:0.0)
      x_init
  with
  | Error (cause, _) -> Error (cause, Supervisor.no_stats)
  | Ok (traj, mono, st) ->
      let res =
        {
          circuit = c;
          period;
          x0 = Mat.row traj 0;
          times = Vec.init m (fun k -> period *. float_of_int k /. float_of_int m);
          samples = Mat.init m n (fun k i -> Mat.get traj k i);
          monodromy = mono;
          newton_iters = st.Supervisor.iterations;
          integration_steps = (st.Supervisor.iterations + options.warm_periods) * m;
        }
      in
      Ok (res, { Supervisor.iterations = res.newton_iters; residual = 0.0; krylov_iterations = 0 })

let default_damping = 5.0

let solve_outcome ?budget ?(options = default_options) ?x0 c ~freq =
  Supervisor.run ?budget ~engine
    ~ladder:
      [
        Supervisor.Base;
        Supervisor.Tighten_damping (default_damping /. 4.0);
        Supervisor.Warm_start (4 * max 1 options.warm_periods);
      ]
    ~attempt:(fun strategy ~iter_cap ->
      let damping, options =
        match strategy with
        | Supervisor.Tighten_damping d -> (d, options)
        | Supervisor.Warm_start p -> (default_damping, { options with warm_periods = p })
        | _ -> (default_damping, options)
      in
      (* a step of a warm-up period failed: its own typed cause *)
      try solve_core ~options ~damping ~iter_cap ?x0 c ~freq with
      | Tran.Step_failed { cause; _ } -> Error (cause, Supervisor.no_stats))
    ()

(* crude period estimate from mean crossings of the widest-swinging state *)
let estimate_period times trace =
  let n = Array.length trace in
  let mean = Stats.mean trace in
  let crossings = ref [] in
  for k = 1 to n - 1 do
    if trace.(k - 1) < mean && trace.(k) >= mean then begin
      (* linear interpolation of the crossing instant *)
      let frac = (mean -. trace.(k - 1)) /. (trace.(k) -. trace.(k - 1)) in
      let t = times.(k - 1) +. (frac *. (times.(k) -. times.(k - 1))) in
      crossings := t :: !crossings
    end
  done;
  match !crossings with
  | t2 :: rest when List.length rest >= 1 ->
      let ts = Array.of_list (List.rev (t2 :: rest)) in
      let diffs = Array.init (Array.length ts - 1) (fun i -> ts.(i + 1) -. ts.(i)) in
      Some (Stats.mean diffs)
  | _ -> None

let solve_autonomous ?(options = default_options) c ~freq_guess ~kick =
  let n = Mna.size c in
  let period_guess = 1.0 /. freq_guess in
  let m = options.steps_per_period in
  (* warm up: kicked DC state integrated over many guess periods *)
  let xdc = Dc.dc_point c in
  let x = Vec.copy xdc in
  kick x;
  let warm = max 8 options.warm_periods in
  let h = period_guess /. float_of_int m in
  let total = warm * m in
  let warm_times = Array.init (total + 1) (fun k -> float_of_int k *. h) in
  let warm_traj = Mat.make (total + 1) n in
  Mat.set_row warm_traj 0 x;
  (* Gear-2 for the warm-up as well: backward Euler's numerical damping can
     balance a weak oscillator's anti-damping at a spurious amplitude,
     stranding the Newton iteration far from the true orbit *)
  let st = stepper ~damping:default_damping in
  let xi = ref (Vec.copy x) in
  for p = 0 to warm - 1 do
    let traj, _ =
      one_period ~with_monodromy:false st c ~period:period_guess ~m
        ~t_offset:(float_of_int p *. period_guess) !xi
    in
    for k = 1 to m do
      Mat.set_row warm_traj ((p * m) + k) (Mat.row traj k)
    done;
    xi := Mat.row traj m
  done;
  (* pick the anchor component: largest swing over the last half *)
  let lo = total / 2 in
  let best = ref 0 and best_swing = ref 0.0 in
  for i = 0 to n - 1 do
    let mn = ref infinity and mx = ref neg_infinity in
    for k = lo to total do
      let v = Mat.get warm_traj k i in
      if v < !mn then mn := v;
      if v > !mx then mx := v
    done;
    if !mx -. !mn > !best_swing then begin
      best_swing := !mx -. !mn;
      best := i
    end
  done;
  if !best_swing < 1e-9 then begin
    let what = "no oscillation detected after warm-up (kick too small?)" in
    Error.fail ~engine ~cause:(Supervisor.Unsupported what) what
  end;
  let anchor = !best in
  let tail_times = Array.sub warm_times lo (total + 1 - lo) in
  let tail_trace = Array.init (total + 1 - lo) (fun k -> Mat.get warm_traj (lo + k) anchor) in
  let period0 =
    match estimate_period tail_times tail_trace with
    | Some p -> p
    | None -> period_guess
  in
  let x_init = Mat.row warm_traj total in
  let anchor_value = x_init.(anchor) in
  (* Newton on z = [x0; T] for [phi_T(x0) - x0; x0(anchor) - anchor_value] *)
  let steps = ref total and last = ref (Mat.make 0 0, Mat.make 0 0) in
  let residual z =
    let x0 = Array.sub z 0 n in
    let ((traj, _) as p) = one_period st c ~period:z.(n) ~m ~t_offset:0.0 x0 in
    steps := !steps + m;
    last := p;
    let xt = Mat.row traj m in
    let r = Vec.create (n + 1) in
    for i = 0 to n - 1 do
      r.(i) <- xt.(i) -. x0.(i)
    done;
    r.(n) <- x0.(anchor) -. anchor_value;
    (r, Vec.norm_inf xt)
  in
  (* the bordered Jacobian [[M - I, dphi/dT]; [e_anchor, 0]], dphi/dT by
     a forward difference on the period *)
  let solve z r =
    let traj, mono = !last in
    let xt = Mat.row traj m in
    let dT = 1e-6 *. z.(n) in
    let traj2, _ =
      one_period ~with_monodromy:false st c ~period:(z.(n) +. dT) ~m ~t_offset:0.0
        (Array.sub z 0 n)
    in
    steps := !steps + m;
    let dphi = Vec.scale (1.0 /. dT) (Vec.sub (Mat.row traj2 m) xt) in
    let a = Mat.make (n + 1) (n + 1) in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        Mat.set a i j (Mat.get mono i j -. if i = j then 1.0 else 0.0)
      done;
      Mat.set a i n dphi.(i)
    done;
    Mat.set a n anchor 1.0;
    (Lu.solve (Lu.factor a) r, 0)
  in
  (* the period column is badly scaled against the state columns, so
     early iterations can overshoot: cap the period step at 0.2 T and the
     state step at 2 *)
  let damp z dz =
    let dT = Float.abs dz.(n) and state_step = ref 0.0 in
    for i = 0 to n - 1 do
      state_step := Float.max !state_step (Float.abs dz.(i))
    done;
    let s = if dT > 0.2 *. z.(n) then 0.2 *. z.(n) /. dT else 1.0 in
    if !state_step *. s > 2.0 then 2.0 /. !state_step else s
  in
  let stop =
    { Newton.max_iter = options.max_newton; res_abs = 0.0; res_rel = options.tol;
      step_rel = 0.0; damping = infinity }
  in
  let z0 = Array.append x_init [| period0 |] in
  match Newton.run ~damp ~engine ~stop ~residual ~solve z0 with
  | Error (cause, _) -> Error.fail ~engine ~cause "autonomous shooting did not converge"
  | Ok (z, stats) ->
      let traj, mono = !last in
      {
        circuit = c;
        period = z.(n);
        x0 = Mat.row traj 0;
        times = Vec.init m (fun k -> z.(n) *. float_of_int k /. float_of_int m);
        samples = Mat.init m n (fun k i -> Mat.get traj k i);
        monodromy = mono;
        newton_iters = stats.Supervisor.iterations;
        integration_steps = !steps;
      }

let waveform res name =
  let idx = Mna.node res.circuit name in
  Mat.col res.samples idx

let state_derivative res =
  let n = res.samples.Mat.cols in
  let d = Mat.make res.samples.Mat.rows n in
  for j = 0 to n - 1 do
    Mat.set_col d j (Grid.diff_samples ~period:res.period (Mat.col res.samples j))
  done;
  d
