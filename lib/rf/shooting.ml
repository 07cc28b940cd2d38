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

(* One Gear-2 (BDF2) step: solve
     (3 q(x1) - 4 q(x0) + q(x_m1)) / (2h) + f(x1) = b(t1)
   by damped Newton. BDF2 is the standard shooting integrator: unlike
   backward Euler it does not damp oscillator amplitudes to first order,
   and unlike trapezoidal it does not make algebraic MNA rows oscillate
   (which would park a Floquet multiplier at -1 and break (M - I)). *)
let gear2_step ?(damping = 5.0) ?symb c ~x_prev ~x_prev2 ~t1 ~h =
  let symb = match symb with Some r -> r | None -> ref None in
  let n = Mna.size c in
  let q0 = Mna.eval_q c x_prev and qm1 = Mna.eval_q c x_prev2 in
  let b1 = Mna.eval_b c t1 in
  let x = Vec.copy x_prev in
  let ok = ref false in
  let iter = ref 0 in
  while (not !ok) && !iter < 50 do
    incr iter;
    let q1 = Mna.eval_q c x and f1 = Mna.eval_f c x in
    let r =
      Vec.init n (fun i ->
          (((3.0 *. q1.(i)) -. (4.0 *. q0.(i)) +. qm1.(i)) /. (2.0 *. h))
          +. f1.(i) -. b1.(i))
    in
    (* residual scale: the q/h terms dominate, so an absolute tolerance is
       meaningless -- converge on the Newton step size instead *)
    if Vec.norm_inf r <= 1e-11 *. Float.max 1.0 (Vec.norm_inf b1) +. 1e-13 then
      ok := true
    else begin
      let j =
        Sparse.add
          (Sparse.scale (1.5 /. h) (Mna.jac_c_sparse c x))
          (Mna.jac_g_sparse c x)
      in
      let dx =
        try Sparse_lu.solve (Sparse_lu.factor_cached symb j) r
        with Lu.Singular ->
          Error.fail ~engine ~time:t1 ~cause:Supervisor.Singular_jacobian
            "singular Gear2 step Jacobian"
      in
      Guard.check ~engine ~iter:!iter dx;
      let step = Vec.norm_inf dx in
      if step <= 1e-11 *. Float.max 1.0 (Vec.norm_inf x) then ok := true
      else begin
        let scale = if step > damping then damping /. step else 1.0 in
        Vec.axpy (-.scale) dx x
      end
    end
  done;
  if not !ok then raise (Tran.Step_failed t1);
  x

(* Integrate one period from x0 with m implicit steps (BE start-up step,
   Gear-2 afterwards), propagating the monodromy; [t_offset] positions the
   sources in absolute time. Monodromy recurrences:
     BE:    (C1/h + G1)        dx1 = (C0/h) dx0
     Gear2: (3C1/(2h) + G1)    dx1 = (2/h) C0 dx0 - (1/(2h)) C_m1 dx_m1
   Returns (trajectory including endpoint, monodromy). *)
let integrate_period ?(with_monodromy = true) ?damping c ~x0 ~period ~m ~t_offset =
  let n = Mna.size c in
  (* one symbolic LU analysis serves every step Jacobian of the period:
     BE and Gear2 companion matrices share the C-union-G pattern *)
  let symb = ref None in
  let h = period /. float_of_int m in
  let traj = Mat.make (m + 1) n in
  Mat.set_row traj 0 x0;
  let mono = ref (if with_monodromy then Mat.identity n else Mat.make 0 0) in
  let mono_prev = ref (if with_monodromy then Mat.identity n else Mat.make 0 0) in
  let x = ref (Vec.copy x0) in
  let x_prev2 = ref (Vec.copy x0) in
  for k = 1 to m do
    let t1 = t_offset +. (float_of_int k *. h) in
    let x_prev = !x in
    let x_next =
      if k = 1 then
        Tran.implicit_step ~symb c ~method_:Tran.Backward_euler ~x_prev
          ~t_prev:(t1 -. h) ~dt:h
      else gear2_step ?damping ~symb c ~x_prev ~x_prev2:!x_prev2 ~t1 ~h
    in
    if with_monodromy then begin
      (* step Jacobians and monodromy propagation through the sparse
         stamps: the monodromy itself is dense, but every product against
         it is a sparse matmat and every solve a sparse LU *)
      let c1 = Mna.jac_c_sparse c x_next and g1 = Mna.jac_g_sparse c x_next in
      if k = 1 then begin
        let j = Sparse.add (Sparse.scale (1.0 /. h) c1) g1 in
        let c0 = Sparse.scale (1.0 /. h) (Mna.jac_c_sparse c x_prev) in
        let f =
          try Sparse_lu.factor_cached symb j
          with Lu.Singular ->
            Error.fail ~engine ~time:t1 ~cause:Supervisor.Singular_jacobian
              "singular step Jacobian"
        in
        mono_prev := Mat.identity n;
        mono := Sparse_lu.solve_mat f (Sparse.matmat c0 (Mat.identity n))
      end
      else begin
        let j = Sparse.add (Sparse.scale (1.5 /. h) c1) g1 in
        let c0 = Mna.jac_c_sparse c x_prev and cm1 = Mna.jac_c_sparse c !x_prev2 in
        let rhs =
          Mat.sub
            (Sparse.matmat (Sparse.scale (2.0 /. h) c0) !mono)
            (Sparse.matmat (Sparse.scale (0.5 /. h) cm1) !mono_prev)
        in
        let f =
          try Sparse_lu.factor_cached symb j
          with Lu.Singular ->
            Error.fail ~engine ~time:t1 ~cause:Supervisor.Singular_jacobian
              "singular step Jacobian"
        in
        let m_next = Sparse_lu.solve_mat f rhs in
        mono_prev := !mono;
        mono := m_next
      end
    end;
    Mat.set_row traj k x_next;
    x_prev2 := x_prev;
    x := x_next
  done;
  (traj, !mono)

let newton_shooting ?damping ?(iter_cap = max_int) c ~x_init ~period ~m ~options =
  let n = Mna.size c in
  let x0 = ref (Vec.copy x_init) in
  let iters = ref 0 in
  let total_steps = ref 0 in
  let converged = ref false in
  let last_res = ref infinity in
  let final = ref None in
  let cap = min options.max_newton iter_cap in
  while (not !converged) && !iters < cap do
    incr iters;
    let traj, mono = integrate_period ?damping c ~x0:!x0 ~period ~m ~t_offset:0.0 in
    total_steps := !total_steps + m;
    let xt = Mat.row traj m in
    let r = Vec.sub xt !x0 in
    last_res := Vec.norm_inf r;
    if Vec.norm_inf r <= options.tol *. Float.max 1.0 (Vec.norm_inf xt) then begin
      converged := true;
      final := Some (traj, mono)
    end
    else begin
      (* (M - I) dx = -r *)
      if Faults.singular_now ~engine then
        Error.fail ~engine ~cause:Supervisor.Singular_jacobian
          "M - I singular (injected)";
      let a = Mat.sub mono (Mat.identity n) in
      let dx =
        try Lu.solve (Lu.factor a) (Vec.neg r)
        with Lu.Singular ->
          Error.fail ~engine ~cause:Supervisor.Singular_jacobian
            "M - I singular (try autonomous solver?)"
      in
      Guard.check ~engine ~iter:!iters dx;
      Vec.add_inplace dx !x0
    end
  done;
  match !final with
  | Some (traj, mono) -> (traj, mono, !iters, !total_steps)
  | None ->
      Error.fail ~engine
        ~cause:
          (Supervisor.Newton_stall { iterations = !iters; residual = !last_res })
        "shooting Newton did not converge"

let solve_core ~options ~damping ~iter_cap ?x0 c ~freq =
  let period = 1.0 /. freq in
  let m = options.steps_per_period in
  let n = Mna.size c in
  let x_init =
    match x0 with
    | Some v -> Vec.copy v
    | None ->
        let start = Dc.dc_point c in
        if options.warm_periods = 0 then start
        else begin
          let traj = ref start in
          for p = 0 to options.warm_periods - 1 do
            let t_offset = float_of_int p *. period in
            let tr, _ =
              integrate_period ~with_monodromy:false ~damping c ~x0:!traj ~period
                ~m ~t_offset
            in
            traj := Mat.row tr m
          done;
          !traj
        end
  in
  let traj, mono, iters, steps =
    newton_shooting ~damping ~iter_cap c ~x_init ~period ~m ~options
  in
  {
    circuit = c;
    period;
    x0 = Mat.row traj 0;
    times = Vec.init m (fun k -> period *. float_of_int k /. float_of_int m);
    samples = Mat.init m n (fun k i -> Mat.get traj k i);
    monodromy = mono;
    newton_iters = iters;
    integration_steps = steps + (options.warm_periods * m);
  }

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
      try
        let res = solve_core ~options ~damping ~iter_cap ?x0 c ~freq in
        Ok
          ( res,
            {
              Supervisor.iterations = res.newton_iters;
              residual = 0.0;
              krylov_iterations = 0;
            } )
      with
      | Error.No_convergence e -> Error (e.Error.cause, Supervisor.no_stats)
      | Guard.Non_finite_found { iter; index } ->
          Error (Supervisor.Non_finite { iter; index }, Supervisor.no_stats)
      (* an implicit step of the period integration diverged: typed as a
         stall, as Tran.run_outcome does, so the ladder (and the PSS
         cascade above it) moves on instead of unwinding *)
      | Tran.Step_failed _ ->
          Error
            ( Supervisor.Newton_stall { iterations = 0; residual = infinity },
              Supervisor.no_stats ))
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
  let xi = ref (Vec.copy x) in
  for p = 0 to warm - 1 do
    let traj, _ =
      integrate_period ~with_monodromy:false c ~x0:!xi ~period:period_guess ~m
        ~t_offset:(float_of_int p *. period_guess)
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
  (* Newton on (x0, T) with phase condition x0(anchor) = anchor_value *)
  let x0 = ref (Vec.copy x_init) and period = ref period0 in
  let iters = ref 0 and steps = ref total in
  let converged = ref false in
  let final = ref None in
  while (not !converged) && !iters < options.max_newton do
    incr iters;
    let traj, mono =
      integrate_period c ~x0:!x0 ~period:!period ~m ~t_offset:0.0
    in
    steps := !steps + m;
    let xt = Mat.row traj m in
    let r = Vec.sub xt !x0 in
    let scale = Float.max 1.0 (Vec.norm_inf xt) in
    if Vec.norm_inf r <= options.tol *. scale then begin
      converged := true;
      final := Some (traj, mono)
    end
    else begin
      (* dphi/dT by forward difference on the period *)
      let dT = 1e-6 *. !period in
      let traj2, _ =
        integrate_period ~with_monodromy:false c ~x0:!x0 ~period:(!period +. dT) ~m
          ~t_offset:0.0
      in
      steps := !steps + m;
      let dphi = Vec.scale (1.0 /. dT) (Vec.sub (Mat.row traj2 m) xt) in
      (* bordered system: rows = shooting residual + phase anchor *)
      let a = Mat.make (n + 1) (n + 1) in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          Mat.set a i j (Mat.get mono i j -. if i = j then 1.0 else 0.0)
        done;
        Mat.set a i n dphi.(i)
      done;
      Mat.set a n anchor 1.0;
      let rhs = Vec.create (n + 1) in
      for i = 0 to n - 1 do
        rhs.(i) <- -.r.(i)
      done;
      rhs.(n) <- anchor_value -. !x0.(anchor);
      let delta =
        try Lu.solve (Lu.factor a) rhs
        with Lu.Singular ->
          Error.fail ~engine ~cause:Supervisor.Singular_jacobian
            "bordered shooting system singular"
      in
      Guard.check ~engine ~iter:!iters delta;
      (* damp the bordered Newton step: the period column is badly scaled
         against the state columns, so early iterations can overshoot *)
      let dT = delta.(n) in
      let state_step =
        let mx = ref 0.0 in
        for i = 0 to n - 1 do
          mx := Float.max !mx (Float.abs delta.(i))
        done;
        !mx
      in
      let damp = ref 1.0 in
      if Float.abs dT > 0.2 *. !period then damp := 0.2 *. !period /. Float.abs dT;
      if state_step *. !damp > 2.0 then damp := 2.0 /. state_step;
      for i = 0 to n - 1 do
        !x0.(i) <- !x0.(i) +. (!damp *. delta.(i))
      done;
      period := !period +. (!damp *. dT)
    end
  done;
  match !final with
  | None ->
      Error.fail ~engine
        ~cause:
          (Supervisor.Newton_stall { iterations = !iters; residual = infinity })
        "autonomous shooting did not converge"
  | Some (traj, mono) ->
      {
        circuit = c;
        period = !period;
        x0 = Mat.row traj 0;
        times = Vec.init m (fun k -> !period *. float_of_int k /. float_of_int m);
        samples = Mat.init m n (fun k i -> Mat.get traj k i);
        monodromy = mono;
        newton_iters = !iters;
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
