open Rfkit_la
open Rfkit_solve

exception Step_failed = Newton.Step_failed

type method_ = Backward_euler | Trapezoidal

type scheme = Be | Trap | Gear2 of Vec.t

type result = { times : float array; states : Vec.t array }

type stop = Newton.stop = {
  max_iter : int;
  res_abs : float;
  res_rel : float;
  step_rel : float;
  damping : float;
}

let default_stop = { max_iter = 50; res_abs = 1e-9; res_rel = 0.0; step_rel = 0.0; damping = 5.0 }

let engine = "tran"

let scheme_of = function Backward_euler -> Be | Trapezoidal -> Trap

(* Jacobian weights (a_c, a_g) of a step's companion matrix a_c C + a_g G *)
let weights ~coupling ~scheme ~dt =
  let a_c, a_g =
    match scheme with Be -> (1.0 /. dt, 1.0) | Trap -> (1.0 /. dt, 0.5) | Gear2 _ -> (1.5 /. dt, 1.0)
  in
  ((match coupling with None -> a_c | Some (inv_h1, _) -> a_c +. inv_h1), a_g)

(* The companion system of one step from (t_prev, x_prev) to
   t_prev + dt, with b1 the source vector at the arrival instant:
     Be:    (q1 - q0)/dt + f1 - b1
     Trap:  (q1 - q0)/dt + (f1 + f0)/2 - (b1 + b0)/2
     Gear2: (3 q1 - 4 q0 + q_-1)/(2 dt) + f1 - b1
   plus, with a coupling (1/h1, q_ref), the MPDE slow-axis term
   (q1 - q_ref)/h1. Returns b1 and the residual, which also hands back
   f1 = f(x). *)
let companion ?rhs ?coupling c ~scheme ~x_prev ~t_prev ~dt =
  let n = Mna.size c in
  let q0 = Mna.eval_q c x_prev in
  let b1 = match rhs with Some b -> b | None -> Mna.eval_b c (t_prev +. dt) in
  let base =
    match scheme with
    | Be -> fun q1 f1 -> Vec.init n (fun i -> ((q1.(i) -. q0.(i)) /. dt) +. f1.(i) -. b1.(i))
    | Trap ->
        let f0 = Mna.eval_f c x_prev and b0 = Mna.eval_b c t_prev in
        fun q1 f1 ->
          Vec.init n (fun i ->
              ((q1.(i) -. q0.(i)) /. dt)
              +. (0.5 *. (f1.(i) +. f0.(i)))
              -. (0.5 *. (b1.(i) +. b0.(i))))
    | Gear2 x_prev2 ->
        let qm1 = Mna.eval_q c x_prev2 in
        fun q1 f1 ->
          Vec.init n (fun i ->
              (((3.0 *. q1.(i)) -. (4.0 *. q0.(i)) +. qm1.(i)) /. (2.0 *. dt))
              +. f1.(i) -. b1.(i))
  in
  let residual x =
    let q1 = Mna.eval_q c x and f1 = Mna.eval_f c x in
    let r = base q1 f1 in
    (match coupling with
    | None -> ()
    | Some (inv_h1, q_ref) ->
        Array.iteri (fun i ri -> r.(i) <- ri +. ((q1.(i) -. q_ref.(i)) *. inv_h1)) r);
    (r, f1)
  in
  (b1, residual)

let jacobian c ~a_c ~a_g x =
  let cm = Mna.jac_c_sparse c x and gm = Mna.jac_g_sparse c x in
  Sparse.add (Sparse.scale a_c cm) (if a_g = 1.0 then gm else Sparse.scale a_g gm)

let step_jacobian ?coupling c ~scheme ~dt x =
  let a_c, a_g = weights ~coupling ~scheme ~dt in
  jacobian c ~a_c ~a_g x

let implicit_step ?(stop = default_stop) ?(solver = Dc.Sparse_direct) ?symb
    ?(engine = engine) ?rhs ?coupling c ~scheme ~x_prev ~t_prev ~dt =
  (* symbolic LU analysis shared across the step's Newton re-stamps; the
     caller may widen its scope to a whole run or period *)
  let symb = match symb with Some r -> r | None -> ref None in
  let perm = Mna.ordering_perm c in
  let rhs, residual = companion ?rhs ?coupling c ~scheme ~x_prev ~t_prev ~dt in
  let reference = Vec.norm_inf rhs in
  let a_c, a_g = weights ~coupling ~scheme ~dt in
  (* J dx = R(x) with J = a_c C(x) + a_g G(x) *)
  let solve x r =
    Newton.linear_solve solver ?perm ~symb
      ~dense:(fun () -> Mat.add (Mat.scale a_c (Mna.jac_c c x)) (Mat.scale a_g (Mna.jac_g c x)))
      ~sparse:(fun () -> jacobian c ~a_c ~a_g x)
      r
  in
  let residual x = (fst (residual x), reference) in
  match Newton.run ~engine ~stop ~residual ~solve x_prev with
  | Ok (x, _) -> x
  | Error (cause, _) -> raise (Step_failed { time = t_prev +. dt; cause })

let initial_state ?x0 c =
  match x0 with
  | Some v -> Vec.copy v
  | None -> (
      match Dc.solve_outcome c with
      | Supervisor.Converged (x, _) -> x
      | Supervisor.Failed f -> Error.raise_failure ~engine:"dc" f)

let run ?(method_ = Trapezoidal) ?x0 ?(tol = 1e-9) ?solver c ~t_stop ~dt =
  let x0 = initial_state ?x0 c in
  let stop = { default_stop with res_abs = tol } and scheme = scheme_of method_ in
  let steps = int_of_float (Float.ceil (t_stop /. dt)) in
  let times = Array.make (steps + 1) 0.0 in
  let states = Array.make (steps + 1) x0 in
  let symb = ref None in
  for k = 1 to steps do
    let t_prev = times.(k - 1) in
    let dt_k = Float.min dt (t_stop -. t_prev) in
    times.(k) <- t_prev +. dt_k;
    states.(k) <-
      implicit_step ~stop ?solver ~symb c ~scheme ~x_prev:states.(k - 1) ~t_prev
        ~dt:dt_k
  done;
  { times; states }

(* Fixed-step transient under the supervisor: a Newton blow-up at some
   step is retried with the whole run at a finer step before giving up.
   The default budget is step-count based and generous — a transient's
   cost is dominated by its step count, not its per-step Newton depth. *)
let default_budget =
  {
    Supervisor.attempt_iterations = 1_000_000;
    total_iterations = 3_000_000;
    wall_clock = 300.0;
  }

let run_outcome ?(budget = default_budget) ?(method_ = Trapezoidal) ?x0
    ?(tol = 1e-9) ?solver c ~t_stop ~dt =
  (* structural pre-flight on the union pattern: if G+C's matching is
     deficient, the companion matrix C/dt + a*G is singular for every dt
     and every value assignment — refining the time step cannot help *)
  let n = Mna.size c in
  let rank = Mna.structural_rank_gc c in
  if rank < n then
    Supervisor.Failed (Supervisor.structural_failure ~engine ~rank ~size:n)
  else
  Supervisor.run ~budget ~engine
    ~ladder:
      [ Supervisor.Base; Supervisor.Refine_timestep 2; Supervisor.Refine_timestep 8 ]
    ~attempt:(fun strategy ~iter_cap ->
      let dt =
        match strategy with
        | Supervisor.Refine_timestep f -> dt /. float_of_int f
        | _ -> dt
      in
      let steps = int_of_float (Float.ceil (t_stop /. dt)) in
      if steps > iter_cap then
        Error (Supervisor.Budget_exhausted Supervisor.Iterations, Supervisor.no_stats)
      else
        try
          let res = run ~method_ ?x0 ~tol ?solver c ~t_stop ~dt in
          Ok
            ( res,
              {
                Supervisor.iterations = Array.length res.times - 1;
                residual = 0.0;
                krylov_iterations = 0;
              } )
        with
        | Step_failed { time = t; cause } ->
            Error
              ( cause,
                {
                  Supervisor.iterations =
                    (let k = int_of_float (Float.ceil (t /. dt)) in
                     max 0 (min steps k));
                  residual = infinity;
                  krylov_iterations = 0;
                } )
        | Error.No_convergence e -> Error (e.Error.cause, Supervisor.no_stats))
    ()

let run_adaptive ?(method_ = Trapezoidal) ?x0 ?(tol = 1e-9) ?solver
    ?(lte_tol = 1e-6) ?(dt_min = 1e-18) ?dt_max c ~t_stop ~dt0 =
  let x0 = initial_state ?x0 c in
  let stop = { default_stop with res_abs = tol } and scheme = scheme_of method_ in
  let dt_max = match dt_max with Some v -> v | None -> t_stop /. 10.0 in
  let times = ref [ 0.0 ] and states = ref [ x0 ] in
  let t = ref 0.0 and x = ref x0 and dt = ref dt0 in
  while !t < t_stop -. 1e-18 *. t_stop do
    let dt_k = Float.min !dt (t_stop -. !t) in
    (* one full step vs two half steps *)
    let attempt () =
      let x_full =
        implicit_step ~stop ?solver c ~scheme ~x_prev:!x ~t_prev:!t ~dt:dt_k
      in
      let x_half =
        implicit_step ~stop ?solver c ~scheme ~x_prev:!x ~t_prev:!t
          ~dt:(dt_k /. 2.0)
      in
      let x_two =
        implicit_step ~stop ?solver c ~scheme ~x_prev:x_half
          ~t_prev:(!t +. (dt_k /. 2.0)) ~dt:(dt_k /. 2.0)
      in
      (x_full, x_two)
    in
    match attempt () with
    | x_full, x_two ->
        let err = Vec.norm_inf (Vec.sub x_full x_two) in
        let scale_ref = Float.max 1.0 (Vec.norm_inf x_two) in
        if err <= lte_tol *. scale_ref || dt_k <= dt_min then begin
          t := !t +. dt_k;
          x := x_two;
          times := !t :: !times;
          states := x_two :: !states;
          if err < 0.1 *. lte_tol *. scale_ref then
            dt := Float.min dt_max (dt_k *. 2.0)
        end
        else dt := Float.max dt_min (dt_k /. 2.0)
    | exception Step_failed _ when dt_k > dt_min ->
        dt := Float.max dt_min (dt_k /. 4.0)
  done;
  {
    times = Array.of_list (List.rev !times);
    states = Array.of_list (List.rev !states);
  }

(* A-posteriori certification: re-derive the implicit-step residual at a
   sample of accepted steps (every step for short runs, ~64 spread across
   long ones) instead of trusting each step's own Newton exit. A result
   whose states were corrupted after the solve, or a step accepted on a
   stall, shows up as a violated discrete DAE balance. *)
let certify ?(tol_scale = 1.0) ?(method_ = Trapezoidal) c (res : result) =
  let n_steps = Array.length res.times - 1 in
  if n_steps < 1 then invalid_arg "Tran.certify: empty result";
  let non_finite = ref 0.0 in
  Array.iter
    (fun x ->
      Array.iter (fun v -> if not (Float.is_finite v) then non_finite := 1.0) x)
    res.states;
  let worst = ref 0.0 in
  let stride = max 1 (n_steps / 64) in
  let k = ref 1 in
  while !k <= n_steps do
    let x0 = res.states.(!k - 1) and x1 = res.states.(!k) in
    let t0 = res.times.(!k - 1) and t1 = res.times.(!k) in
    let dt = t1 -. t0 in
    if dt > 0.0 then begin
      let b1 = Mna.eval_b c t1 in
      let _, residual =
        companion ~rhs:b1 c ~scheme:(scheme_of method_) ~x_prev:x0 ~t_prev:t0 ~dt
      in
      let r, f1 = residual x1 in
      let scale = Float.max (Vec.norm_inf f1) (Vec.norm_inf b1) in
      let scale = if scale > 0.0 then scale else 1.0 in
      worst := Float.max !worst (Vec.norm_inf r /. scale)
    end;
    k := !k + stride
  done;
  Certify.assemble ~subject:"tran"
    [
      Certify.check ~name:"finite" ~measured:!non_finite ~threshold:0.5;
      Certify.check ~name:"step-residual" ~measured:!worst
        ~threshold:(1e-5 *. tol_scale);
    ]

let voltage_trace c res name =
  let idx = Mna.node c name in
  Array.map (fun x -> x.(idx)) res.states

let sample_last_period res ~per ~n f =
  let m = Array.length res.times in
  if m = 0 then invalid_arg "Tran.sample_last_period: empty result";
  let t_end = res.times.(m - 1) in
  let t_start = t_end -. per in
  let ys = Array.map f res.states in
  Vec.init n (fun k ->
      let t = t_start +. (per *. float_of_int k /. float_of_int n) in
      Interp.linear res.times ys t)
