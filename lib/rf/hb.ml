open Rfkit_la
open Rfkit_circuit
open Rfkit_solve

type linear_solver = Hbn.linear_solver = Direct | Matrix_free_gmres

type options = {
  n_samples : int;
  max_newton : int;
  tol : float;
  solver : linear_solver;
  warm_periods : int;
  gmres_tol : float;
  precondition : bool;
}

let default_options =
  {
    n_samples = 32;
    max_newton = 60;
    tol = 1e-9;
    solver = Direct;
    warm_periods = 2;
    gmres_tol = 1e-12;
    precondition = true;
  }

type result = {
  circuit : Mna.t;
  freq : float;
  times : Vec.t;
  samples : Mat.t;
  newton_iters : int;
  residual : float;
  gmres_iters_total : int;
}

exception No_convergence = Error.No_convergence

let engine = "hb"

(* one-dimensional grids are (sample, unknown) row-major: exactly Mat's layout *)
let residual_norm c ~freq (x : Mat.t) =
  Hbn.residual_norm c ~tones:[| freq |] ~dims:[| x.Mat.rows |] x.Mat.a

(* integrate [periods] periods of backward-Euler transient from the DC
   point and sample the last one; a failed step falls back to the DC
   point (a typed interrupt or deadline still propagates) *)
let warm_start c ~freq ~ns ~periods =
  let period = 1.0 /. freq in
  let x_dc = Dc.dc_point c in
  let res =
    try
      Tran.run ~method_:Tran.Backward_euler ~x0:x_dc c
        ~t_stop:(float_of_int periods *. period)
        ~dt:(period /. float_of_int ns)
    with Tran.Step_failed _ -> { Tran.times = [| 0.0 |]; states = [| x_dc |] }
  in
  let n = Mna.size c in
  let cols =
    Array.init n (fun i -> Tran.sample_last_period res ~per:period ~n:ns (fun st -> st.(i)))
  in
  Vec.init (ns * n) (fun flat -> cols.(flat mod n).(flat / n))

let solve_outcome ?budget ?(options = default_options) ?x0 c ~freq =
  (* a user-supplied x0 pins the sample count, so escalation re-runs base *)
  let options =
    match x0 with Some m -> { options with n_samples = m.Mat.rows } | None -> options
  in
  let plan strategy =
    let o =
      match (strategy, x0) with
      | Supervisor.Warm_start p, _ -> { options with warm_periods = p }
      | Supervisor.Escalate_samples f, None -> { options with n_samples = options.n_samples * f }
      | _ -> options
    in
    let seed =
      match x0 with
      | Some m -> Some m.Mat.a
      | None when o.warm_periods > 0 ->
          Some (warm_start c ~freq ~ns:o.n_samples ~periods:o.warm_periods)
      | None -> None
    in
    ( {
        Hbn.dims = [| o.n_samples |];
        max_newton = o.max_newton;
        tol = o.tol;
        gmres_tol = o.gmres_tol;
      },
      seed )
  in
  Hbn.run ?budget ~solver:options.solver ~precondition:options.precondition ~engine
    ~ladder:
      (Hbn.ladder
      @ [
          Supervisor.Warm_start (4 * max 1 options.warm_periods);
          Supervisor.Escalate_samples 2;
        ])
    ~plan c ~tones:[| freq |]
  |> Supervisor.map (fun (r : Hbn.result) ->
         let ns = r.Hbn.options.Hbn.dims.(0) in
         {
           circuit = c;
           freq;
           times = Grid.times ~period:(1.0 /. freq) ~n:ns;
           samples = { Mat.rows = ns; cols = Mna.size c; a = r.Hbn.grid };
           newton_iters = r.Hbn.newton_iters;
           residual = r.Hbn.residual;
           gmres_iters_total = r.Hbn.gmres_iters_total;
         })

let waveform res name =
  let idx = Mna.node res.circuit name in
  Mat.col res.samples idx

let harmonic_amplitude res name k = Grid.amplitude (waveform res name) k
