open Rfkit_la
open Rfkit_circuit
open Rfkit_solve

let engine = "envelope"

type options = { steps2 : int; n1 : int }

let default_options = { steps2 = 50; n1 = 40 }

type result = {
  circuit : Mna.t;
  f2 : float;
  t1s : Vec.t;
  slices : Mat.t array;
}

(* a slice's periodic solve; a failure is tagged with its slow index and
   instant *)
let slice_solve i t ?coupling c ~b ~period2 ~steps ~y0 =
  match Slice.solve_periodic_outcome ?coupling c ~b ~period2 ~steps ~y0 with
  | Supervisor.Converged (traj, _) -> traj
  | Supervisor.Failed f ->
      raise
        (Error.No_convergence
           { (Error.of_failure ~engine f) with slice = Some i; time = Some t })

let run_core ~options c ~f1 ~f2 ~t1_stop =
  let { steps2; n1 } = options in
  let period2 = 1.0 /. f2 in
  let h1 = t1_stop /. float_of_int n1 in
  let t1s = Vec.init (n1 + 1) (fun i -> float_of_int i *. h1) in
  let xdc = Dc.dc_point c in
  let b_of t1 tau = Mpde.eval_bn c ~tones:[| f1; f2 |] [| t1; tau |] in
  (* slice 0: fast-periodic steady state with slow sources frozen at 0 *)
  let slice0 = slice_solve 0 0.0 c ~b:(b_of 0.0) ~period2 ~steps:steps2 ~y0:xdc in
  let slices = Array.make (n1 + 1) slice0 in
  for i = 1 to n1 do
    let prev = slices.(i - 1) in
    let q_ref = Array.init steps2 (fun k -> Mna.eval_q c (Mat.row prev k)) in
    let coupling = { Slice.h1; q_ref } in
    let y0 = Mat.row prev 0 in
    slices.(i) <-
      slice_solve i t1s.(i) ~coupling c ~b:(b_of t1s.(i)) ~period2 ~steps:steps2 ~y0
  done;
  ({ circuit = c; f2; t1s; slices }, n1 + 1)

let run_outcome ?budget ?(options = default_options) c ~f1 ~f2 ~t1_stop =
  Supervisor.run ?budget ~engine
    ~ladder:[ Supervisor.Base; Supervisor.Refine_timestep 2 ]
    ~attempt:(fun strategy ~iter_cap:_ ->
      let options =
        match strategy with
        | Supervisor.Refine_timestep f -> { options with n1 = options.n1 * f }
        | _ -> options
      in
      match Mpde.off_tone_source c ~tones:[| f1; f2 |] with
      | Some msg -> Error (Supervisor.Unsupported msg, Supervisor.no_stats)
      | None -> (
          try
            let res, slices_solved = run_core ~options c ~f1 ~f2 ~t1_stop in
            Ok
              ( res,
                {
                  Supervisor.iterations = slices_solved;
                  residual = 0.0;
                  krylov_iterations = 0;
                } )
          with Error.No_convergence e -> Error (e.Error.cause, Supervisor.no_stats)))
    ()

let envelope_magnitude res name ~harmonic =
  let idx = Mna.node res.circuit name in
  Array.map
    (fun slice -> Grid.amplitude (Mat.col slice idx) harmonic)
    res.slices
