open Rfkit_la
open Rfkit_circuit
open Rfkit_solve

let engine = "hs"

type options = { n1 : int; steps2 : int; max_sweeps : int; tol : float }

let default_options = { n1 = 16; steps2 = 64; max_sweeps = 40; tol = 1e-7 }

type result = {
  circuit : Mna.t;
  f1 : float;
  f2 : float;
  options : options;
  slices : Mat.t array;
  sweeps : int;
}

(* a slice's periodic solve; a failure is tagged with the slow-slice
   index it came from *)
let slice_solve i ?coupling c ~b ~period2 ~steps ~y0 =
  match Slice.solve_periodic_outcome ?coupling c ~b ~period2 ~steps ~y0 with
  | Supervisor.Converged (traj, _) -> traj
  | Supervisor.Failed f ->
      raise (Error.No_convergence { (Error.of_failure ~engine f) with slice = Some i })

let solve_core ~options ~iter_cap c ~f1 ~f2 =
  let { n1; steps2; max_sweeps; tol } = options in
  let period1 = 1.0 /. f1 and period2 = 1.0 /. f2 in
  let h1 = period1 /. float_of_int n1 in
  let t1s = Array.init n1 (fun i -> float_of_int i *. h1) in
  (* initial slices: uncoupled periodic solves with the slow excitation
     frozen per slice (quasi-static start) *)
  let xdc = Dc.dc_point c in
  let b_of i tau = Mpde.eval_bn c ~tones:[| f1; f2 |] [| t1s.(i); tau |] in
  let slices =
    Array.init n1 (fun i -> slice_solve i c ~b:(b_of i) ~period2 ~steps:steps2 ~y0:xdc)
  in
  let q_of_slice s =
    Array.init steps2 (fun k -> Mna.eval_q c (Mat.row slices.(s) k))
  in
  let sweeps = ref 0 in
  let settled = ref false in
  let last_change = ref infinity in
  let cap = min max_sweeps iter_cap in
  while (not !settled) && !sweeps < cap do
    incr sweeps;
    let max_change = ref 0.0 in
    for i = 0 to n1 - 1 do
      let prev = (i + n1 - 1) mod n1 in
      let coupling = { Slice.h1; q_ref = q_of_slice prev } in
      let y0 = Mat.row slices.(i) 0 in
      let updated = slice_solve i ~coupling c ~b:(b_of i) ~period2 ~steps:steps2 ~y0 in
      let change = Mat.max_abs (Mat.sub updated slices.(i)) in
      if change > !max_change then max_change := change;
      slices.(i) <- updated
    done;
    last_change := !max_change;
    if !max_change <= tol then settled := true
  done;
  let stats =
    {
      Supervisor.iterations = !sweeps;
      residual = !last_change;
      krylov_iterations = 0;
    }
  in
  if not !settled then
    Error
      ( Supervisor.Newton_stall { iterations = !sweeps; residual = !last_change },
        stats )
  else Ok ({ circuit = c; f1; f2; options; slices; sweeps = !sweeps }, stats)

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
      match Mpde.off_tone_source c ~tones:[| f1; f2 |] with
      | Some msg -> Error (Supervisor.Unsupported msg, Supervisor.no_stats)
      | None -> (
          try solve_core ~options ~iter_cap c ~f1 ~f2
          with Error.No_convergence e -> Error (e.Error.cause, Supervisor.no_stats)))
    ()

let node_grid res name =
  let k = Mna.node res.circuit name in
  let { n1; steps2; _ } = res.options in
  Mat.init n1 steps2 (fun i1 i2 -> Mat.get res.slices.(i1) i2 k)

let node_diagonal res name ~n = Mpde.diagonal_samples ~f1:res.f1 ~f2:res.f2 (node_grid res name) ~n
