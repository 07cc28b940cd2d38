open Rfkit_la
open Rfkit_circuit
open Rfkit_solve

let engine = "slice"

type coupling = { h1 : float; q_ref : Vec.t array }

(* backward-Euler steps with a symbolic LU cache per step and a fresh
   factor per monodromy step; the q/h terms make absolute residual
   tolerances unreachable for reactive branches, so a vanishing Newton
   step also converges *)
let stepper ~damping =
  let stop =
    { Tran.max_iter = 50; res_abs = 1e-12; res_rel = 1e-10; step_rel = 1e-11; damping }
  in
  { Shooting.engine; gear2 = false; start = stop; stop; period_cache = false }

let solve_periodic_outcome ?budget ?(max_newton = 30) ?(tol = 1e-9) ?coupling c
    ~b ~period2 ~steps ~y0 =
  let n = Mna.size c in
  let h = period2 /. float_of_int steps in
  let coupling = Option.map (fun { h1; q_ref } -> (1.0 /. h1, q_ref)) coupling in
  let attempt ~damping ~iter_cap =
    let st = stepper ~damping in
    let period y =
      Shooting.integrate ?coupling ~b st c ~time:(fun k -> float_of_int k *. h) ~h ~m:steps y
    in
    match Shooting.newton ~engine ~max_newton:(min max_newton iter_cap) ~tol period y0 with
    | Ok (traj, _, stats) -> Ok (Mat.init steps n (fun k i -> Mat.get traj k i), stats)
    | Error _ as e -> e
  in
  Supervisor.run ?budget ~engine
    ~ladder:[ Supervisor.Base; Supervisor.Tighten_damping 1.0 ]
    ~attempt:(fun strategy ~iter_cap ->
      match strategy with
      | Supervisor.Tighten_damping d -> attempt ~damping:d ~iter_cap
      | _ -> attempt ~damping:5.0 ~iter_cap)
    ()
