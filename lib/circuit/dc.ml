open Rfkit_la
open Rfkit_solve

type linear_solver = Newton.linear_solver = Dense_lu | Sparse_direct | Gmres_ilu

type options = {
  max_iter : int;
  tol : float;
  damping : float;
  gmin_steps : int;
  solver : linear_solver;
}

let default_options =
  { max_iter = 100; tol = 1e-9; damping = 2.0; gmin_steps = 8; solver = Sparse_direct }

let engine = "dc"

(* Newton on f(x) + gmin*x_nodes - b = 0, the gmin conductance to ground
   on node rows stamped without touching the cached pattern (the G
   pattern carries the full diagonal). [symb] carries the sparse
   factorization's symbolic analysis across re-stamps (the pattern is
   fixed per circuit), shared by every rung of the ladder. *)
let newton ~options ~damping ~iter_cap ~gmin ~symb c b x0 =
  let nn = Mna.n_nodes c in
  let perm = Mna.ordering_perm c in
  let residual x =
    let r = Vec.sub (Mna.eval_f c x) b in
    for i = 0 to nn - 1 do
      r.(i) <- r.(i) +. (gmin *. x.(i))
    done;
    (r, 0.0)
  in
  let dense x () =
    let g = Mna.jac_g c x in
    for i = 0 to nn - 1 do
      Mat.update g i i (fun v -> v +. gmin)
    done;
    g
  in
  let sparse x () =
    let g = Mna.jac_g_sparse c x in
    if gmin = 0.0 then g
    else
      Sparse.add g
        (Sparse.of_diag (Array.init (Mna.size c) (fun i -> if i < nn then gmin else 0.0)))
  in
  Newton.run ~engine
    ~stop:
      { Newton.max_iter = min options.max_iter iter_cap; res_abs = options.tol; res_rel = 0.0;
        step_rel = 0.0; damping }
    ~residual
    ~solve:(fun x r ->
      Newton.linear_solve options.solver ?perm ~symb ~dense:(dense x) ~sparse:(sparse x) r)
    x0

(* Sum the per-stage stats of a continuation run. *)
let ( ++ ) (a : Supervisor.stats) (b : Supervisor.stats) =
  {
    Supervisor.iterations = a.Supervisor.iterations + b.Supervisor.iterations;
    residual = b.Supervisor.residual;
    krylov_iterations = a.Supervisor.krylov_iterations + b.Supervisor.krylov_iterations;
  }

(* gmin stepping: start with a large conductance to ground on every node
   and relax it geometrically, warm-starting each level from the last *)
let gmin_continuation ~options ~iter_cap ~levels ~symb c b x0 =
  let x = ref (Vec.copy x0) in
  let acc = ref Supervisor.no_stats in
  let left () = iter_cap - !acc.Supervisor.iterations in
  let rec go gmin level =
    if left () <= 0 then
      Error (Supervisor.Budget_exhausted Supervisor.Iterations, !acc)
    else if level > levels then begin
      (* final polish at gmin = 0 *)
      match newton ~options ~damping:options.damping ~iter_cap:(left ()) ~gmin:0.0 ~symb c b !x with
      | Ok (x', st) -> Ok (x', !acc ++ st)
      | Error (cause, st) -> Error (cause, !acc ++ st)
    end
    else begin
      match newton ~options ~damping:options.damping ~iter_cap:(left ()) ~gmin ~symb c b !x with
      | Ok (x', st) ->
          x := x';
          acc := !acc ++ st;
          go (gmin /. 10.0) (level + 1)
      | Error (cause, st) -> Error (cause, !acc ++ st)
    end
  in
  go 1e-2 1

(* source stepping: ramp the excitation amplitude up linearly, tracking
   the solution branch from the trivial zero-drive circuit *)
let source_ramp ~options ~iter_cap ~steps ~symb c b x0 =
  let x = ref (Vec.copy x0) in
  let acc = ref Supervisor.no_stats in
  let left () = iter_cap - !acc.Supervisor.iterations in
  let rec go k =
    if left () <= 0 then
      Error (Supervisor.Budget_exhausted Supervisor.Iterations, !acc)
    else begin
      let alpha = float_of_int k /. float_of_int steps in
      let bk = Vec.scale alpha b in
      match newton ~options ~damping:options.damping ~iter_cap:(left ()) ~gmin:0.0 ~symb c bk !x with
      | Ok (x', st) ->
          acc := !acc ++ st;
          if k = steps then Ok (x', !acc)
          else begin
            x := x';
            go (k + 1)
          end
      | Error (cause, st) -> Error (cause, !acc ++ st)
    end
  in
  go 1

let solve_b_outcome ?budget ?(options = default_options) ?x0 c b =
  let n = Mna.size c in
  (* structural pre-flight: a deficient G-pattern matching proves the DC
     system singular for every value assignment — no ladder rung (gmin,
     ramping, ...) can change that, so refuse before any factorization *)
  let rank = Mna.structural_rank_g c in
  if rank < n then
    Supervisor.Failed (Supervisor.structural_failure ~engine ~rank ~size:n)
  else begin
  let x0 = match x0 with Some v -> Vec.copy v | None -> Vec.create n in
  let symb = ref None in
  let ladder =
    [ Supervisor.Base; Supervisor.Tighten_damping (options.damping /. 4.0) ]
    @ (if options.gmin_steps > 0 then
         [ Supervisor.Gmin_stepping options.gmin_steps ]
       else [])
    @ [ Supervisor.Source_ramping 8 ]
  in
  Supervisor.run ?budget ~engine ~ladder
    ~attempt:(fun strategy ~iter_cap ->
      match strategy with
      | Supervisor.Base ->
          newton ~options ~damping:options.damping ~iter_cap ~gmin:0.0 ~symb c b x0
      | Supervisor.Tighten_damping d ->
          newton ~options ~damping:d ~iter_cap ~gmin:0.0 ~symb c b x0
      | Supervisor.Gmin_stepping levels ->
          gmin_continuation ~options ~iter_cap ~levels ~symb c b x0
      | Supervisor.Source_ramping steps ->
          source_ramp ~options ~iter_cap ~steps ~symb c b x0
      | _ -> Error (Supervisor.Unsupported "strategy not applicable to DC", Supervisor.no_stats))
    ()
  end

let solve_outcome ?budget ?options ?x0 c =
  solve_b_outcome ?budget ?options ?x0 c (Mna.dc_b c)

let solve_at_outcome ?budget ?options ?x0 c t =
  solve_b_outcome ?budget ?options ?x0 c (Mna.eval_b c t)

let dc_point c =
  match solve_outcome c with
  | Supervisor.Converged (x, _) -> x
  (* a typed interrupt/deadline abort must not degrade into a cold
     zero start: re-raise so the supervisor records the cause *)
  | Supervisor.Failed f ->
      Supervisor.reraise_abort f;
      Vec.create (Mna.size c)

(* A-posteriori certification: re-derive the KCL residual from the result
   alone instead of trusting the Newton loop's own convergence flag. *)
let certify ?(tol_scale = 1.0) c (x : Vec.t) =
  let non_finite =
    Array.fold_left
      (fun acc v -> if Float.is_finite v then acc else acc +. 1.0)
      0.0 x
  in
  let b = Mna.dc_b c in
  let f = Mna.eval_f c x in
  let scale = Float.max (Vec.norm_inf b) (Vec.norm_inf f) in
  let scale = if scale > 0.0 then scale else 1.0 in
  let residual = Vec.norm_inf (Vec.sub b f) /. scale in
  Certify.assemble ~subject:"dc"
    [
      Certify.check ~name:"finite" ~measured:non_finite ~threshold:0.5;
      Certify.check ~name:"kcl-residual" ~measured:residual
        ~threshold:(1e-6 *. tol_scale);
    ]
