open Rfkit_la
open Rfkit_solve

type linear_solver = Dense_lu | Sparse_direct | Gmres_ilu

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

(* Instrumented Newton on f(x) + gmin*x_nodes = b. Returns the solution or
   a typed cause, plus the iterations spent and the last residual norm.
   [symb] carries the sparse factorization's symbolic analysis across
   re-stamps (the pattern is fixed per circuit), shared by every rung of
   the ladder. *)
let newton ~options ~damping ~iter_cap ~gmin ~symb c b x0 =
  let nn = Mna.n_nodes c in
  let perm = Mna.ordering_perm c in
  let x = Vec.copy x0 in
  let iter = ref 0 in
  let last_res = ref infinity in
  let kry = ref 0 in
  let max_iter = min options.max_iter iter_cap in
  let solution = ref None in
  (* gmin conductance to ground on node rows, stamped without touching the
     cached pattern (the G pattern carries the full diagonal) *)
  let sparse_g () =
    let g = Mna.jac_g_sparse c x in
    if gmin = 0.0 then g
    else begin
      let d = Array.make (Mna.size c) 0.0 in
      for i = 0 to nn - 1 do
        d.(i) <- gmin
      done;
      Sparse.add g (Sparse.of_diag d)
    end
  in
  let linear_solve r =
    if Faults.singular_now ~engine then raise Lu.Singular;
    match options.solver with
    | Dense_lu ->
        let g = Mna.jac_g c x in
        for i = 0 to nn - 1 do
          Mat.update g i i (fun v -> v +. gmin)
        done;
        Lu.solve (Lu.factor g) r
    | Sparse_direct ->
        Sparse_lu.solve (Sparse_lu.factor_cached ?perm symb (sparse_g ())) r
    | Gmres_ilu ->
        let g = sparse_g () in
        let precond = Sparse_lu.ilu_apply (Sparse_lu.ilu0 g) in
        let dx, st =
          Krylov.gmres ~tol:1e-12 ~precond (Sparse.matvec g) r
        in
        kry := !kry + st.Krylov.iterations;
        if st.Krylov.converged then dx
        else
          (* ILU-GMRES stalled: fall back to the exact sparse factor rather
             than poisoning Newton with a bad step *)
          Sparse_lu.solve (Sparse_lu.factor_cached ?perm symb g) r
  in
  let cause =
    try
      while !solution = None && !iter < max_iter do
        incr iter;
        Guard.check ~engine ~iter:!iter x;
        let f = Mna.eval_f c x in
        (* residual r = b - f(x) - gmin*x on node rows *)
        let r = Vec.sub b f in
        for i = 0 to nn - 1 do
          r.(i) <- r.(i) -. (gmin *. x.(i))
        done;
        last_res := Vec.norm_inf r;
        if !last_res <= options.tol then solution := Some (Vec.copy x)
        else begin
          let dx = linear_solve r in
          (* damp the Newton step to keep exponentials in range *)
          let step = Vec.norm_inf dx in
          let scale = if step > damping then damping /. step else 1.0 in
          Vec.axpy scale dx x
        end
      done;
      None
    with
    | Lu.Singular -> Some Supervisor.Singular_jacobian
    | Guard.Non_finite_found { iter; index } ->
        Some (Supervisor.Non_finite { iter; index })
  in
  let stats =
    {
      Supervisor.iterations = !iter;
      residual = !last_res;
      krylov_iterations = !kry;
    }
  in
  match (!solution, cause) with
  | Some x, _ -> Ok (x, stats)
  | None, Some c -> Error (c, stats)
  | None, None ->
      Error
        ( Supervisor.Newton_stall { iterations = !iter; residual = !last_res },
          stats )

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
