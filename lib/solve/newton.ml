open Rfkit_la

type stop = {
  max_iter : int;
  res_abs : float;
  res_rel : float;
  step_rel : float;
  damping : float;
}

exception Step_failed of { time : float; cause : Supervisor.cause }

type linear_solver = Dense_lu | Sparse_direct | Gmres_ilu

let linear_solve solver ?perm ~symb ~dense ~sparse r =
  match solver with
  | Dense_lu -> (Lu.solve (Lu.factor (dense ())) r, 0)
  | Sparse_direct -> (Sparse_lu.solve (Sparse_lu.factor_cached ?perm symb (sparse ())) r, 0)
  | Gmres_ilu ->
      let j = sparse () in
      let precond = Sparse_lu.ilu_apply (Sparse_lu.ilu0 j) in
      let dx, st = Krylov.gmres ~tol:1e-12 ~precond (Sparse.matvec j) r in
      (* a stalled ILU-GMRES falls back to the exact sparse factor rather
         than poisoning Newton with a bad step *)
      ( (if st.Krylov.converged then dx
         else Sparse_lu.solve (Sparse_lu.factor_cached ?perm symb j) r),
        st.Krylov.iterations )

let run ?damp ~engine ~stop ~residual ~solve x0 =
  let x = Vec.copy x0 in
  let iters = ref 0 and res = ref infinity and krylov = ref 0 in
  let stats () =
    { Supervisor.iterations = !iters; residual = !res; krylov_iterations = !krylov }
  in
  let rec loop () =
    if !iters >= stop.max_iter then
      Error (Supervisor.Newton_stall { iterations = !iters; residual = !res }, stats ())
    else begin
      incr iters;
      Guard.check ~engine ~iter:!iters x;
      let r, reference = residual x in
      res := Vec.norm_inf r;
      let tol =
        if stop.res_rel = 0.0 then stop.res_abs
        else (stop.res_rel *. Float.max 1.0 reference) +. stop.res_abs
      in
      if !res <= tol then Ok (x, stats ())
      else begin
        if Faults.singular_now ~engine then raise Lu.Singular;
        let dx, k = solve x r in
        krylov := !krylov + k;
        let step = Vec.norm_inf dx in
        (* with q/h terms dominating, a residual tolerance can be out of
           reach for reactive branches: a vanishing step converges too,
           where the caller asks for it *)
        if stop.step_rel > 0.0 && step <= stop.step_rel *. Float.max 1.0 (Vec.norm_inf x)
        then Ok (x, stats ())
        else begin
          let s =
            match damp with
            | Some rule -> rule x dx
            | None -> if step > stop.damping then stop.damping /. step else 1.0
          in
          Vec.axpy (-.s) dx x;
          loop ()
        end
      end
    end
  in
  try loop () with
  | Lu.Singular | Clu.Singular -> Error (Supervisor.Singular_jacobian, stats ())
  | Guard.Non_finite_found { iter; index } ->
      Error (Supervisor.Non_finite { iter; index }, stats ())
  | Krylov.Non_finite index -> Error (Supervisor.Non_finite { iter = !iters; index }, stats ())
  | Error.No_convergence e -> Error (e.Error.cause, stats ())
  | Step_failed { cause; _ } -> Error (cause, stats ())
