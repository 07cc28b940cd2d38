open Rfkit_la
open Rfkit_circuit
open Rfkit_solve

let engine = "mfdtd"

type linear_solver = Direct | Matrix_free_gmres

type options = {
  n1 : int;
  n2 : int;
  max_newton : int;
  tol : float;
  solver : linear_solver;
  gmres_tol : float;
}

let default_options =
  { n1 = 16; n2 = 32; max_newton = 50; tol = 1e-8; solver = Matrix_free_gmres; gmres_tol = 1e-10 }

type result = {
  circuit : Mna.t;
  f1 : float;
  f2 : float;
  options : options;
  grid : Vec.t;
  newton_iters : int;
  residual : float;
}

(* index helpers over the flattened grid *)
let idx ~n2 ~n i1 i2 k = (((i1 * n2) + i2) * n) + k

let point ~n2 ~n (x : Vec.t) i1 i2 =
  Array.init n (fun k -> x.(idx ~n2 ~n i1 i2 k))

let residual_vec c ~options ~t1s ~t2s ~h1 ~h2 ~f1 ~f2 (x : Vec.t) =
  let { n1; n2; _ } = options in
  let n = Mna.size c in
  let r = Vec.create (n1 * n2 * n) in
  (* precompute q at every grid point *)
  let qs =
    Array.init n1 (fun i1 ->
        Array.init n2 (fun i2 -> Mna.eval_q c (point ~n2 ~n x i1 i2)))
  in
  for i1 = 0 to n1 - 1 do
    for i2 = 0 to n2 - 1 do
      let xp = point ~n2 ~n x i1 i2 in
      let fv = Mna.eval_f c xp in
      let bv = Mpde.eval_b2 c ~f1 ~f2 t1s.(i1) t2s.(i2) in
      let q = qs.(i1).(i2) in
      let qm1 = qs.((i1 + n1 - 1) mod n1).(i2) in
      let qm2 = qs.(i1).((i2 + n2 - 1) mod n2) in
      for k = 0 to n - 1 do
        r.(idx ~n2 ~n i1 i2 k) <-
          ((q.(k) -. qm1.(k)) /. h1)
          +. ((q.(k) -. qm2.(k)) /. h2)
          +. fv.(k) -. bv.(k)
      done
    done
  done;
  r

(* Jacobian application: v -> J v using per-point sparse C and G stamps *)
let apply_jacobian ~options ~h1 ~h2 ~cs ~gs (v : Vec.t) =
  let { n1; n2; _ } = options in
  let n = Sparse.rows (cs : Sparse.t array array).(0).(0) in
  let out = Vec.create (n1 * n2 * n) in
  for i1 = 0 to n1 - 1 do
    for i2 = 0 to n2 - 1 do
      let vp = point ~n2 ~n v i1 i2 in
      let cv = Sparse.matvec cs.(i1).(i2) vp in
      let gv = Sparse.matvec gs.(i1).(i2) vp in
      let im1 = (i1 + n1 - 1) mod n1 and im2 = (i2 + n2 - 1) mod n2 in
      let cv1 = Sparse.matvec cs.(im1).(i2) (point ~n2 ~n v im1 i2) in
      let cv2 = Sparse.matvec cs.(i1).(im2) (point ~n2 ~n v i1 im2) in
      for k = 0 to n - 1 do
        out.(idx ~n2 ~n i1 i2 k) <-
          (cv.(k) *. ((1.0 /. h1) +. (1.0 /. h2)))
          -. (cv1.(k) /. h1) -. (cv2.(k) /. h2)
          +. gv.(k)
      done
    done
  done;
  out

let default_damping = 5.0

let solve_core ~options ~damping ~iter_cap c ~f1 ~f2 =
  let { n1; n2; _ } = options in
  let n = Mna.size c in
  let t1_per = 1.0 /. f1 and t2_per = 1.0 /. f2 in
  let h1 = t1_per /. float_of_int n1 and h2 = t2_per /. float_of_int n2 in
  let t1s = Array.init n1 (fun i -> float_of_int i *. h1) in
  let t2s = Array.init n2 (fun i -> float_of_int i *. h2) in
  (* initial guess: DC everywhere *)
  let xdc = Dc.dc_point c in
  let x = Vec.create (n1 * n2 * n) in
  for i1 = 0 to n1 - 1 do
    for i2 = 0 to n2 - 1 do
      for k = 0 to n - 1 do
        x.(idx ~n2 ~n i1 i2 k) <- xdc.(k)
      done
    done
  done;
  let iters = ref 0 in
  let res_norm = ref infinity in
  let krylov_total = ref 0 in
  let converged = ref false in
  let stats () =
    {
      Supervisor.iterations = !iters;
      residual = !res_norm;
      krylov_iterations = !krylov_total;
    }
  in
  let cap = min options.max_newton iter_cap in
  try
  while (not !converged) && !iters < cap do
    incr iters;
    let r = residual_vec c ~options ~t1s ~t2s ~h1 ~h2 ~f1 ~f2 x in
    res_norm := Vec.norm_inf r;
    if !res_norm <= options.tol then converged := true
    else begin
      let cs =
        Array.init n1 (fun i1 ->
            Array.init n2 (fun i2 -> Mna.jac_c_sparse c (point ~n2 ~n x i1 i2)))
      in
      let gs =
        Array.init n1 (fun i1 ->
            Array.init n2 (fun i2 -> Mna.jac_g_sparse c (point ~n2 ~n x i1 i2)))
      in
      if Faults.singular_now ~engine then raise Lu.Singular;
      let dx =
        match options.solver with
        | Matrix_free_gmres ->
            (* block-Jacobi preconditioner: per-point LU of the diagonal
               block C (1/h1 + 1/h2) + G *)
            let factors =
              Array.init n1 (fun i1 ->
                  Array.init n2 (fun i2 ->
                      let blk =
                        Sparse.add
                          (Sparse.scale ((1.0 /. h1) +. (1.0 /. h2)) cs.(i1).(i2))
                          gs.(i1).(i2)
                      in
                      Sparse_lu.factor blk))
            in
            let precond v =
              let out = Vec.create (n1 * n2 * n) in
              for i1 = 0 to n1 - 1 do
                for i2 = 0 to n2 - 1 do
                  let sol = Sparse_lu.solve factors.(i1).(i2) (point ~n2 ~n v i1 i2) in
                  for k = 0 to n - 1 do
                    out.(idx ~n2 ~n i1 i2 k) <- sol.(k)
                  done
                done
              done;
              out
            in
            let op = apply_jacobian ~options ~h1 ~h2 ~cs ~gs in
            let sol, st =
              Krylov.gmres ~m:60 ~tol:options.gmres_tol ~max_iter:4000 ~precond op r
            in
            krylov_total := !krylov_total + st.Krylov.iterations;
            if (not st.Krylov.converged) || Faults.krylov_stall_now ~engine then
              Error.fail ~engine
                ~cause:
                  (Supervisor.Krylov_stall
                     {
                       iterations = st.Krylov.iterations;
                       residual = st.Krylov.residual;
                     })
                "MFDTD GMRES stalled";
            sol
        | Direct ->
            let dim = n1 * n2 * n in
            let j = Mat.make dim dim in
            for i1 = 0 to n1 - 1 do
              for i2 = 0 to n2 - 1 do
                let im1 = (i1 + n1 - 1) mod n1 and im2 = (i2 + n2 - 1) mod n2 in
                Sparse.iter
                  (fun kk jj v ->
                    Mat.update j (idx ~n2 ~n i1 i2 kk) (idx ~n2 ~n i1 i2 jj)
                      (fun w -> w +. (v *. ((1.0 /. h1) +. (1.0 /. h2)))))
                  cs.(i1).(i2);
                Sparse.iter
                  (fun kk jj v ->
                    Mat.update j (idx ~n2 ~n i1 i2 kk) (idx ~n2 ~n i1 i2 jj)
                      (fun w -> w +. v))
                  gs.(i1).(i2);
                Sparse.iter
                  (fun kk jj v ->
                    Mat.update j (idx ~n2 ~n i1 i2 kk) (idx ~n2 ~n im1 i2 jj)
                      (fun w -> w -. (v /. h1)))
                  cs.(im1).(i2);
                Sparse.iter
                  (fun kk jj v ->
                    Mat.update j (idx ~n2 ~n i1 i2 kk) (idx ~n2 ~n i1 im2 jj)
                      (fun w -> w -. (v /. h2)))
                  cs.(i1).(im2)
              done
            done;
            Lu.solve (Lu.factor j) r
      in
      Guard.check ~engine ~iter:!iters dx;
      let step = Vec.norm_inf dx in
      let scale = if step > damping then damping /. step else 1.0 in
      Vec.axpy (-.scale) dx x
    end
  done;
  if not !converged then
    Error
      ( Supervisor.Newton_stall { iterations = !iters; residual = !res_norm },
        stats () )
  else
    Ok
      ( {
          circuit = c;
          f1;
          f2;
          options;
          grid = x;
          newton_iters = !iters;
          residual = !res_norm;
        },
        stats () )
  with
  | Lu.Singular -> Error (Supervisor.Singular_jacobian, stats ())
  | Krylov.Non_finite index ->
      Error (Supervisor.Non_finite { iter = !iters; index }, stats ())
  | Guard.Non_finite_found { iter; index } ->
      Error (Supervisor.Non_finite { iter; index }, stats ())
  | Error.No_convergence e -> Error (e.Error.cause, stats ())

let solve_outcome ?budget ?(options = default_options) c ~f1 ~f2 =
  Supervisor.run ?budget ~engine
    ~ladder:[ Supervisor.Base; Supervisor.Tighten_damping (default_damping /. 4.0) ]
    ~attempt:(fun strategy ~iter_cap ->
      let damping =
        match strategy with
        | Supervisor.Tighten_damping d -> d
        | _ -> default_damping
      in
      solve_core ~options ~damping ~iter_cap c ~f1 ~f2)
    ()

let node_grid res name =
  let { n1; n2; _ } = res.options in
  let n = Mna.size res.circuit in
  let k = Mna.node res.circuit name in
  Mat.init n1 n2 (fun i1 i2 -> res.grid.(idx ~n2 ~n i1 i2 k))

let node_diagonal res name ~n =
  let grid = node_grid res name in
  let period1 = 1.0 /. res.f1 and period2 = 1.0 /. res.f2 in
  Vec.init n (fun k ->
      let t = period1 *. float_of_int k /. float_of_int n in
      Mpde.diagonal ~period1 ~period2 grid t)
