open Rfkit_la
open Rfkit_circuit
open Rfkit_solve

exception No_convergence = Error.No_convergence

let engine = "hbn"

type options = {
  dims : int array;
  max_newton : int;
  tol : float;
  gmres_tol : float;
}

let default_dims ~n_tones = Array.make n_tones 8

type linear_solver = Direct | Matrix_free_gmres

type result = {
  circuit : Mna.t;
  tones : float array;
  options : options;
  grid : Vec.t;
  newton_iters : int;
  residual : float;
  gmres_iters_total : int;
}

(* ---------------------------------------------------------------- grids *)

let total dims = Array.fold_left ( * ) 1 dims

(* stride of axis a in the flattened row-major layout *)
let stride dims a =
  let s = ref 1 in
  for i = a + 1 to Array.length dims - 1 do
    s := !s * dims.(i)
  done;
  !s

(* multi-index of a flat position *)
let unflatten dims flat =
  let d = Array.length dims in
  let m = Array.make d 0 in
  let rest = ref flat in
  for a = d - 1 downto 0 do
    m.(a) <- !rest mod dims.(a);
    rest := !rest / dims.(a)
  done;
  m

let signed_bin k n = if k <= n / 2 then k else k - n

type derivative = Spectral | Backward_difference

(* The symbol of sum_a d/dt_a at one mix bin. Both discretizations are
   circulant on the periodic grid, so the FFT diagonalizes them:
   - spectral: i w_m, with even-grid Nyquist bins zeroed so d/dt stays real;
   - backward difference: sum_a (1 - e^{-2 pi i k_a / n_a}) / h_a, whose
     Nyquist term 2 / h_a is real and kept.
   Signed bins make the symbol of bin -m the exact conjugate of bin m's. *)
let bin_symbol derivative ~periods ~dims m =
  match derivative with
  | Spectral ->
      let w = ref 0.0 in
      Array.iteri
        (fun a ka ->
          let n = dims.(a) in
          let k = if n mod 2 = 0 && ka = n / 2 then 0 else signed_bin ka n in
          w := !w +. (2.0 *. Float.pi /. periods.(a) *. float_of_int k))
        m;
      Cx.im !w
  | Backward_difference ->
      let re = ref 0.0 and im = ref 0.0 in
      Array.iteri
        (fun a ka ->
          let n = dims.(a) in
          let h = periods.(a) /. float_of_int n in
          let theta = 2.0 *. Float.pi *. float_of_int (signed_bin ka n) /. float_of_int n in
          re := !re +. ((1.0 -. cos theta) /. h);
          if 2 * ka <> n then im := !im +. (sin theta /. h))
        m;
      Cx.make !re !im

(* The collocation grid over the torus of tone phases, with two per-bin
   tables computed once per attempt: the derivative symbol of every mix
   bin and the flat index of its conjugate bin -m. *)
type grid = {
  shape : int array;
  periods : float array;
  tot : int;
  symbol : Cx.t array;
  mirror : int array;
}

let make_grid ~derivative ~tones ~dims =
  let periods = Array.map (fun f -> 1.0 /. f) tones in
  let tot = total dims in
  let symbol =
    Array.init tot (fun flat -> bin_symbol derivative ~periods ~dims (unflatten dims flat))
  in
  let mirror =
    Array.init tot (fun flat ->
        let m = unflatten dims flat in
        let acc = ref 0 in
        Array.iteri (fun a ka -> acc := (!acc * dims.(a)) + ((dims.(a) - ka) mod dims.(a))) m;
        !acc)
  in
  { shape = dims; periods; tot; symbol; mirror }

let grid_times g flat =
  Array.mapi
    (fun a ka -> g.periods.(a) *. float_of_int ka /. float_of_int g.shape.(a))
    (unflatten g.shape flat)

(* in-place 1-D transforms along one axis of a complex field *)
let transform_axis ~inverse dims a (field : Cvec.t) =
  let s = stride dims a in
  let n_a = dims.(a) in
  let lines = total dims / n_a in
  let line = Cvec.create n_a in
  for l = 0 to lines - 1 do
    (* decompose l into (outer, inner) around axis a *)
    let inner = l mod s in
    let outer = l / s in
    let base = (outer * s * n_a) + inner in
    for i = 0 to n_a - 1 do
      line.(i) <- field.(base + (i * s))
    done;
    let out = if inverse then Fft.inverse line else Fft.forward line in
    for i = 0 to n_a - 1 do
      field.(base + (i * s)) <- out.(i)
    done
  done

let fftn dims (real_field : Vec.t) =
  let f = Cvec.of_real real_field in
  for a = 0 to Array.length dims - 1 do
    transform_axis ~inverse:false dims a f
  done;
  f

let ifftn_real dims (spec : Cvec.t) =
  let f = Cvec.copy spec in
  for a = 0 to Array.length dims - 1 do
    transform_axis ~inverse:true dims a f
  done;
  Cvec.real f

(* sum_a d/dt_a applied to one unknown's field, bin by bin *)
let diffn g (field : Vec.t) =
  let spec = fftn g.shape field in
  Array.iteri (fun flat s -> spec.(flat) <- Cx.( *: ) s spec.(flat)) g.symbol;
  ifftn_real g.shape spec

(* ------------------------------------------------------------- assembly *)

(* state vectors are flat grid points with the unknown innermost *)
let point ~n (x : Vec.t) flat = Array.sub x (flat * n) n

(* dst += (sum_a d/dt_a) src, unknown by unknown *)
let add_derivative g ~n (src : Vec.t) (dst : Vec.t) =
  for k = 0 to n - 1 do
    let dq = diffn g (Vec.init g.tot (fun flat -> src.((flat * n) + k))) in
    for flat = 0 to g.tot - 1 do
      dst.((flat * n) + k) <- dst.((flat * n) + k) +. dq.(flat)
    done
  done

(* the multivariate excitation B at every grid point; raises
   Invalid_argument for a source frequency that matches no tone *)
let excitation c g ~tones =
  let n = Mna.size c in
  let b = Vec.create (g.tot * n) in
  for flat = 0 to g.tot - 1 do
    Array.blit (Mpde.eval_bn c ~tones (grid_times g flat)) 0 b (flat * n) n
  done;
  b

(* R(X) = D q(X) + f(X) - B *)
let residual c g ~b (x : Vec.t) =
  let n = Mna.size c in
  let r = Vec.create (g.tot * n) and qs = Vec.create (g.tot * n) in
  for flat = 0 to g.tot - 1 do
    let xp = point ~n x flat in
    Array.blit (Mna.eval_q c xp) 0 qs (flat * n) n;
    let fv = Mna.eval_f c xp in
    for k = 0 to n - 1 do
      r.((flat * n) + k) <- fv.(k) -. b.((flat * n) + k)
    done
  done;
  add_derivative g ~n qs r;
  r

let residual_norm c ~tones ~dims x =
  let g = make_grid ~derivative:Spectral ~tones ~dims in
  Vec.norm_inf (residual c g ~b:(excitation c g ~tones) x)

(* matrix-implicit Jacobian: two sparse matvecs per grid point plus a
   derivative per unknown *)
let apply_jacobian g ~n ~cs ~gs (v : Vec.t) =
  let out = Vec.create (g.tot * n) and cv = Vec.create (g.tot * n) in
  for flat = 0 to g.tot - 1 do
    let vp = point ~n v flat in
    Array.blit (Sparse.matvec cs.(flat) vp) 0 cv (flat * n) n;
    Array.blit (Sparse.matvec gs.(flat) vp) 0 out (flat * n) n
  done;
  add_derivative g ~n cv out;
  out

(* dense Jacobian J[(p,i),(p',j)] = D[p,p'] C_p'[i,j] + delta_pp' G_p[i,j],
   D the grid's differentiation operator; assembled from the sparse
   stamps, small problems only *)
let dense_jacobian g ~n ~cs ~gs =
  let tot = g.tot in
  let d = Mat.make tot tot in
  for p' = 0 to tot - 1 do
    let e = Vec.create tot in
    e.(p') <- 1.0;
    Mat.set_col d p' (diffn g e)
  done;
  let j = Mat.make (tot * n) (tot * n) in
  for p' = 0 to tot - 1 do
    Sparse.iter
      (fun i jj v ->
        for p = 0 to tot - 1 do
          let dpp = Mat.get d p p' in
          if dpp <> 0.0 then
            Mat.update j ((p * n) + i) ((p' * n) + jj) (fun w -> w +. (dpp *. v))
        done)
      cs.(p');
    Sparse.iter
      (fun i jj v -> Mat.update j ((p' * n) + i) ((p' * n) + jj) (fun w -> w +. v))
      gs.(p')
  done;
  j

(* grid-averaged sparse stamps: every grid point shares the cached MNA
   pattern, so the merge never grows beyond the union pattern *)
let average_sparse arr =
  let acc = ref arr.(0) in
  for s = 1 to Array.length arr - 1 do
    acc := Sparse.add !acc arr.(s)
  done;
  Sparse.scale (1.0 /. float_of_int (Array.length arr)) !acc

(* Block-diagonal per-bin preconditioner P_m = s_m C_avg + G_avg, s_m the
   bin's derivative symbol, each block a Csparse factored by the complex
   Gilbert-Peierls LU. The input is real and s_-m is the conjugate of s_m,
   so bin -m is the conjugate of bin m: only one bin of each conjugate
   pair (and each self-conjugate bin) is factored and solved, the mirror
   is conjugated. All bins share one structural pattern (Csparse.scale
   keeps explicit entries at s = 0), so the caller-held
   symbolic [cache] is analyzed once and every other bin of every Newton
   iteration is a pivot-frozen refactor. *)
let make_preconditioner ?perm ~cache g ~n ~cs ~gs =
  let c_avg = Csparse.of_real (average_sparse cs) in
  let g_avg = Csparse.of_real (average_sparse gs) in
  let factors =
    Array.init g.tot (fun flat ->
        if g.mirror.(flat) >= flat then
          let block = Csparse.add g_avg (Csparse.scale g.symbol.(flat) c_avg) in
          Some (Csparse_lu.factor_cached ?perm cache block)
        else None)
  in
  fun (v : Vec.t) ->
    let specs =
      Array.init n (fun k -> fftn g.shape (Vec.init g.tot (fun flat -> v.((flat * n) + k))))
    in
    (* a mirrored bin's partner has the smaller index, so it is solved first *)
    let solved = Array.make g.tot [||] in
    for flat = 0 to g.tot - 1 do
      solved.(flat) <-
        (match factors.(flat) with
        | Some f -> Csparse_lu.solve f (Cvec.init n (fun k -> specs.(k).(flat)))
        | None -> Cvec.map Cx.conj solved.(g.mirror.(flat)))
    done;
    let out = Vec.create (g.tot * n) in
    for k = 0 to n - 1 do
      let field = ifftn_real g.shape (Cvec.init g.tot (fun flat -> solved.(flat).(k))) in
      for flat = 0 to g.tot - 1 do
        out.((flat * n) + k) <- field.(flat)
      done
    done;
    out

(* ---------------------------------------------------------------- solve *)

let default_damping = 5.0
let ladder = [ Supervisor.Base; Supervisor.Tighten_damping (default_damping /. 4.0) ]

let newton ~engine ~solver ~precondition ~damping ~iter_cap ~options c ~tones g ~b x =
  let n = Mna.size c in
  (* one symbolic plan for every preconditioner block of every Newton
     iteration: the bin blocks all share the G+C union pattern *)
  let perm = Mna.ordering_perm c in
  let precond_cache = ref None in
  let solve x r =
    let cs = Array.init g.tot (fun flat -> Mna.jac_c_sparse c (point ~n x flat)) in
    let gs = Array.init g.tot (fun flat -> Mna.jac_g_sparse c (point ~n x flat)) in
    match solver with
    | Direct -> (Lu.solve (Lu.factor (dense_jacobian g ~n ~cs ~gs)) r, 0)
    | Matrix_free_gmres ->
        let precond =
          if precondition then make_preconditioner ?perm ~cache:precond_cache g ~n ~cs ~gs
          else Fun.id
        in
        let dx, st =
          Krylov.gmres ~m:80 ~tol:options.gmres_tol ~max_iter:2000 ~precond
            (apply_jacobian g ~n ~cs ~gs) r
        in
        if (not st.Krylov.converged) || Faults.krylov_stall_now ~engine then
          Error.fail ~engine
            ~cause:
              (Supervisor.Krylov_stall
                 { iterations = st.Krylov.iterations; residual = st.Krylov.residual })
            "grid GMRES did not converge";
        (dx, st.Krylov.iterations)
  in
  let stop =
    { Newton.max_iter = min options.max_newton iter_cap; res_abs = options.tol; res_rel = 0.0;
      step_rel = 0.0; damping }
  in
  Newton.run ~engine ~stop ~residual:(fun x -> (residual c g ~b x, 0.0)) ~solve x
  |> Result.map (fun (grid, (st : Supervisor.stats)) ->
         ( {
             circuit = c;
             tones;
             options;
             grid;
             newton_iters = st.iterations;
             residual = st.residual;
             gmres_iters_total = st.krylov_iterations;
           },
           st ))

(* one attempt: a dims/tones mismatch or a source aligned with no tone is
   a model limitation, refused before Newton as a fail-fast Unsupported *)
let attempt ~engine ~derivative ~solver ~precondition ~damping ~iter_cap (options, seed) c
    ~tones =
  let unsupported msg = Error (Supervisor.Unsupported msg, Supervisor.no_stats) in
  if Array.length options.dims <> Array.length tones then
    unsupported "Hbn: dims and tones length mismatch"
  else
    let g = make_grid ~derivative ~tones ~dims:options.dims in
    match excitation c g ~tones with
    | exception Invalid_argument msg -> unsupported msg
    | b ->
        let x =
          match seed with
          | Some s -> Vec.copy s
          | None ->
              let xdc = Dc.dc_point c in
              let n = Mna.size c in
              Vec.init (g.tot * n) (fun i -> xdc.(i mod n))
        in
        newton ~engine ~solver ~precondition ~damping ~iter_cap ~options c ~tones g ~b x

let run ?budget ?(derivative = Spectral) ?(solver = Matrix_free_gmres) ?(precondition = true)
    ~engine ~ladder ~plan c ~tones =
  (* structural pre-flight: every diagonal block of the grid Jacobian has
     the union G+C pattern, so a deficient matching dooms every grid *)
  let n = Mna.size c in
  let rank = Mna.structural_rank_gc c in
  if rank < n then Supervisor.Failed (Supervisor.structural_failure ~engine ~rank ~size:n)
  else
    Supervisor.run ?budget ~engine ~ladder
      ~attempt:(fun strategy ~iter_cap ->
        let damping =
          match strategy with
          | Supervisor.Tighten_damping d -> d
          | _ -> default_damping
        in
        attempt ~engine ~derivative ~solver ~precondition ~damping ~iter_cap (plan strategy) c
          ~tones)
      ()

let solve_outcome ?budget ?options c ~tones =
  let options =
    match options with
    | Some o -> o
    | None ->
        {
          dims = default_dims ~n_tones:(Array.length tones);
          max_newton = 60;
          tol = 1e-9;
          gmres_tol = 1e-12;
        }
  in
  run ?budget ~engine ~ladder ~plan:(fun _ -> (options, None)) c ~tones

let mix_coefficients c ~dims grid name =
  let n = Mna.size c in
  let tot = total dims in
  let idx = Mna.node c name in
  let spec = fftn dims (Vec.init tot (fun flat -> grid.((flat * n) + idx))) in
  Array.map (Cx.scale (1.0 /. float_of_int tot)) spec

let line_amplitude ~dims coeffs k_vec =
  (* locate the bin of the signed mix vector *)
  let flat = ref 0 in
  Array.iteri
    (fun a ka ->
      let bin = ((ka mod dims.(a)) + dims.(a)) mod dims.(a) in
      flat := (!flat * dims.(a)) + bin)
    k_vec;
  let coeff = coeffs.(!flat) in
  if Array.for_all (fun k -> k = 0) k_vec then Cx.abs coeff else 2.0 *. Cx.abs coeff

let mix_amplitude res name k_vec =
  let dims = res.options.dims in
  line_amplitude ~dims (mix_coefficients res.circuit ~dims res.grid name) k_vec

let problem_size c ~dims = total dims * Mna.size c

let memory_estimate c ~dims =
  let n = Mna.size c in
  let tot = total dims in
  (* ~6 live grid-sized vectors in the Newton/GMRES loop, the per-point
     Jacobian blocks, and the per-bin complex preconditioner factors *)
  let grid_vectors = 8 * tot * n * 6 in
  let jac_blocks = 8 * tot * n * n * 2 in
  let precond = 16 * tot * n * n in
  grid_vectors + jac_blocks + precond
