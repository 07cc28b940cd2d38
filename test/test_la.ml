(* Unit and property tests for the rfkit_la numerical substrate. *)

open Rfkit_la

let check_float ?(eps = 1e-9) msg expected actual =
  Alcotest.(check (float eps)) msg expected actual

let mat_of rows = Mat.of_rows (Array.of_list (List.map Array.of_list rows))

(* deterministic pseudo-random generator for reproducible test matrices *)
let make_rng seed =
  let state = ref seed in
  fun () ->
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    (float_of_int !state /. float_of_int 0x3FFFFFFF) -. 0.5

let random_mat rng n =
  Mat.init n n (fun _ _ -> rng ())

let diag_dominant rng n =
  let m = random_mat rng n in
  for i = 0 to n - 1 do
    Mat.update m i i (fun v -> v +. float_of_int n)
  done;
  m

(* ------------------------------------------------------------------ Vec *)

let test_vec_ops () =
  let x = Vec.of_list [ 1.0; 2.0; 3.0 ] in
  let y = Vec.of_list [ 4.0; -5.0; 6.0 ] in
  check_float "dot" 12.0 (Vec.dot x y);
  check_float "norm2" (sqrt 14.0) (Vec.norm2 x);
  check_float "norm1" 15.0 (Vec.norm1 y);
  check_float "norm_inf" 6.0 (Vec.norm_inf y);
  let z = Vec.add x y in
  check_float "add" 5.0 z.(0);
  Vec.axpy 2.0 x y;
  check_float "axpy" 6.0 y.(0);
  Alcotest.(check int) "max_abs_index" 2 (Vec.max_abs_index x)

(* the norms run at least twice per Newton iteration in every engine:
   they must not box a float per element *)
let test_vec_norms_unboxed () =
  let x = Vec.init 3000 (fun i -> sin (float_of_int i)) in
  let sink = ref 0.0 in
  let before = Gc.minor_words () in
  for _ = 1 to 50 do
    sink := !sink +. Vec.norm_inf x +. Vec.norm1 x
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "100 norms of 3000 entries allocate %.0f minor words" words)
    true (words < 1000.0);
  Alcotest.(check bool) "sink finite" true (Float.is_finite !sink)

let test_vec_linspace () =
  let v = Vec.linspace 0.0 1.0 5 in
  check_float "first" 0.0 v.(0);
  check_float "last" 1.0 v.(4);
  check_float "step" 0.25 v.(1)

(* ------------------------------------------------------------------ Mat *)

let test_mat_mul () =
  let a = mat_of [ [ 1.0; 2.0 ]; [ 3.0; 4.0 ] ] in
  let b = mat_of [ [ 5.0; 6.0 ]; [ 7.0; 8.0 ] ] in
  let c = Mat.mul a b in
  check_float "c00" 19.0 (Mat.get c 0 0);
  check_float "c01" 22.0 (Mat.get c 0 1);
  check_float "c10" 43.0 (Mat.get c 1 0);
  check_float "c11" 50.0 (Mat.get c 1 1)

let test_mat_matvec_t () =
  let a = mat_of [ [ 1.0; 2.0; 3.0 ]; [ 4.0; 5.0; 6.0 ] ] in
  let x = Vec.of_list [ 1.0; 1.0 ] in
  let y = Mat.matvec_t a x in
  check_float "y0" 5.0 y.(0);
  check_float "y2" 9.0 y.(2)

let test_mat_norms () =
  let a = mat_of [ [ 1.0; -2.0 ]; [ -3.0; 4.0 ] ] in
  check_float "inf" 7.0 (Mat.norm_inf a);
  check_float "one" 6.0 (Mat.norm1 a);
  check_float "fro" (sqrt 30.0) (Mat.frobenius a)

(* ------------------------------------------------------------------- Lu *)

let test_lu_solve () =
  let a = mat_of [ [ 4.0; 3.0 ]; [ 6.0; 3.0 ] ] in
  let b = Vec.of_list [ 10.0; 12.0 ] in
  let x = Lu.lin_solve a b in
  check_float "x0" 1.0 x.(0);
  check_float "x1" 2.0 x.(1)

let test_lu_det () =
  let a = mat_of [ [ 4.0; 3.0 ]; [ 6.0; 3.0 ] ] in
  check_float "det" (-6.0) (Lu.det (Lu.factor a))

let test_lu_transposed () =
  let rng = make_rng 7 in
  let a = diag_dominant rng 6 in
  let b = Vec.init 6 (fun i -> float_of_int (i + 1)) in
  let f = Lu.factor a in
  let x = Lu.solve_transposed f b in
  let r = Vec.sub (Mat.matvec (Mat.transpose a) x) b in
  check_float "residual" 0.0 (Vec.norm2 r)

let test_lu_singular () =
  let a = mat_of [ [ 1.0; 2.0 ]; [ 2.0; 4.0 ] ] in
  Alcotest.check_raises "singular" Lu.Singular (fun () -> ignore (Lu.factor a))

let test_lu_rcond () =
  let identity = Mat.identity 4 in
  let r = Lu.rcond_estimate identity (Lu.factor identity) in
  Alcotest.(check bool) "identity well conditioned" true (r > 0.1);
  let bad = mat_of [ [ 1.0; 0.0 ]; [ 0.0; 1e-12 ] ] in
  let r2 = Lu.rcond_estimate bad (Lu.factor bad) in
  Alcotest.(check bool) "near-singular detected" true (r2 < 1e-10)

(* ------------------------------------------------------------------ Clu *)

let test_clu_solve () =
  let a =
    Cmat.init 2 2 (fun i j ->
        if i = j then Cx.make 2.0 1.0 else Cx.make 0.5 (-0.25))
  in
  let b = Cvec.init 2 (fun i -> Cx.make (float_of_int (i + 1)) 0.0) in
  let x = Clu.lin_solve a b in
  let r = Cvec.sub (Cmat.matvec a x) b in
  check_float "residual" 0.0 (Cvec.norm2 r)

(* ------------------------------------------------------------------- Qr *)

let test_qr_reconstruct () =
  let rng = make_rng 11 in
  let a = Mat.init 6 4 (fun _ _ -> rng ()) in
  let f = Qr.factor a in
  let qm = Qr.q f and rm = Qr.r f in
  let qr = Mat.mul qm rm in
  Alcotest.(check bool) "A = QR" true (Mat.equal_eps 1e-9 a qr);
  (* Q has orthonormal columns *)
  let qtq = Mat.mul (Mat.transpose qm) qm in
  Alcotest.(check bool) "Q^T Q = I" true (Mat.equal_eps 1e-9 qtq (Mat.identity 4))

let test_qr_lstsq () =
  (* overdetermined fit of y = 2x + 1 *)
  let xs = [| 0.0; 1.0; 2.0; 3.0 |] in
  let a = Mat.init 4 2 (fun i j -> if j = 0 then xs.(i) else 1.0) in
  let b = Array.map (fun x -> (2.0 *. x) +. 1.0) xs in
  let c = Qr.lstsq a b in
  check_float "slope" 2.0 c.(0);
  check_float "intercept" 1.0 c.(1)

(* ------------------------------------------------------------------ Svd *)

let test_svd_reconstruct () =
  let rng = make_rng 23 in
  let a = Mat.init 5 3 (fun _ _ -> rng ()) in
  let u, s, v = Svd.decompose a in
  let us = Mat.init 5 3 (fun i j -> Mat.get u i j *. s.(j)) in
  let back = Mat.mul us (Mat.transpose v) in
  Alcotest.(check bool) "A = U S V^T" true (Mat.equal_eps 1e-8 a back);
  Alcotest.(check bool) "sorted" true (s.(0) >= s.(1) && s.(1) >= s.(2))

let test_svd_low_rank () =
  (* rank-1 matrix must compress to rank 1 *)
  let a = Mat.init 6 6 (fun i j -> float_of_int ((i + 1) * (j + 1))) in
  let x, y = Svd.low_rank_approx a 1e-10 in
  Alcotest.(check int) "rank" 1 x.Mat.cols;
  let back = Mat.mul x (Mat.transpose y) in
  Alcotest.(check bool) "reconstruct" true (Mat.equal_eps 1e-7 a back)

(* ------------------------------------------------------------------ Eig *)

let test_eig_diag () =
  let a = mat_of [ [ 3.0; 0.0 ]; [ 0.0; -1.0 ] ] in
  let ev = Eig.eigenvalues_sorted a in
  check_float "dominant" 3.0 ev.(0).Cx.re;
  check_float "second" (-1.0) ev.(1).Cx.re

let test_eig_complex_pair () =
  (* rotation-like matrix: eigenvalues a +- bi *)
  let a = mat_of [ [ 1.0; -2.0 ]; [ 2.0; 1.0 ] ] in
  let ev = Eig.eigenvalues a in
  let im = Float.abs ev.(0).Cx.im in
  check_float "re" 1.0 ev.(0).Cx.re;
  check_float "im" 2.0 im

let test_eig_known_3x3 () =
  (* companion matrix of (x-1)(x-2)(x-3) = x^3 - 6x^2 + 11x - 6 *)
  let a =
    mat_of [ [ 6.0; -11.0; 6.0 ]; [ 1.0; 0.0; 0.0 ]; [ 0.0; 1.0; 0.0 ] ]
  in
  let ev = Eig.eigenvalues_sorted a in
  check_float ~eps:1e-7 "l1" 3.0 ev.(0).Cx.re;
  check_float ~eps:1e-7 "l2" 2.0 ev.(1).Cx.re;
  check_float ~eps:1e-7 "l3" 1.0 ev.(2).Cx.re

let test_eig_random_trace () =
  (* sum of eigenvalues = trace, product = det *)
  let rng = make_rng 31 in
  let n = 8 in
  let a = random_mat rng n in
  let ev = Eig.eigenvalues a in
  let tr = ref 0.0 in
  for i = 0 to n - 1 do
    tr := !tr +. Mat.get a i i
  done;
  let sum = Array.fold_left (fun s z -> s +. z.Cx.re) 0.0 ev in
  let sum_im = Array.fold_left (fun s z -> s +. z.Cx.im) 0.0 ev in
  check_float ~eps:1e-7 "trace" !tr sum;
  check_float ~eps:1e-7 "imag parts cancel" 0.0 sum_im

let test_eigenvector () =
  let a = mat_of [ [ 2.0; 1.0 ]; [ 1.0; 2.0 ] ] in
  let v = Eig.eigenvector a (Cx.re 3.0) in
  (* eigenvector for lambda=3 is (1,1)/sqrt2 up to phase *)
  let ratio = Cx.( /: ) v.(0) v.(1) in
  check_float ~eps:1e-6 "component ratio" 1.0 ratio.Cx.re

(* --------------------------------------------------------------- Sparse *)

let test_sparse_matvec () =
  let m =
    Sparse.of_triplets ~rows:3 ~cols:3
      [ (0, 0, 2.0); (0, 2, 1.0); (1, 1, 3.0); (2, 0, 1.0); (2, 2, 4.0); (0, 0, 1.0) ]
  in
  Alcotest.(check int) "nnz merged" 5 (Sparse.nnz m);
  let y = Sparse.matvec m [| 1.0; 2.0; 3.0 |] in
  check_float "y0" 6.0 y.(0);
  check_float "y1" 6.0 y.(1);
  check_float "y2" 13.0 y.(2)

let test_sparse_dense_consistency () =
  let m =
    Sparse.of_triplets ~rows:2 ~cols:3 [ (0, 1, 1.5); (1, 0, -2.0); (1, 2, 0.5) ]
  in
  let d = Sparse.to_dense m in
  let x = [| 1.0; 2.0; 3.0 |] in
  let ys = Sparse.matvec m x and yd = Mat.matvec d x in
  check_float "row0" yd.(0) ys.(0);
  check_float "row1" yd.(1) ys.(1);
  let xt = [| 1.0; -1.0 |] in
  let ts = Sparse.matvec_t m xt and td = Mat.matvec_t d xt in
  for j = 0 to 2 do
    check_float "transpose" td.(j) ts.(j)
  done

(* --------------------------------------------------------------- Krylov *)

let test_gmres_vs_lu () =
  let rng = make_rng 41 in
  let n = 20 in
  let a = diag_dominant rng n in
  let b = Vec.init n (fun i -> sin (float_of_int i)) in
  let x_direct = Lu.lin_solve a b in
  let x_gmres, st = Krylov.gmres ~tol:1e-12 (Mat.matvec a) b in
  Alcotest.(check bool) "converged" true st.Krylov.converged;
  check_float ~eps:1e-8 "matches direct" 0.0 (Vec.dist2 x_direct x_gmres)

let test_gmres_preconditioned () =
  let rng = make_rng 43 in
  let n = 30 in
  let a = diag_dominant rng n in
  let d = Array.init n (fun i -> Mat.get a i i) in
  let precond v = Array.mapi (fun i vi -> vi /. d.(i)) v in
  let b = Vec.init n (fun i -> cos (float_of_int i)) in
  let _, st_plain = Krylov.gmres ~tol:1e-10 (Mat.matvec a) b in
  let x, st_pre = Krylov.gmres ~tol:1e-10 ~precond (Mat.matvec a) b in
  Alcotest.(check bool) "preconditioned converged" true st_pre.Krylov.converged;
  Alcotest.(check bool) "not slower" true
    (st_pre.Krylov.iterations <= st_plain.Krylov.iterations + 2);
  let r = Vec.sub (Mat.matvec a x) b in
  check_float ~eps:1e-6 "residual small" 0.0 (Vec.norm2 r)

let test_cg_spd () =
  let rng = make_rng 47 in
  let n = 15 in
  let m = random_mat rng n in
  (* A = M^T M + I is SPD *)
  let a = Mat.add (Mat.mul (Mat.transpose m) m) (Mat.identity n) in
  let b = Vec.init n (fun i -> float_of_int (i mod 3)) in
  let x, st = Krylov.cg ~tol:1e-12 (Mat.matvec a) b in
  Alcotest.(check bool) "converged" true st.Krylov.converged;
  let r = Vec.sub (Mat.matvec a x) b in
  check_float ~eps:1e-8 "residual" 0.0 (Vec.norm2 r)

let test_bicgstab () =
  let rng = make_rng 53 in
  let n = 15 in
  let a = diag_dominant rng n in
  let b = Vec.init n (fun i -> float_of_int (1 + i)) in
  let x, st = Krylov.bicgstab ~tol:1e-12 (Mat.matvec a) b in
  Alcotest.(check bool) "converged" true st.Krylov.converged;
  let r = Vec.sub (Mat.matvec a x) b in
  check_float ~eps:1e-7 "residual" 0.0 (Vec.norm2 r)

(* -------------------------------------------------------------- Lanczos *)

let test_lanczos_moments () =
  (* two-sided Lanczos matches moments l^T A^k r for k < 2q *)
  let rng = make_rng 59 in
  let n = 12 in
  let a = diag_dominant rng n in
  let r = Vec.init n (fun i -> 1.0 +. (0.1 *. float_of_int i)) in
  let l = Vec.init n (fun i -> 1.0 -. (0.05 *. float_of_int i)) in
  let q = 4 in
  let res =
    Lanczos.run ~matvec:(Mat.matvec a) ~matvec_t:(Mat.matvec_t a) ~r ~l ~steps:q
  in
  Alcotest.(check int) "full steps" q res.Lanczos.steps;
  let t = Lanczos.projected ~matvec:(Mat.matvec a) res in
  let d1 = Lanczos.d1 res in
  (* exact moment: l^T A^k r ; reduced: scale * d1 * e1^T T^k e1 *)
  let exact = ref (Vec.copy r) in
  let e1 = Vec.create q in
  e1.(0) <- 1.0;
  let reduced = ref (Vec.copy e1) in
  for k = 0 to (2 * q) - 1 do
    let m_exact = Vec.dot l !exact in
    let m_red = res.Lanczos.scale *. d1 *. Vec.dot e1 !reduced in
    let tol = 1e-6 *. Float.max 1.0 (Float.abs m_exact) in
    Alcotest.(check bool)
      (Printf.sprintf "moment %d matches (%g vs %g)" k m_exact m_red)
      true
      (Float.abs (m_exact -. m_red) < tol);
    exact := Mat.matvec a !exact;
    reduced := Mat.matvec t !reduced
  done

(* -------------------------------------------------------------- Arnoldi *)

let test_arnoldi_orthonormal () =
  let rng = make_rng 61 in
  let n = 10 in
  let a = random_mat rng n in
  let start = Vec.init n (fun i -> float_of_int (i + 1)) in
  let res = Arnoldi.run ~matvec:(Mat.matvec a) ~start ~steps:5 in
  Alcotest.(check int) "steps" 5 res.Arnoldi.steps;
  for i = 0 to 4 do
    for j = 0 to 4 do
      let d = Vec.dot res.Arnoldi.v.(i) res.Arnoldi.v.(j) in
      check_float ~eps:1e-10
        (Printf.sprintf "v%d . v%d" i j)
        (if i = j then 1.0 else 0.0)
        d
    done
  done

let test_arnoldi_moments () =
  (* Arnoldi ROM matches q moments v1^T A^k v1 for k < q *)
  let rng = make_rng 67 in
  let n = 12 in
  let a = diag_dominant rng n in
  let start = Vec.init n (fun i -> 1.0 /. float_of_int (i + 1)) in
  let q = 4 in
  let res = Arnoldi.run ~matvec:(Mat.matvec a) ~start ~steps:q in
  let e1 = Vec.create q in
  e1.(0) <- 1.0;
  let exact = ref (Vec.scale (1.0 /. res.Arnoldi.start_norm) start) in
  let reduced = ref (Vec.copy e1) in
  for k = 0 to q - 1 do
    let m_exact = Vec.dot (Vec.scale (1.0 /. res.Arnoldi.start_norm) start) !exact in
    let m_red = Vec.dot e1 !reduced in
    check_float ~eps:1e-7 (Printf.sprintf "moment %d" k) m_exact m_red;
    exact := Mat.matvec a !exact;
    reduced := Mat.matvec res.Arnoldi.h !reduced
  done

(* ------------------------------------------------------------------ Fft *)

let test_fft_roundtrip () =
  let x = Cvec.init 8 (fun i -> Cx.make (float_of_int i) (float_of_int (i * i))) in
  let back = Fft.inverse (Fft.forward x) in
  check_float "roundtrip" 0.0 (Cvec.norm2 (Cvec.sub x back))

let test_fft_nonpow2_roundtrip () =
  let x = Cvec.init 6 (fun i -> Cx.make (sin (float_of_int i)) 0.0) in
  let back = Fft.inverse (Fft.forward x) in
  check_float "roundtrip" 0.0 (Cvec.norm2 (Cvec.sub x back))

let test_fft_sine_spectrum () =
  let n = 64 in
  let samples =
    Vec.init n (fun i ->
        let t = float_of_int i /. float_of_int n in
        3.0 *. sin (2.0 *. Float.pi *. 5.0 *. t))
  in
  let mag = Fft.magnitude_spectrum samples in
  check_float ~eps:1e-9 "bin 5 amplitude" 3.0 mag.(5);
  check_float ~eps:1e-9 "bin 4 empty" 0.0 mag.(4);
  check_float ~eps:1e-9 "dc empty" 0.0 mag.(0)

let test_fft_parseval () =
  let n = 32 in
  let x = Cvec.init n (fun i -> Cx.make (cos (float_of_int i)) (sin (0.3 *. float_of_int i))) in
  let y = Fft.forward x in
  let ex = Array.fold_left (fun s z -> s +. Cx.abs2 z) 0.0 x in
  let ey = Array.fold_left (fun s z -> s +. Cx.abs2 z) 0.0 y /. float_of_int n in
  check_float ~eps:1e-9 "parseval" ex ey

let test_fft_synthesize () =
  let n = 16 in
  let f t = 1.0 +. (2.0 *. cos t) -. (0.5 *. sin (3.0 *. t)) in
  let samples = Vec.init n (fun i -> f (2.0 *. Float.pi *. float_of_int i /. float_of_int n)) in
  let c = Fft.coefficients samples in
  (* evaluate off-grid: trigonometric interpolation is exact for band-limited f *)
  let theta = 0.7 in
  check_float ~eps:1e-9 "off-grid" (f theta) (Fft.synthesize c theta)

(* --------------------------------------------------------------- Interp *)

let test_interp_linear () =
  let xs = [| 0.0; 1.0; 3.0 |] and ys = [| 0.0; 2.0; 6.0 |] in
  check_float "mid" 1.0 (Interp.linear xs ys 0.5);
  check_float "second seg" 4.0 (Interp.linear xs ys 2.0);
  check_float "clamp low" 0.0 (Interp.linear xs ys (-1.0));
  check_float "clamp high" 6.0 (Interp.linear xs ys 9.0)

let test_interp_periodic () =
  let n = 32 in
  let samples = Vec.init n (fun i -> sin (2.0 *. Float.pi *. float_of_int i /. float_of_int n)) in
  check_float ~eps:1e-9 "quarter period" 1.0 (Interp.periodic samples (Float.pi /. 2.0))

(* ---------------------------------------------------------------- Stats *)

let test_stats_linreg () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  let ys = Array.map (fun x -> (3.0 *. x) -. 1.0) xs in
  let slope, intercept, r2 = Stats.linreg xs ys in
  check_float "slope" 3.0 slope;
  check_float "intercept" (-1.0) intercept;
  check_float "r2" 1.0 r2

let test_stats_db () =
  check_float "db20 of 10" 20.0 (Stats.db20 10.0);
  check_float "db10 of 100" 20.0 (Stats.db10 100.0);
  check_float "db of 0 guarded" (-400.0) (Stats.db20 0.0)

(* ------------------------------------------------------------ properties *)

let qcheck_suite =
  let open QCheck in
  let small_vec =
    make
      Gen.(list_size (int_range 2 12) (float_range (-10.0) 10.0))
      ~print:Print.(list float)
  in
  let special_vec =
    make
      Gen.(
        list_size (int_range 0 12)
          (frequency
             [
               (6, float_range (-10.0) 10.0);
               (1, oneofl [ Float.nan; Float.infinity; Float.neg_infinity; -0.0; 0.0 ]);
             ]))
      ~print:Print.(list float)
  in
  [
    Test.make ~name:"vec: norms match the reference folds bit for bit" ~count:200 special_vec
      (fun l ->
        let x = Vec.of_list l in
        let bits = Int64.bits_of_float in
        bits (Vec.norm_inf x)
        = bits (List.fold_left (fun m xi -> Float.max m (Float.abs xi)) 0.0 l)
        && bits (Vec.norm1 x) = bits (List.fold_left (fun m xi -> m +. Float.abs xi) 0.0 l));
    Test.make ~name:"lu: solve then multiply is identity" ~count:50 small_vec
      (fun l ->
        let n = List.length l in
        let rng = make_rng (1 + (n * 17)) in
        let a = diag_dominant rng n in
        let b = Vec.of_list l in
        let x = Lu.lin_solve a b in
        Vec.dist2 (Mat.matvec a x) b < 1e-6);
    Test.make ~name:"fft: roundtrip on arbitrary real data" ~count:50 small_vec
      (fun l ->
        let x = Cvec.of_real (Vec.of_list l) in
        let back = Fft.inverse (Fft.forward x) in
        Cvec.norm2 (Cvec.sub x back) < 1e-9);
    Test.make ~name:"svd: singular values nonnegative and sorted" ~count:30
      small_vec (fun l ->
        let n = List.length l in
        let rng = make_rng (1 + (n * 29)) in
        let a = random_mat rng n in
        let _, s, _ = Svd.decompose a in
        let ok = ref true in
        for i = 0 to n - 2 do
          if s.(i) < s.(i + 1) -. 1e-12 || s.(i) < 0.0 then ok := false
        done;
        !ok);
    Test.make ~name:"eig: spectral radius bounded by inf norm" ~count:30
      small_vec (fun l ->
        let n = List.length l in
        let rng = make_rng (1 + (n * 37)) in
        let a = random_mat rng n in
        let ev = Eig.eigenvalues_sorted a in
        Cx.abs ev.(0) <= Mat.norm_inf a +. 1e-9);
    Test.make ~name:"qr: least-squares residual orthogonal to range" ~count:30
      small_vec (fun l ->
        let m = List.length l in
        let rng = make_rng (3 + (m * 41)) in
        let cols = max 1 (m / 2) in
        let a = Mat.init m cols (fun _ _ -> rng ()) in
        let b = Vec.of_list l in
        match Qr.lstsq a b with
        | x ->
            let r = Vec.sub b (Mat.matvec a x) in
            let proj = Mat.matvec_t a r in
            Vec.norm_inf proj < 1e-7 *. Float.max 1.0 (Vec.norm_inf b)
        | exception Invalid_argument _ -> true);
    Test.make ~name:"gmres: solves random diagonally dominant systems" ~count:30
      small_vec (fun l ->
        let n = List.length l in
        let rng = make_rng (5 + (n * 43)) in
        let a = diag_dominant rng n in
        let b = Vec.of_list l in
        let x, st = Krylov.gmres ~tol:1e-11 (Mat.matvec a) b in
        st.Krylov.converged && Vec.dist2 (Mat.matvec a x) b < 1e-6 *. (1.0 +. Vec.norm2 b));
    Test.make ~name:"sparse: matvec is linear" ~count:30 small_vec (fun l ->
        let n = List.length l in
        let rng = make_rng (7 + (n * 47)) in
        let triplets =
          List.concat
            (List.init n (fun i ->
                 [ (i, i, 1.0 +. Float.abs (rng ())); (i, (i + 1) mod n, rng ()) ]))
        in
        let m = Sparse.of_triplets ~rows:n ~cols:n triplets in
        let x = Vec.of_list l in
        let y = Vec.init n (fun i -> rng () *. float_of_int (i + 1)) in
        let lhs = Sparse.matvec m (Vec.add x y) in
        let rhs = Vec.add (Sparse.matvec m x) (Sparse.matvec m y) in
        Vec.dist2 lhs rhs < 1e-9 *. (1.0 +. Vec.norm2 lhs));
    Test.make ~name:"fft: linearity" ~count:30 small_vec (fun l ->
        let x = Cvec.of_real (Vec.of_list l) in
        let n = Array.length x in
        let y = Cvec.init n (fun i -> Cx.make (cos (float_of_int i)) 0.3) in
        let fx = Fft.forward x and fy = Fft.forward y in
        let fsum = Fft.forward (Cvec.add x y) in
        Cvec.norm2 (Cvec.sub fsum (Cvec.add fx fy)) < 1e-9 *. (1.0 +. Cvec.norm2 fsum));
    Test.make ~name:"interp: periodic interpolation exact at samples" ~count:30
      small_vec (fun l ->
        let samples = Vec.of_list l in
        let n = Array.length samples in
        let ok = ref true in
        for i = 0 to n - 1 do
          let theta = 2.0 *. Float.pi *. float_of_int i /. float_of_int n in
          if Float.abs (Interp.periodic samples theta -. samples.(i)) > 1e-8 then
            ok := false
        done;
        !ok);
    Test.make ~name:"lu: det product rule" ~count:30 small_vec (fun l ->
        let n = List.length l in
        let rng = make_rng (11 + (n * 53)) in
        let a = diag_dominant rng n and b = diag_dominant rng n in
        let da = Lu.det (Lu.factor a) and db = Lu.det (Lu.factor b) in
        let dab = Lu.det (Lu.factor (Mat.mul a b)) in
        Float.abs (dab -. (da *. db)) < 1e-6 *. Float.max 1.0 (Float.abs dab));
  ]

let suite =
  let tc name f = Alcotest.test_case name `Quick f in
  [
    ( "la.vec-mat",
      [
        tc "vec ops" test_vec_ops;
        tc "norms unboxed" test_vec_norms_unboxed;
        tc "linspace" test_vec_linspace;
        tc "mat mul" test_mat_mul;
        tc "matvec_t" test_mat_matvec_t;
        tc "norms" test_mat_norms;
      ] );
    ( "la.factor",
      [
        tc "lu solve" test_lu_solve;
        tc "lu det" test_lu_det;
        tc "lu transposed" test_lu_transposed;
        tc "lu singular" test_lu_singular;
        tc "lu rcond" test_lu_rcond;
        tc "clu solve" test_clu_solve;
        tc "qr reconstruct" test_qr_reconstruct;
        tc "qr least squares" test_qr_lstsq;
        tc "svd reconstruct" test_svd_reconstruct;
        tc "svd low rank" test_svd_low_rank;
      ] );
    ( "la.eig",
      [
        tc "diagonal" test_eig_diag;
        tc "complex pair" test_eig_complex_pair;
        tc "companion 3x3" test_eig_known_3x3;
        tc "trace identity" test_eig_random_trace;
        tc "eigenvector" test_eigenvector;
      ] );
    ( "la.sparse",
      [ tc "matvec" test_sparse_matvec; tc "dense consistency" test_sparse_dense_consistency ] );
    ( "la.krylov",
      [
        tc "gmres vs lu" test_gmres_vs_lu;
        tc "gmres preconditioned" test_gmres_preconditioned;
        tc "cg spd" test_cg_spd;
        tc "bicgstab" test_bicgstab;
      ] );
    ( "la.reduction",
      [
        tc "lanczos moments" test_lanczos_moments;
        tc "arnoldi orthonormal" test_arnoldi_orthonormal;
        tc "arnoldi moments" test_arnoldi_moments;
      ] );
    ( "la.fft",
      [
        tc "roundtrip pow2" test_fft_roundtrip;
        tc "roundtrip non-pow2" test_fft_nonpow2_roundtrip;
        tc "sine spectrum" test_fft_sine_spectrum;
        tc "parseval" test_fft_parseval;
        tc "synthesize off-grid" test_fft_synthesize;
      ] );
    ( "la.misc",
      [
        tc "interp linear" test_interp_linear;
        tc "interp periodic" test_interp_periodic;
        tc "linreg" test_stats_linreg;
        tc "db scales" test_stats_db;
      ] );
    ("la.properties", List.map QCheck_alcotest.to_alcotest qcheck_suite);
  ]
