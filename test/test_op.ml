(* The sparse-first operator core: CSR round-trips, Op constructors agree
   with their dense lowering, sparse LU matches dense LU (including the
   structurally-zero-diagonal branch rows partial pivoting must handle),
   sparse MNA stamps match the dense shims on random decks, and the
   dense-fallback and sparse-default DC paths agree on every shipped
   example deck. *)

open Rfkit_la
open Rfkit_circuit

let converged = function
  | Rfkit_solve.Supervisor.Converged (r, _) -> r
  | Rfkit_solve.Supervisor.Failed f ->
      Alcotest.fail (Rfkit_solve.Supervisor.failure_to_string f)

let mat_close ?(tol = 1e-12) a b =
  a.Mat.rows = b.Mat.rows
  && a.Mat.cols = b.Mat.cols
  && Array.for_all2 (fun x y -> Float.abs (x -. y) <= tol) a.Mat.a b.Mat.a

let vec_close ?(tol = 1e-9) a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Float.abs (x -. y) <= tol) a b

(* ------------------------------------------------------- random inputs *)

let gen_dense =
  QCheck.Gen.(
    int_range 1 8 >>= fun n ->
    int_range 1 8 >>= fun m ->
    (* ~half the entries structurally zero so CSR paths see real sparsity *)
    list_size (return (n * m)) (oneof [ return 0.0; float_range (-5.0) 5.0 ])
    >|= fun vs ->
    let a = Array.of_list vs in
    Mat.init n m (fun i j -> a.((i * m) + j)))

let arb_dense =
  QCheck.make gen_dense ~print:(fun m ->
      Printf.sprintf "%dx%d dense" m.Mat.rows m.Mat.cols)

let gen_square =
  QCheck.Gen.(
    int_range 1 7 >>= fun n ->
    list_size (return (n * n)) (oneof [ return 0.0; float_range (-5.0) 5.0 ])
    >|= fun vs ->
    let a = Array.of_list vs in
    Mat.init n n (fun i j -> a.((i * n) + j)))

let arb_square =
  QCheck.make gen_square ~print:(fun m ->
      Printf.sprintf "%dx%d dense" m.Mat.rows m.Mat.cols)

(* random resistor/diode/cap ladders with a voltage source and an inductor
   so the MNA system has branch unknowns (zero structural diagonal) *)
let gen_deck =
  QCheck.Gen.(
    int_range 2 7 >>= fun stages ->
    list_size (return stages) (float_range 0.5 10.0) >|= fun rs ->
    let nl = Netlist.create () in
    Netlist.vsource nl "V1" "n0" "0" (Wave.Dc 1.2);
    List.iteri
      (fun k r ->
        let a = Printf.sprintf "n%d" k and b = Printf.sprintf "n%d" (k + 1) in
        Netlist.resistor nl (Printf.sprintf "R%d" k) a b (r *. 100.0);
        if k mod 2 = 0 then Netlist.diode nl (Printf.sprintf "D%d" k) b "0" ()
        else Netlist.capacitor nl (Printf.sprintf "C%d" k) b "0" 1e-12)
      rs;
    let last = Printf.sprintf "n%d" stages in
    Netlist.inductor nl "L1" last "0" 1e-9;
    Netlist.mosfet nl "M1" ~d:last ~g:"n1" ~s:"0" ();
    Netlist.resistor nl "RG" last "0" 1e4;
    Mna.build nl)

let arb_deck =
  QCheck.make gen_deck ~print:(fun c -> Printf.sprintf "deck n=%d" (Mna.size c))

let random_x c =
  Vec.init (Mna.size c) (fun i -> 0.3 *. sin (float_of_int (i + 1)))

(* ------------------------------------------------------------- qcheck *)

let qcheck_roundtrip =
  QCheck.Test.make ~name:"sparse: of_dense/to_dense round-trips" ~count:100
    arb_dense (fun m -> mat_close (Sparse.to_dense (Sparse.of_dense m)) m)

let qcheck_add =
  QCheck.Test.make ~name:"sparse: add matches dense add" ~count:100
    QCheck.(pair arb_dense arb_dense)
    (fun (a, b) ->
      QCheck.assume (a.Mat.rows = b.Mat.rows && a.Mat.cols = b.Mat.cols);
      mat_close
        (Sparse.to_dense (Sparse.add (Sparse.of_dense a) (Sparse.of_dense b)))
        (Mat.add a b))

(* both constructors and both folds: sparse plus sparse stays CSR, a dense
   operand makes the sum dense; each paired with the matrix it must equal *)
let ops_of_dense m =
  let s = Op.sparse (Sparse.of_dense m) in
  let sp = Op.add (Op.scale 2.0 s) s in
  [ (sp, Mat.scale 3.0 m); (Op.add sp (Op.scale 0.5 (Op.dense m)), Mat.scale 3.5 m) ]

let qcheck_op_matvec =
  QCheck.Test.make
    ~name:"op: matvec of every constructor agrees with to_dense" ~count:100
    arb_dense (fun m ->
      let v = Vec.init m.Mat.cols (fun i -> cos (float_of_int i)) in
      List.for_all
        (fun (op, want) ->
          mat_close ~tol:1e-9 (Op.to_dense op) want
          && vec_close ~tol:1e-9 (Op.matvec op v) (Mat.matvec want v))
        (ops_of_dense m))

let qcheck_op_matvec_t =
  QCheck.Test.make ~name:"op: matvec_t agrees with dense transpose matvec"
    ~count:100 arb_dense (fun m ->
      let v = Vec.init m.Mat.rows (fun i -> sin (float_of_int (i + 2))) in
      List.for_all
        (fun (op, _) ->
          vec_close ~tol:1e-9 (Op.matvec_t op v) (Mat.matvec_t (Op.to_dense op) v))
        (ops_of_dense m))

let qcheck_op_diagonal =
  QCheck.Test.make ~name:"op: diagonal matches dense diagonal" ~count:100
    arb_square (fun m ->
      let s = Op.sparse (Sparse.of_dense m) in
      let op = Op.add (Op.scale 3.0 s) (Op.dense m) in
      let dense = Op.to_dense op in
      (match (Op.add s s, op) with Op.Sparse _, Op.Dense _ -> true | _ -> false)
      && vec_close ~tol:1e-9
           (Vec.init m.Mat.rows (fun i -> Mat.get dense i i))
           (Vec.init m.Mat.rows (fun i -> 4.0 *. Mat.get m i i)))

let qcheck_sparse_lu =
  QCheck.Test.make ~name:"sparse_lu: matches dense LU on random systems"
    ~count:100 arb_square (fun m ->
      (* shift the diagonal to make singularity unlikely, then knock one
         diagonal entry back to zero so partial pivoting is exercised *)
      let n = m.Mat.rows in
      let a = Mat.add m (Mat.scale 10.0 (Mat.identity n)) in
      if n > 1 then Mat.set a 0 0 0.0;
      let b = Vec.init n (fun i -> float_of_int (i + 1)) in
      match Lu.factor a with
      | exception Lu.Singular -> QCheck.assume_fail ()
      | f ->
          let x_dense = Lu.solve f b in
          let x_sparse = Sparse_lu.solve (Sparse_lu.factor (Sparse.of_dense a)) b in
          let xt_dense = Lu.solve_transposed f b in
          let xt_sparse =
            Sparse_lu.solve_transposed (Sparse_lu.factor (Sparse.of_dense a)) b
          in
          vec_close ~tol:1e-8 x_dense x_sparse
          && vec_close ~tol:1e-8 xt_dense xt_sparse)

let qcheck_jac_g =
  QCheck.Test.make ~name:"mna: sparse jac_g matches dense shim on random decks"
    ~count:60 arb_deck (fun c ->
      let x = random_x c in
      mat_close ~tol:0.0 (Sparse.to_dense (Mna.jac_g_sparse c x)) (Mna.jac_g c x))

let qcheck_jac_c =
  QCheck.Test.make ~name:"mna: sparse jac_c matches dense shim on random decks"
    ~count:60 arb_deck (fun c ->
      let x = random_x c in
      mat_close ~tol:0.0 (Sparse.to_dense (Mna.jac_c_sparse c x)) (Mna.jac_c c x))

let qcheck_op_factorize =
  QCheck.Test.make ~name:"op: factorize solves G + s0 C on random decks"
    ~count:60 arb_deck (fun c ->
      let x = random_x c in
      let op =
        Op.add
          (Op.sparse (Mna.jac_g_sparse c x))
          (Op.scale 7.0 (Op.sparse (Mna.jac_c_sparse c x)))
      in
      let b = Vec.init (Mna.size c) (fun i -> sin (float_of_int i)) in
      match Op.factorize op with
      | exception Lu.Singular -> QCheck.assume_fail ()
      | f ->
          let r = Vec.sub (Op.matvec op (f.Op.solve b)) b in
          Vec.norm_inf r <= 1e-7 *. (1.0 +. Vec.norm_inf b))

(* ------------------------------------------------- complex sparse LU *)

let cvec_close ?(tol = 1e-10) a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Cx.abs (Cx.( -: ) x y) <= tol) a b

let csparse_of_dense m =
  let rows = m.Cmat.rows and cols = m.Cmat.cols in
  let ts = ref [] in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      let v = Cmat.get m i j in
      if v <> Cx.zero then ts := (i, j, v) :: !ts
    done
  done;
  Csparse.of_triplets ~rows ~cols !ts

(* random diagonally-dominant complex systems with ~half the off-diagonal
   entries structurally zero *)
let gen_cdominant =
  QCheck.Gen.(
    int_range 1 7 >>= fun n ->
    list_size
      (return (2 * n * n))
      (oneof [ return 0.0; float_range (-2.0) 2.0 ])
    >|= fun vs ->
    let a = Array.of_list vs in
    Cmat.init n n (fun i j ->
        let k = 2 * ((i * n) + j) in
        let z = Cx.make a.(k) a.(k + 1) in
        if i = j then Cx.( +: ) z (Cx.make (8.0 +. float_of_int n) 3.0) else z))

let arb_cdominant =
  QCheck.make gen_cdominant ~print:(fun m ->
      Printf.sprintf "%dx%d complex" m.Cmat.rows m.Cmat.cols)

let qcheck_csparse_lu =
  QCheck.Test.make
    ~name:"csparse_lu: matches dense Clu on random dominant systems" ~count:100
    arb_cdominant (fun m ->
      let n = m.Cmat.rows in
      let b =
        Cvec.init n (fun i ->
            Cx.make (sin (float_of_int (i + 1))) (0.25 *. float_of_int i))
      in
      let f_sparse = Csparse_lu.factor (csparse_of_dense m) in
      let x_dense = Clu.solve (Clu.factor m) b in
      let x_sparse = Csparse_lu.solve f_sparse b in
      let xt_dense = Clu.solve (Clu.factor (Cmat.transpose m)) b in
      let xt_sparse = Csparse_lu.solve_transposed f_sparse b in
      cvec_close ~tol:1e-10 x_dense x_sparse
      && cvec_close ~tol:1e-10 xt_dense xt_sparse)

let qcheck_csparse_lu_perm =
  QCheck.Test.make
    ~name:"csparse_lu: permuted factor agrees with the natural one" ~count:60
    arb_cdominant (fun m ->
      let n = m.Cmat.rows in
      let s = csparse_of_dense m in
      let perm = Array.init n (fun i -> n - 1 - i) in
      let b = Cvec.init n (fun i -> Cx.make 1.0 (float_of_int i)) in
      cvec_close ~tol:1e-10
        (Csparse_lu.solve (Csparse_lu.factor s) b)
        (Csparse_lu.solve (Csparse_lu.factor ~perm s) b))

(* ------------------------------------- dense vs sparse DC on the decks *)

let example_decks =
  [
    "../examples/decks/lowpass.cir";
    "../examples/decks/mos_amp.cir";
    "../examples/decks/rectifier.cir";
    "../examples/decks/hard_dc.cir";
  ]

let test_dc_paths_agree () =
  List.iter
    (fun path ->
      let nl, _ = Deck.parse_file path in
      let solve solver =
        let c = Mna.build nl in
        match Dc.solve_outcome ~options:{ Dc.default_options with solver } c with
        | Rfkit_solve.Supervisor.Converged (x, _) -> x
        | Rfkit_solve.Supervisor.Failed f ->
            Alcotest.failf "%s: DC failed: %s" path
              (Rfkit_solve.Supervisor.failure_to_string f)
      in
      let x_dense = solve Dc.Dense_lu in
      let x_sparse = solve Dc.Sparse_direct in
      let x_gmres = solve Dc.Gmres_ilu in
      Alcotest.(check bool)
        (path ^ ": dense vs sparse-direct agree to 1e-9")
        true
        (Vec.norm_inf (Vec.sub x_dense x_sparse) <= 1e-9);
      Alcotest.(check bool)
        (path ^ ": dense vs ilu-gmres agree to 1e-9")
        true
        (Vec.norm_inf (Vec.sub x_dense x_gmres) <= 1e-9))
    example_decks

let test_tran_paths_agree () =
  let nl, _ = Deck.parse_file "../examples/decks/lowpass.cir" in
  let run solver =
    let c = Mna.build nl in
    Tran.run ~solver c ~t_stop:2e-6 ~dt:2e-8
  in
  let a = run Dc.Dense_lu and b = run Dc.Sparse_direct in
  let worst = ref 0.0 in
  Array.iteri
    (fun k xa ->
      worst := Float.max !worst (Vec.norm_inf (Vec.sub xa b.Tran.states.(k))))
    a.Tran.states;
  Alcotest.(check bool) "transient dense vs sparse states agree to 1e-9" true
    (!worst <= 1e-9)

let test_ilu_reduces_iterations () =
  (* ILU(0)-preconditioned GMRES on a stamped MNA Jacobian should converge
     in far fewer iterations than unpreconditioned GMRES *)
  let nl, _ = Deck.parse_file "../examples/decks/mos_amp.cir" in
  let c = Mna.build nl in
  let x = Vec.create (Mna.size c) in
  let g = Mna.jac_g_sparse c x in
  let g = Sparse.add g (Sparse.scaled_identity (Sparse.rows g) 1e-9) in
  let b = Vec.init (Mna.size c) (fun i -> 1.0 /. float_of_int (i + 1)) in
  let ilu = Sparse_lu.ilu0 g in
  let _, st =
    Rfkit_la.Krylov.gmres ~tol:1e-10 ~precond:(Sparse_lu.ilu_apply ilu)
      (Sparse.matvec g) b
  in
  Alcotest.(check bool) "preconditioned GMRES converges" true st.Krylov.converged

(* ------------------------------- complex sparse AC systems on the decks *)

let is_permutation p =
  let n = Array.length p in
  let seen = Array.make n false in
  Array.for_all
    (fun v -> v >= 0 && v < n && (not seen.(v)) && (seen.(v) <- true; true))
    p

(* G + j w C linearized at the DC operating point of every shipped deck:
   the complex sparse factor must match the dense Clu oracle, with and
   without the circuit's fill-reducing ordering *)
let test_ac_sparse_vs_dense_decks () =
  List.iter
    (fun path ->
      let nl, _ = Deck.parse_file path in
      let c = Mna.build nl in
      Mna.set_ordering c Rfkit_struct.Order.Btf_amd;
      let x0 = converged (Dc.solve_outcome c) in
      let perm = Mna.ordering_perm c in
      List.iter
        (fun freq ->
          let sp = Option.get (Cop.to_sparse_opt (Ac.system_op c x0 freq)) in
          let dense = Ac.system_at c x0 freq in
          let b =
            Cvec.init (Mna.size c) (fun i ->
                Cx.make (cos (float_of_int i)) (sin (float_of_int (i + 1))))
          in
          let xd = Clu.solve (Clu.factor dense) b in
          let xs = Csparse_lu.solve (Csparse_lu.factor sp) b in
          let xp = Csparse_lu.solve (Csparse_lu.factor ?perm sp) b in
          let scale = ref 1.0 in
          Array.iter (fun z -> scale := Float.max !scale (Cx.abs z)) xd;
          let ok name x =
            let worst = ref 0.0 in
            Array.iteri
              (fun i z -> worst := Float.max !worst (Cx.abs (Cx.( -: ) z xd.(i))))
              x;
            Alcotest.(check bool)
              (Printf.sprintf "%s @%g Hz: %s matches dense Clu" path freq name)
              true
              (!worst <= 1e-10 *. !scale)
          in
          ok "natural" xs;
          ok "permuted" xp)
        [ 1e3; 1e6; 1e9 ])
    example_decks

let test_ordering_perm_valid_on_decks () =
  List.iter
    (fun path ->
      let nl, _ = Deck.parse_file path in
      let c = Mna.build nl in
      Mna.set_ordering c Rfkit_struct.Order.Btf_amd;
      match Mna.ordering_perm c with
      | None -> Alcotest.fail (path ^ ": expected an ordering perm")
      | Some p ->
          Alcotest.(check bool)
            (path ^ ": ordering perm is a permutation")
            true (is_permutation p))
    example_decks

(* symbolic reuse ledger: same pattern refactors, a perm switch or pattern
   change re-analyzes *)
let test_csparse_factor_cached_counters () =
  let mk d01 =
    Csparse.of_triplets ~rows:2 ~cols:2
      [
        (0, 0, Cx.make 4.0 1.0);
        (0, 1, d01);
        (1, 0, Cx.re 2.0);
        (1, 1, Cx.make 1.0 3.0);
      ]
  in
  let a1 = mk (Cx.re 1.0) and a2 = mk (Cx.im 0.5) in
  let b = [| Cx.one; Cx.re 2.0 |] in
  let residual a x =
    let r = Csparse.matvec a x in
    let worst = ref 0.0 in
    Array.iteri
      (fun i z -> worst := Float.max !worst (Cx.abs (Cx.( -: ) z b.(i))))
      r;
    !worst
  in
  Csparse_lu.reset_counts ();
  let cache = ref None in
  let x1 = Csparse_lu.solve (Csparse_lu.factor_cached cache a1) b in
  let x2 = Csparse_lu.solve (Csparse_lu.factor_cached cache a2) b in
  Alcotest.(check bool) "first solve exact" true (residual a1 x1 <= 1e-12);
  Alcotest.(check bool) "refactored solve exact" true (residual a2 x2 <= 1e-12);
  let refac, full = Csparse_lu.counts () in
  Alcotest.(check int) "one symbolic analysis" 1 full;
  Alcotest.(check int) "one pivot-frozen refactor" 1 refac;
  Alcotest.(check bool) "fill ledger populated" true (Csparse_lu.fill_nnz () > 0);
  (* switching the ordering invalidates the cached plan *)
  let x3 = Csparse_lu.solve (Csparse_lu.factor_cached ~perm:[| 1; 0 |] cache a2) b in
  Alcotest.(check bool) "permuted solve exact" true (residual a2 x3 <= 1e-12);
  let refac, full = Csparse_lu.counts () in
  Alcotest.(check int) "perm switch re-analyzes" 2 full;
  Alcotest.(check int) "no extra refactor" 1 refac

(* two patterns with equal size and nnz: the cache must notice the moved
   entry and re-analyze instead of replaying the first plan *)
let test_factor_cached_pattern_change () =
  let t1 = [ (0, 0, 2.0); (0, 1, 1.0); (1, 1, 2.0); (2, 2, 2.0) ]
  and t2 = [ (0, 0, 2.0); (1, 0, 1.0); (1, 1, 2.0); (2, 2, 2.0) ] in
  let b = [| 1.0; 1.0; 1.0 |] in
  let x_of rows = Sparse.of_triplets ~rows:3 ~cols:3 rows in
  let cx_of rows =
    Csparse.of_triplets ~rows:3 ~cols:3 (List.map (fun (i, j, v) -> (i, j, Cx.re v)) rows)
  in
  Sparse_lu.reset_counts ();
  let cache = ref None in
  ignore (Sparse_lu.factor_cached cache (x_of t1));
  let x = Sparse_lu.solve (Sparse_lu.factor_cached cache (x_of t2)) b in
  Alcotest.(check (float 1e-15)) "real x1" 0.25 x.(1);
  Alcotest.(check (pair int int)) "real: two analyses" (0, 2) (Sparse_lu.counts ());
  Alcotest.(check bool) "real refactor rejects the pattern" true
    (match Sparse_lu.refactor (fst (Sparse_lu.analyze (x_of t1))) (x_of t2) with
     | _ -> false
     | exception Invalid_argument _ -> true);
  Csparse_lu.reset_counts ();
  let cache = ref None in
  ignore (Csparse_lu.factor_cached cache (cx_of t1));
  let x =
    Csparse_lu.solve (Csparse_lu.factor_cached cache (cx_of t2)) (Array.map Cx.re b)
  in
  Alcotest.(check (float 1e-15)) "complex x1" 0.25 x.(1).Cx.re;
  Alcotest.(check (pair int int)) "complex: two analyses" (0, 2) (Csparse_lu.counts ());
  Alcotest.(check bool) "complex refactor rejects the pattern" true
    (match Csparse_lu.refactor (fst (Csparse_lu.analyze (cx_of t1))) (cx_of t2) with
     | _ -> false
     | exception Invalid_argument _ -> true)

(* ------------------------------------------ bitwise pins of the sparse LU

   Fixed-seed MNA-like systems (a 180-node conductance mesh plus 20
   voltage-source branch rows with structurally zero diagonals), factored
   natural and under the btf-amd order through every entry point of both
   fields. Each case digests the %h-printed solutions, the factor nnz and
   the ledger counts against a fixed constant, so any change in pivot
   choice, L/U emission order or rounding of the solves shows up as a
   digest mismatch. *)

let pin_nodes = 180
let pin_branches = 20

let pin_matrix seed =
  let st = Random.State.make [| seed |] in
  let nn = pin_nodes in
  let n = nn + pin_branches in
  let trip = ref [] in
  let add i j v = trip := (i, j, v) :: !trip in
  let stamp_g a b g =
    add a a g;
    add b b g;
    add a b (-.g);
    add b a (-.g)
  in
  for i = 0 to nn - 1 do
    add i i (1e-3 *. (1.0 +. Random.State.float st 1.0))
  done;
  for i = 1 to nn - 1 do
    stamp_g (i - 1) i (0.1 +. Random.State.float st 2.0)
  done;
  (* mostly local couplings, as in an extracted layout, plus a few long
     wires *)
  for _ = 1 to nn do
    let a = Random.State.int st nn in
    let b = a + 2 + Random.State.int st 8 in
    if b < nn then stamp_g a b (0.01 +. Random.State.float st 1.0)
  done;
  for _ = 1 to 8 do
    let a = Random.State.int st nn and b = Random.State.int st nn in
    if a <> b then stamp_g a b (0.01 +. Random.State.float st 1.0)
  done;
  (* branch rows touch distinct nodes, so the sources form a forest and
     the system stays nonsingular *)
  for k = 0 to pin_branches - 1 do
    let r = nn + k and a = 9 * k in
    add a r 1.0;
    add r a 1.0;
    if k mod 2 = 0 then begin
      add (a + 4) r (-1.0);
      add r (a + 4) (-1.0)
    end
  done;
  (st, Sparse.of_triplets ~rows:n ~cols:n !trip)

(* same pattern, perturbed values; [share] keeps the index arrays
   physically shared with [a] *)
let pin_restamp st ~share a =
  let row_ptr, col_idx, values = Sparse.csr a in
  let values =
    Array.map (fun v -> v *. (1.0 +. (0.05 *. Random.State.float st 1.0))) values
  in
  let row_ptr, col_idx =
    if share then (row_ptr, col_idx) else (Array.copy row_ptr, Array.copy col_idx)
  in
  Sparse.of_csr ~rows:(Sparse.rows a) ~cols:(Sparse.cols a) ~row_ptr ~col_idx ~values

(* G + j w C: imaginary parts on the node block only *)
let pin_complex st a =
  let row_ptr, col_idx, values = Sparse.csr a in
  let n = Sparse.rows a in
  let cvals = Array.map Cx.re values in
  for i = 0 to n - 1 do
    for p = row_ptr.(i) to row_ptr.(i + 1) - 1 do
      if i < pin_nodes && col_idx.(p) < pin_nodes then
        cvals.(p) <- Cx.make values.(p) (0.2 *. Random.State.float st 1.0)
    done
  done;
  Csparse.of_csr ~rows:n ~cols:n ~row_ptr ~col_idx ~values:cvals

let pin_rhs n = Vec.init n (fun i -> sin (float_of_int (i + 1)))

let pin_crhs n =
  Cvec.init n (fun i -> Cx.make (sin (float_of_int (i + 1))) (cos (float_of_int i)))

let pin_perm a =
  match Rfkit_struct.Order.compute Rfkit_struct.Order.Btf_amd a with
  | Some p -> p
  | None -> Alcotest.fail "btf-amd returned the natural order on a pin matrix"

let pin_real seed btf =
  let st, a = pin_matrix seed in
  let perm = if btf then Some (pin_perm a) else None in
  let b = pin_rhs (Sparse.rows a) in
  let buf = Buffer.create 65536 in
  let vec x = Array.iter (fun v -> Printf.bprintf buf "%h " v) x in
  let fac f =
    vec (Sparse_lu.solve f b);
    vec (Sparse_lu.solve_transposed f b);
    let r, full = Sparse_lu.counts () in
    Printf.bprintf buf "nnz=%d r=%d f=%d fill=%d\n" (Sparse_lu.nnz f) r full
      (Sparse_lu.fill_nnz ())
  in
  Sparse_lu.reset_counts ();
  fac (Sparse_lu.factor ?perm a);
  let s, f = Sparse_lu.analyze ?perm a in
  fac f;
  fac (Sparse_lu.refactor s (pin_restamp st ~share:true a));
  let cache = ref None in
  fac (Sparse_lu.factor_cached ?perm cache a);
  fac (Sparse_lu.factor_cached ?perm cache (pin_restamp st ~share:true a));
  fac (Sparse_lu.factor_cached ?perm cache (pin_restamp st ~share:false a));
  Digest.to_hex (Digest.string (Buffer.contents buf))

let pin_cplx seed btf =
  let st, a = pin_matrix seed in
  let perm = if btf then Some (pin_perm a) else None in
  let b = pin_crhs (Sparse.rows a) in
  let buf = Buffer.create 131072 in
  let vec x = Array.iter (fun (z : Cx.t) -> Printf.bprintf buf "%h,%h " z.re z.im) x in
  let fac f =
    vec (Csparse_lu.solve f b);
    vec (Csparse_lu.solve_transposed f b);
    let r, full = Csparse_lu.counts () in
    Printf.bprintf buf "nnz=%d r=%d f=%d fill=%d\n" (Csparse_lu.nnz f) r full
      (Csparse_lu.fill_nnz ())
  in
  let ca = pin_complex st a in
  Csparse_lu.reset_counts ();
  fac (Csparse_lu.factor ?perm ca);
  let s, f = Csparse_lu.analyze ?perm ca in
  fac f;
  let restamp ~share = pin_complex st (pin_restamp st ~share a) in
  fac (Csparse_lu.refactor s (restamp ~share:true));
  let cache = ref None in
  fac (Csparse_lu.factor_cached ?perm cache ca);
  fac (Csparse_lu.factor_cached ?perm cache (restamp ~share:true));
  fac (Csparse_lu.factor_cached ?perm cache (restamp ~share:false));
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* (field, seed, btf-amd order?) -> expected digest *)
let pins =
  [
    ("real", 11, false, "4706fc5c60f75f8b39ba454559ba1ceb");
    ("real", 11, true, "6fe96e36785f3a2df352f1acda19e3a4");
    ("real", 23, false, "9f8a4be8bd3ceda8e9f8e99dd9458206");
    ("real", 23, true, "1fcdf579dc02ce4680829613caa31556");
    ("complex", 11, false, "13270b2ecbcac60c83bc12fed62d69a2");
    ("complex", 11, true, "78a2372710c693c4a81a1173f5b3f04f");
    ("complex", 23, false, "9513ad198d96cb88a958932b003f4e58");
    ("complex", 23, true, "b368709a3701b1d8f8d035cacd353e37");
  ]

let test_bitwise_pins () =
  List.iter
    (fun (field, seed, btf, want) ->
      let got = if field = "real" then pin_real seed btf else pin_cplx seed btf in
      Alcotest.(check string)
        (Printf.sprintf "%s seed %d %s" field seed (if btf then "btf-amd" else "natural"))
        want got)
    pins

(* the complex instance on a real matrix embedded with zero imaginary
   parts reproduces the real instance bit for bit *)
let test_cross_field_bitwise () =
  List.iter
    (fun (seed, btf) ->
      let st, a = pin_matrix seed in
      let perm = if btf then Some (pin_perm a) else None in
      let a' = pin_restamp st ~share:false a in
      let b = pin_rhs (Sparse.rows a) in
      let cb = Array.map Cx.re b in
      let same what rf cf =
        let bits v = Int64.bits_of_float v in
        let check x cx =
          Array.for_all2
            (fun v (z : Cx.t) -> bits v = bits z.re && z.im = 0.0)
            x cx
        in
        Alcotest.(check bool) (what ^ ": solve") true
          (check (Sparse_lu.solve rf b) (Csparse_lu.solve cf cb));
        Alcotest.(check bool) (what ^ ": solve_transposed") true
          (check (Sparse_lu.solve_transposed rf b) (Csparse_lu.solve_transposed cf cb));
        Alcotest.(check int) (what ^ ": nnz") (Sparse_lu.nnz rf) (Csparse_lu.nnz cf);
        Alcotest.(check (pair int int)) (what ^ ": counts") (Sparse_lu.counts ())
          (Csparse_lu.counts ());
        Alcotest.(check int) (what ^ ": fill") (Sparse_lu.fill_nnz ())
          (Csparse_lu.fill_nnz ())
      in
      Sparse_lu.reset_counts ();
      Csparse_lu.reset_counts ();
      let ca = Csparse.of_real a and ca' = Csparse.of_real a' in
      same "factor" (Sparse_lu.factor ?perm a) (Csparse_lu.factor ?perm ca);
      let rs, rf = Sparse_lu.analyze ?perm a and cs, cf = Csparse_lu.analyze ?perm ca in
      same "analyze" rf cf;
      same "refactor" (Sparse_lu.refactor rs a') (Csparse_lu.refactor cs ca');
      let rc = ref None and cc = ref None in
      same "factor_cached" (Sparse_lu.factor_cached ?perm rc a)
        (Csparse_lu.factor_cached ?perm cc ca);
      same "factor_cached refactor" (Sparse_lu.factor_cached ?perm rc a')
        (Csparse_lu.factor_cached ?perm cc ca'))
    [ (11, false); (11, true); (23, false); (23, true) ]

(* ------------------------------------- bitwise pins of the operator layer

   The operator folds (G + s C through Op/Cop), the descriptor transfer and
   expansion, the PRIMA/PVL reductions, the AC system CSR arrays and the
   CSR builders (triplet sort/dedupe, pattern-merging add, real-to-complex
   lift) on fixed inputs, digested from %h-printed output. Any change in
   the order of the floating-point operations shows up as a mismatch. *)

let op_pin_digest f =
  let buf = Buffer.create 65536 in
  let fl v = Printf.bprintf buf "%h " v in
  let cx (z : Cx.t) = Printf.bprintf buf "%h,%h " z.re z.im in
  f ~fl ~cx ~buf;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let pin_s = [ Cx.make 0.0 6.3e6; Cx.make 1e7 6.3e8; Cx.make 0.0 3e10 ]

let pin_rom_descriptor (rom : Rfkit_rom.Prima.rom) =
  {
    Rfkit_rom.Descriptor.g = Op.dense rom.g_r;
    c = Op.dense rom.c_r;
    b = rom.b_r;
    l = rom.l_r;
  }

let pin_descriptor () =
  let open Rfkit_rom in
  op_pin_digest (fun ~fl ~cx ~buf ->
      let line = Descriptor.rc_line ~sections:40 ~r_total:4e3 ~c_total:4e-12 in
      let line_i =
        Descriptor.rlc_line_i ~sections:20 ~r_total:100.0 ~l_total:10e-9 ~c_total:4e-12
      in
      List.iter
        (fun d ->
          List.iter (fun s -> cx (Descriptor.transfer d s)) pin_s;
          Array.iter fl (Descriptor.moments d ~s0:1e8 ~k:6);
          let prima = Prima.reduce d ~s0:1e8 ~q:6 in
          List.iter
            (fun m -> Array.iter fl m.Mat.a)
            [ prima.Prima.g_r; prima.Prima.c_r ];
          Array.iter fl prima.Prima.b_r;
          Array.iter fl prima.Prima.l_r;
          Array.iter fl (Prima.moments prima ~s0:1e8 6);
          let rd = pin_rom_descriptor prima in
          List.iter (fun s -> cx (Descriptor.transfer rd s)) pin_s;
          let pvl = Pvl.reduce d ~s0:1e8 ~q:5 in
          Array.iter fl pvl.Pvl.t.Mat.a;
          fl pvl.Pvl.kappa;
          Buffer.add_char buf '\n')
        [ line; line_i ])

let pin_ac () =
  op_pin_digest (fun ~fl:_ ~cx ~buf ->
      List.iter
        (fun (path, source) ->
          let nl, _ = Deck.parse_file path in
          let c = Mna.build nl in
          let x0 = converged (Dc.solve_outcome c) in
          List.iter
            (fun freq ->
              let row_ptr, col_idx, values =
                Csparse.csr (Option.get (Cop.to_sparse_opt (Ac.system_op c x0 freq)))
              in
              Array.iter (Printf.bprintf buf "%d ") row_ptr;
              Array.iter (Printf.bprintf buf "%d ") col_idx;
              Array.iter cx values)
            [ 1e3; 1e6; 1e9 ];
          match
            Ac.sweep_outcome c ~source
              ~freqs:(Ac.log_freqs ~f_start:1e3 ~f_stop:1e9 ~points_per_decade:3)
          with
          | Rfkit_solve.Supervisor.Converged (r, _) ->
              Array.iter (Array.iter cx) r.Ac.response
          | Rfkit_solve.Supervisor.Failed f ->
              Alcotest.failf "%s: AC failed: %s" path
                (Rfkit_solve.Supervisor.failure_to_string f))
        [
          ("../examples/decks/lowpass.cir", "V1");
          ("../examples/decks/mos_amp.cir", "VG");
        ])

(* [k] seeded triplets on an [n x n] grid, with many duplicate
   coordinates; columns stay in [cols_from, cols_to), so two draws can be
   made to overlap or to be disjoint *)
let pin_triplets st ~n ~k ~cols_from ~cols_to =
  List.init k (fun _ ->
      let i = Random.State.int st n in
      let j = cols_from + Random.State.int st (cols_to - cols_from) in
      (i, j, Random.State.float st 2.0 -. 1.0))

let pin_csr_builders () =
  op_pin_digest (fun ~fl ~cx ~buf ->
      let ints a = Array.iter (Printf.bprintf buf "%d ") a in
      let real s =
        let r, c, v = Sparse.csr s in
        ints r;
        ints c;
        Array.iter fl v
      and cplx s =
        let r, c, v = Csparse.csr s in
        ints r;
        ints c;
        Array.iter cx v
      in
      List.iter
        (fun seed ->
          let st = Random.State.make [| seed |] in
          let n = 30 in
          let t1 = pin_triplets st ~n ~k:200 ~cols_from:0 ~cols_to:n
          and t2 = pin_triplets st ~n ~k:150 ~cols_from:0 ~cols_to:n
          and t3 = pin_triplets st ~n ~k:60 ~cols_from:0 ~cols_to:10
          and t4 = pin_triplets st ~n ~k:60 ~cols_from:20 ~cols_to:n in
          let sp t = Sparse.of_triplets ~rows:n ~cols:n t in
          let a = sp t1 and b = sp t2 and c = sp t3 and d = sp t4 in
          List.iter real [ a; b; Sparse.add a b; Sparse.add c d; Sparse.add d a ];
          let lift t =
            List.map (fun (i, j, v) -> (i, j, Cx.make v ((0.5 *. v) +. 0.25))) t
          in
          let csp t = Csparse.of_triplets ~rows:n ~cols:n (lift t) in
          let ca = csp t1 and cb = csp t2 and cc = csp t3 and cd = csp t4 in
          List.iter cplx
            [
              ca;
              cb;
              Csparse.add ca cb;
              Csparse.add cc cd;
              Csparse.add cd ca;
              Csparse.of_real a;
              Csparse.add (Csparse.of_real b) ca;
              Csparse.scale (Cx.make 0.5 2.0) cb;
            ])
        [ 3; 17 ])

let op_pins =
  [
    ( "descriptor transfer, moments, PRIMA and PVL",
      pin_descriptor,
      "1d65cf08aa8678e2197666ba4076f567" );
    ("AC system CSR and sweep response", pin_ac, "a84d3d6cfe8044fa4c868a707332349b");
    ( "CSR of_triplets, add and of_real",
      pin_csr_builders,
      "f862f5442662e048a61e1b6b940f3804" );
  ]

let test_op_pins () =
  List.iter
    (fun (what, f, want) -> Alcotest.(check string) what want (f ()))
    op_pins

let suite =
  [
    ( "op.properties",
      List.map QCheck_alcotest.to_alcotest
        [
          qcheck_roundtrip;
          qcheck_add;
          qcheck_op_matvec;
          qcheck_op_matvec_t;
          qcheck_op_diagonal;
          qcheck_sparse_lu;
          qcheck_csparse_lu;
          qcheck_csparse_lu_perm;
          qcheck_jac_g;
          qcheck_jac_c;
          qcheck_op_factorize;
        ] );
    ( "op.engines",
      [
        Alcotest.test_case "dc dense/sparse/gmres paths agree on example decks"
          `Quick test_dc_paths_agree;
        Alcotest.test_case "tran dense/sparse paths agree" `Quick
          test_tran_paths_agree;
        Alcotest.test_case "ilu0-preconditioned gmres converges" `Quick
          test_ilu_reduces_iterations;
        Alcotest.test_case "ac complex sparse vs dense Clu on example decks"
          `Quick test_ac_sparse_vs_dense_decks;
        Alcotest.test_case "btf-amd ordering perm is valid on example decks"
          `Quick test_ordering_perm_valid_on_decks;
        Alcotest.test_case "csparse_lu factor_cached counters" `Quick
          test_csparse_factor_cached_counters;
        Alcotest.test_case "factor_cached re-analyzes on a pattern change" `Quick
          test_factor_cached_pattern_change;
      ] );
    ( "op.pins",
      [
        Alcotest.test_case "sparse LU bitwise pins on both fields" `Quick
          test_bitwise_pins;
        Alcotest.test_case "complex LU on a real matrix is the real LU" `Quick
          test_cross_field_bitwise;
        Alcotest.test_case "operator layer bitwise pins" `Quick test_op_pins;
      ] );
  ]
