(* Tests for the rfkit_struct structural-analysis layer: Dulmage-Mendelsohn
   matching and decomposition on known patterns, BTF+AMD ordering validity,
   symmetric permutation plumbing through Sparse_lu, the L021/L022/L023
   lint checks with line attribution, the engine pre-flight rejection path,
   and properties (permutation validity on random patterns, permuted and
   natural factorizations agreeing to 1e-10, of_triplets duplicate
   summing). *)

open Rfkit_circuit
open Rfkit_lint
module Sp = Rfkit_la.Sparse
module Lu = Rfkit_la.Sparse_lu
module Vec = Rfkit_la.Vec
module Dm = Rfkit_struct.Dm
module Amd = Rfkit_struct.Amd
module Order = Rfkit_struct.Order
module Sup = Rfkit_solve.Supervisor

let ones rows cols entries =
  Sp.of_triplets ~rows ~cols (List.map (fun (i, j) -> (i, j, 1.0)) entries)

let is_permutation p =
  let n = Array.length p in
  let seen = Array.make n false in
  Array.for_all
    (fun v ->
      v >= 0 && v < n && not seen.(v) && (seen.(v) <- true; true))
    p

let codes ds = List.map (fun d -> d.Diagnostic.code) ds

let find_code c ds =
  match List.find_opt (fun d -> d.Diagnostic.code = c) ds with
  | Some d -> d
  | None ->
      Alcotest.failf "expected a %s diagnostic, got [%s]" c
        (String.concat "; " (List.map Diagnostic.to_string ds))

(* ------------------------------------------------- DM decomposition -- *)

let test_dm_full_rank () =
  (* needs an augmenting path: the greedy row0 -> col0 must be rematched *)
  let a = ones 2 2 [ (0, 0); (0, 1); (1, 0) ] in
  let d = Dm.decompose a in
  Alcotest.(check int) "rank" 2 d.Dm.rank;
  Alcotest.(check (list int)) "over_rows" [] d.Dm.over_rows;
  Alcotest.(check (list int)) "under_cols" [] d.Dm.under_cols;
  Alcotest.(check int) "structural_rank" 2 (Dm.structural_rank a)

let test_dm_deficient () =
  (* col 2 is empty and rows 1,2 compete for col 1: rank 2 of 3 *)
  let a = ones 3 3 [ (0, 0); (1, 1); (2, 1) ] in
  let d = Dm.decompose a in
  Alcotest.(check int) "rank" 2 d.Dm.rank;
  Alcotest.(check (list int)) "over_rows" [ 1; 2 ] d.Dm.over_rows;
  Alcotest.(check (list int)) "under_cols" [ 2 ] d.Dm.under_cols;
  (* the reach sets are canonical: the same decomposition of the same
     pattern with permuted triplet order must agree *)
  let b = ones 3 3 [ (2, 1); (0, 0); (1, 1) ] in
  let d' = Dm.decompose b in
  Alcotest.(check (list int)) "canonical over_rows" d.Dm.over_rows d'.Dm.over_rows;
  Alcotest.(check (list int)) "canonical under_cols" d.Dm.under_cols d'.Dm.under_cols

let test_dm_matching_consistency () =
  let a = ones 3 3 [ (0, 1); (1, 0); (1, 2); (2, 2) ] in
  let m = Dm.max_matching a in
  Alcotest.(check int) "size" 3 m.Dm.size;
  Array.iteri
    (fun i j ->
      if j >= 0 then
        Alcotest.(check int) (Printf.sprintf "col_match inverse of row %d" i) i
          m.Dm.col_match.(j))
    m.Dm.row_match

(* --------------------------------------------------- BTF + AMD order -- *)

let test_btf_blocks () =
  (* lower block-triangular: {0}, {1}, and the coupled pair {2,3} *)
  let a =
    ones 4 4 [ (0, 0); (1, 0); (1, 1); (2, 2); (2, 3); (3, 2); (3, 3) ]
  in
  let info = Order.compute_info Order.Btf_amd a in
  Alcotest.(check (list int)) "block sizes" [ 1; 1; 2 ]
    (List.sort compare info.Order.blocks);
  (match info.Order.perm with
  | None -> ()
  | Some p -> Alcotest.(check bool) "valid perm" true (is_permutation p));
  (* structurally singular pattern: BTF is undefined, degrade to AMD *)
  let s = ones 2 2 [ (0, 0); (1, 0) ] in
  let info_s = Order.compute_info Order.Btf_amd s in
  Alcotest.(check (list int)) "no blocks when singular" [] info_s.Order.blocks

let test_lu_perm_agreement () =
  (* arrow matrix: worst case for natural order, best case reversed *)
  let n = 6 in
  let entries = ref [] in
  for k = 0 to n - 1 do
    entries := (k, k, 4.0 +. float_of_int k) :: !entries;
    if k > 0 then entries := (0, k, 1.0) :: (k, 0, 1.0) :: !entries
  done;
  let a = Sp.of_triplets ~rows:n ~cols:n !entries in
  let b = Vec.init n (fun i -> float_of_int (i + 1)) in
  let x_nat = Lu.solve (Lu.factor a) b in
  let perm = Amd.order a in
  Alcotest.(check bool) "amd perm valid" true (is_permutation perm);
  let x_amd = Lu.solve (Lu.factor ~perm a) b in
  Alcotest.(check bool) "solutions agree" true
    (Vec.norm_inf (Vec.sub x_nat x_amd) <= 1e-10)

let test_factor_cached_perm_switch () =
  let a = Sp.of_triplets ~rows:2 ~cols:2
      [ (0, 0, 2.0); (0, 1, 1.0); (1, 0, 1.0); (1, 1, 3.0) ]
  in
  let b = Vec.init 2 (fun i -> 1.0 +. float_of_int i) in
  let symb = ref None in
  Lu.reset_counts ();
  let x1 = Lu.solve (Lu.factor_cached symb a) b in
  let x2 = Lu.solve (Lu.factor_cached symb a) b in
  (* counts () = (refactorizations, full factorizations) *)
  Alcotest.(check (pair int int)) "second hit refactors" (1, 1) (Lu.counts ());
  (* switching the ordering must invalidate the symbolic cache *)
  let x3 = Lu.solve (Lu.factor_cached ~perm:[| 1; 0 |] symb a) b in
  Alcotest.(check (pair int int)) "perm change re-analyzes" (1, 2) (Lu.counts ());
  List.iter
    (fun (label, x) ->
      Alcotest.(check bool) label true (Vec.norm_inf (Vec.sub x1 x) <= 1e-12))
    [ ("refactor solution", x2); ("permuted solution", x3) ]

(* -------------------------------------------- lint L021 / L022 / L023 -- *)

let test_underdet_deck_lines () =
  let ds = lint_file "../examples/decks/bad/underdet.cir" in
  let l021 = find_code "L021" ds in
  Alcotest.(check (option int)) "L021 line" (Some 2) l021.Diagnostic.line;
  Alcotest.(check bool) "L021 error" true (Diagnostic.is_error l021);
  let l022 = find_code "L022" ds in
  Alcotest.(check (option int)) "L022 line" (Some 4) l022.Diagnostic.line;
  Alcotest.(check (option string)) "L022 subject" (Some "v(out)")
    l022.Diagnostic.subject;
  Alcotest.(check bool) "L022 error" true (Diagnostic.is_error l022)

let test_l023_index2_warning () =
  (* current source driving an inductor: v(a) = L dI/dt exists only by
     differentiating the constraint — the index-2-prone shape *)
  let ds = lint_string "I1 a 0 DC 1m\nL1 a 0 1u\n.tran 1u 1n\n.end\n" in
  let d = find_code "L023" ds in
  Alcotest.(check string) "severity" "warning"
    (Diagnostic.severity_label d.Diagnostic.severity);
  Alcotest.(check bool) "names the node" true
    (let msg = d.Diagnostic.message in
     let needle = "v(a)" in
     let nl = String.length needle and ml = String.length msg in
     let rec scan i = i + nl <= ml && (String.sub msg i nl = needle || scan (i + 1)) in
     scan 0)

let test_l023_not_on_rc () =
  let nl = Netlist.create () in
  Netlist.vsource nl "V1" "in" "0" (Wave.Dc 1.0);
  Netlist.resistor nl "R1" "in" "out" 1e3;
  Netlist.capacitor nl "C1" "out" "0" 1e-9;
  Alcotest.(check (list string)) "RC is index-1" [] (codes (Checks.dae_index nl))

(* --------------------------------------------- engine pre-flight path -- *)

let test_dc_preflight_rejects () =
  (* a capacitor-only node: the DC G-pattern row of v(a) is empty *)
  let nl = Netlist.create () in
  Netlist.isource nl "I1" "a" "0" (Wave.Dc 1e-3);
  Netlist.capacitor nl "C1" "a" "0" 1e-9;
  match Dc.solve_outcome (Mna.build nl) with
  | Sup.Converged _ -> Alcotest.fail "expected a structural rejection"
  | Sup.Failed f ->
      (match f.Sup.cause with
      | Sup.Structurally_singular { rank; size } ->
          Alcotest.(check (pair int int)) "rank/size" (0, 1) (rank, size)
      | c -> Alcotest.failf "wrong cause: %s" (Sup.cause_to_string c));
      Alcotest.(check int) "zero attempts spent" 0 (List.length f.Sup.f_attempts)

let test_tran_preflight_rejects () =
  (* two ideal sources in parallel: singular in the G+C union pattern,
     so even the transient pre-flight must refuse *)
  let nl = Netlist.create () in
  Netlist.vsource nl "V1" "a" "0" (Wave.Dc 1.0);
  Netlist.vsource nl "V2" "a" "0" (Wave.Dc 1.0);
  match Tran.run_outcome (Mna.build nl) ~t_stop:1e-6 ~dt:1e-7 with
  | Sup.Converged _ -> Alcotest.fail "expected a structural rejection"
  | Sup.Failed f -> (
      match f.Sup.cause with
      | Sup.Structurally_singular { rank; size } ->
          Alcotest.(check (pair int int)) "rank/size" (2, 3) (rank, size)
      | c -> Alcotest.failf "wrong cause: %s" (Sup.cause_to_string c))

let test_shipped_decks_ordering_agreement () =
  List.iter
    (fun path ->
      let nl, _ = Deck.parse_file ("../examples/decks/" ^ path) in
      let solve mode =
        let c = Mna.build nl in
        Mna.set_ordering c mode;
        match Dc.solve_outcome c with
        | Sup.Converged (x, _) -> x
        | Sup.Failed f ->
            Alcotest.failf "%s failed under %s: %s" path
              (Order.mode_to_string mode)
              (Sup.cause_to_string f.Sup.cause)
      in
      let x_nat = solve Order.Natural in
      List.iter
        (fun mode ->
          let x = solve mode in
          let diff = Vec.norm_inf (Vec.sub x_nat x) in
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s agrees with natural" path
               (Order.mode_to_string mode))
            true (diff <= 1e-10))
        [ Order.Amd_only; Order.Btf_amd ])
    [ "lowpass.cir"; "mos_amp.cir"; "rectifier.cir"; "hard_dc.cir" ]

(* -------------------------------------------------------- properties -- *)

let qcheck_suite =
  let open QCheck in
  let pattern_arb =
    (* random square pattern with a full diagonal so a perfect matching
       always exists and BTF is well defined *)
    let gen =
      Gen.(
        int_range 1 12 >>= fun n ->
        list_size (int_range 0 (3 * n)) (pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
        >>= fun offdiag -> return (n, offdiag))
    in
    make gen ~print:Print.(pair int (list (pair int int)))
  in
  let build_dd (n, offdiag) =
    (* diagonally dominant values on the random pattern: always invertible,
       so natural and permuted factorizations can be compared exactly *)
    let off =
      List.map
        (fun (i, j) ->
          (i, j, if i = j then 0.0 else 0.3 +. (0.01 *. float_of_int ((i + (7 * j)) mod 13))))
        offdiag
    in
    let row_sums = Array.make n 0.0 in
    List.iter (fun (i, _, v) -> row_sums.(i) <- row_sums.(i) +. Float.abs v) off;
    let diag = List.init n (fun i -> (i, i, row_sums.(i) +. 1.0)) in
    Sp.of_triplets ~rows:n ~cols:n (diag @ off)
  in
  [
    Test.make ~name:"struct: AMD and BTF orderings are permutations" ~count:300
      pattern_arb (fun ((n, _) as spec) ->
        let a = build_dd spec in
        List.for_all
          (fun mode ->
            match Order.compute mode a with
            | None -> true
            | Some p -> Array.length p = n && is_permutation p)
          [ Order.Natural; Order.Amd_only; Order.Btf_amd ]);
    Test.make ~name:"struct: permuted factorization agrees with natural to 1e-10"
      ~count:200 pattern_arb (fun ((n, _) as spec) ->
        let a = build_dd spec in
        let b = Vec.init n (fun i -> Float.of_int ((i mod 5) - 2) +. 0.5) in
        let x_nat = Lu.solve (Lu.factor a) b in
        List.for_all
          (fun mode ->
            match Order.compute mode a with
            | None -> true
            | Some perm ->
                let x = Lu.solve (Lu.factor ~perm a) b in
                Vec.norm_inf (Vec.sub x_nat x) <= 1e-10)
          [ Order.Amd_only; Order.Btf_amd ]);
    Test.make ~name:"struct: structural rank bounds numeric behaviour" ~count:200
      pattern_arb (fun spec ->
        let a = build_dd spec in
        (* a full diagonal means full structural rank, always *)
        Dm.structural_rank a = Sp.rows a);
    Test.make ~name:"sparse: of_triplets sums duplicate entries" ~count:300
      (make
         Gen.(
           int_range 1 6 >>= fun n ->
           list_size (int_range 0 25)
             (triple (int_range 0 (n - 1)) (int_range 0 (n - 1))
                (float_range (-4.0) 4.0))
           >>= fun ts -> return (n, ts))
         ~print:Print.(pair int (list (triple int int float))))
      (fun (n, ts) ->
        let dense = Array.make_matrix n n 0.0 in
        List.iter (fun (i, j, v) -> dense.(i).(j) <- dense.(i).(j) +. v) ts;
        let got = Sp.to_dense (Sp.of_triplets ~rows:n ~cols:n ts) in
        let ok = ref true in
        for i = 0 to n - 1 do
          for j = 0 to n - 1 do
            if Float.abs (Rfkit_la.Mat.get got i j -. dense.(i).(j)) > 1e-12 then
              ok := false
          done
        done;
        !ok);
  ]

let suite =
  let tc name f = Alcotest.test_case name `Quick f in
  [
    ( "struct.dm",
      [
        tc "full rank via augmenting path" test_dm_full_rank;
        tc "deficient pattern decomposition" test_dm_deficient;
        tc "matching arrays are inverse" test_dm_matching_consistency;
      ] );
    ( "struct.ordering",
      [
        tc "btf block detection" test_btf_blocks;
        tc "lu agrees across orderings" test_lu_perm_agreement;
        tc "factor_cached perm switch" test_factor_cached_perm_switch;
        tc "shipped decks agree across orderings"
          test_shipped_decks_ordering_agreement;
      ] );
    ( "struct.lint",
      [
        tc "underdet deck line attribution" test_underdet_deck_lines;
        tc "L023 fires on I-source into inductor" test_l023_index2_warning;
        tc "L023 silent on RC" test_l023_not_on_rc;
      ] );
    ( "struct.preflight",
      [
        tc "dc rejects before factorizing" test_dc_preflight_rejects;
        tc "tran rejects on the union pattern" test_tran_preflight_rejects;
      ] );
    ("struct.properties", List.map QCheck_alcotest.to_alcotest qcheck_suite);
  ]
