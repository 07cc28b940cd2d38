(* Tests for the rfkit_struct structural-analysis layer: Dulmage-Mendelsohn
   matching and decomposition on known patterns, BTF+AMD ordering validity,
   symmetric permutation plumbing through Sparse_lu, the L021/L022/L023
   lint checks with line attribution, the engine pre-flight rejection path,
   digests of the amd and btf-amd permutations on shipped and generated
   decks, and properties (permutation validity on random patterns, permuted
   and natural factorizations agreeing to 1e-10, of_triplets duplicate
   summing, and the set-up fast paths against reference implementations
   kept here: greedy+Kuhn matching against plain Kuhn, heap AMD against a
   linear-scan AMD, counting-sort CSR patterns against a tuple sort, and
   hashed node names against first-use order). *)

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

(* ------------------------------------------------ ordering permutation pins

   Digests of [Mna.ordering_perm] under amd and btf-amd on the shipped
   decks and on seeded generated decks: an RC ladder with a junction
   diode on every fourth node, a 2-D RC mesh and a unidirectional VCCS
   chain with occasional feedback (many BTF blocks). Node names and card
   order are scrambled by a fixed LCG, so the unknown numbering is not
   the topological one. Any change to matching, BTF or AMD that alters a
   permutation fails here. *)

let lcg s = ((s * 1103515245) + 12345) land 0x3FFFFFFF

(* deterministic Fisher-Yates driven by [lcg]; returns the final state *)
let scramble seed arr =
  let s = ref seed in
  for i = Array.length arr - 1 downto 1 do
    s := lcg !s;
    let j = !s mod (i + 1) in
    let t = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- t
  done;
  !s

(* [cards] come in reverse order; [in_order] keeps them in order instead
   of shuffling them *)
let gen_deck ?(in_order = false) ~seed ~title cards =
  let cards = Array.of_list (if in_order then List.rev cards else cards) in
  if not in_order then ignore (scramble seed cards);
  String.concat "\n" ((("* " ^ title) :: Array.to_list cards) @ [ ".end"; "" ])

(* node-name map k -> prefix ^ (scrambled k) *)
let gen_names ?(in_order = false) ~seed ~prefix n =
  let perm = Array.init n Fun.id in
  if not in_order then ignore (scramble seed perm);
  fun k -> prefix ^ string_of_int perm.(k)

(* in order, node k is the k-th stage: plain Kuhn matching then reroutes
   the whole chain from every row, the case the greedy pass exists for *)
let ladder_deck ?(in_order = false) ~seed n =
  let nm = gen_names ~in_order ~seed ~prefix:"n" n in
  let cards = ref [ "V1 in 0 SIN(0.5 0.2 1meg)"; "RIN in " ^ nm 0 ^ " 50" ] in
  for k = 0 to n - 1 do
    cards := Printf.sprintf "C%d %s 0 50f" k (nm k) :: !cards;
    if k < n - 1 then cards := Printf.sprintf "R%d %s %s 20" k (nm k) (nm (k + 1)) :: !cards;
    if k mod 4 = 0 then cards := Printf.sprintf "D%d %s 0 IS=1e-15" k (nm k) :: !cards
  done;
  gen_deck ~in_order ~seed:(seed + 1) ~title:"rc ladder" !cards

let mesh_deck ~seed nx ny =
  let nm = gen_names ~seed ~prefix:"m" (nx * ny) in
  let node i j = nm ((i * ny) + j) in
  let cards = ref [ "V1 in 0 DC 0.4"; "RS in " ^ node 0 0 ^ " 100" ] in
  for i = 0 to nx - 1 do
    for j = 0 to ny - 1 do
      let k = (i * ny) + j in
      cards := Printf.sprintf "C%d %s 0 10f" k (node i j) :: !cards;
      if j < ny - 1 then
        cards := Printf.sprintf "RH%d %s %s 50" k (node i j) (node i (j + 1)) :: !cards;
      if i < nx - 1 then
        cards := Printf.sprintf "RV%d %s %s 50" k (node i j) (node (i + 1) j) :: !cards
    done
  done;
  gen_deck ~seed:(seed + 1) ~title:"rc mesh" !cards

let gm_chain_deck ~seed n =
  let nm = gen_names ~seed ~prefix:"g" n in
  let cards = ref [ "I1 " ^ nm 0 ^ " 0 DC 1m" ] in
  for k = 0 to n - 1 do
    cards := Printf.sprintf "R%d %s 0 1k" k (nm k) :: !cards;
    cards := Printf.sprintf "C%d %s 0 1p" k (nm k) :: !cards;
    if k > 0 then
      cards := Printf.sprintf "G%d %s 0 %s 0 1m" k (nm k) (nm (k - 1)) :: !cards;
    if k mod 5 = 2 && k + 2 < n then
      cards := Printf.sprintf "GF%d %s 0 %s 0 1u" k (nm k) (nm (k + 2)) :: !cards
  done;
  gen_deck ~seed:(seed + 1) ~title:"gm chain" !cards

(* a binary fan-out of VCCS stages: sibling subtrees are independent
   BTF blocks, so the block order is not fixed by the partial order *)
let gm_tree_deck ~seed n =
  let nm = gen_names ~seed ~prefix:"t" n in
  let cards = ref [ "I1 " ^ nm 0 ^ " 0 DC 1m" ] in
  for k = 0 to n - 1 do
    cards := Printf.sprintf "R%d %s 0 1k" k (nm k) :: !cards;
    if k > 0 then
      cards := Printf.sprintf "G%d %s 0 %s 0 1m" k (nm k) (nm ((k - 1) / 2)) :: !cards;
    if k mod 7 = 3 && (2 * k) + 1 < n then
      cards := Printf.sprintf "GF%d %s 0 %s 0 1u" k (nm k) (nm ((2 * k) + 1)) :: !cards
  done;
  gen_deck ~seed:(seed + 1) ~title:"gm tree" !cards

(* a small random VCCS/inductor deck, kept because its btf-amd order
   depends on which maximum matching is found: a greedy pass that took
   each row's highest free column instead of its lowest moves it *)
let vccs_web_deck =
  String.concat "\n"
    [
      "* vccs web"; "RG0 n0 0 1k"; "RG1 n1 0 1k"; "RG2 n2 0 1k"; "RG3 n3 0 1k"; "RG4 n4 0 1k";
      "RG5 n5 0 1k"; "RG6 n6 0 1k"; "RG7 n7 0 1k"; "RG8 n8 0 1k"; "V0 n2 n0 DC 1";
      "G1 n2 n3 n3 0 1m"; "G2 n8 n6 n1 n4 1m"; "L3 n7 n5 1n"; "C4 n5 n0 1p"; "L5 n8 n0 1n";
      "C6 n1 n1 1p"; "G7 n5 n2 n8 n4 1m"; "L8 n2 n5 1n"; "L9 n5 n7 1n"; "L10 n4 n3 1n";
      "C11 n7 n5 1p"; ".end"; "";
    ]

let perm_digest text mode =
  let nl, _ = Deck.parse_string text in
  let c = Mna.build nl in
  Mna.set_ordering c mode;
  let s =
    match Mna.ordering_perm c with
    | None -> "identity"
    | Some p -> String.concat "," (Array.to_list (Array.map string_of_int p))
  in
  Digest.to_hex (Digest.string s)

let pin_decks =
  List.map
    (fun f -> (f, fun () -> In_channel.with_open_bin ("../examples/decks/" ^ f) In_channel.input_all))
    [ "lowpass.cir"; "mos_amp.cir"; "rectifier.cir"; "hard_dc.cir" ]
  @ [
      ("ladder-2k", fun () -> ladder_deck ~seed:3 2000);
      ("ladder-2k-in-order", fun () -> ladder_deck ~in_order:true ~seed:3 2000);
      ("mesh-20x20", fun () -> mesh_deck ~seed:5 20 20);
      ("gm-chain-200", fun () -> gm_chain_deck ~seed:7 200);
      ("gm-tree-300", fun () -> gm_tree_deck ~seed:11 300);
      ("vccs-web", fun () -> vccs_web_deck);
    ]

(* (deck, mode, digest of the permutation) *)
let perm_pins =
  [
    ("lowpass.cir", "amd", "9b6d469cb8830627fb7dc7937f5253db");
    ("lowpass.cir", "btf-amd", "9b6d469cb8830627fb7dc7937f5253db");
    ("mos_amp.cir", "amd", "008730313feb050c60701c27294da65d");
    ("mos_amp.cir", "btf-amd", "008730313feb050c60701c27294da65d");
    ("rectifier.cir", "amd", "9b6d469cb8830627fb7dc7937f5253db");
    ("rectifier.cir", "btf-amd", "9b6d469cb8830627fb7dc7937f5253db");
    ("hard_dc.cir", "amd", "8d2f56f326d59d5daf9e48aab483cf57");
    ("hard_dc.cir", "btf-amd", "8d2f56f326d59d5daf9e48aab483cf57");
    ("ladder-2k", "amd", "5c9ef93a91413fc6dfd57c76d73ea53a");
    ("ladder-2k", "btf-amd", "5c9ef93a91413fc6dfd57c76d73ea53a");
    ("ladder-2k-in-order", "amd", "76abefd12fd778f3b509313b2d566460");
    ("ladder-2k-in-order", "btf-amd", "76abefd12fd778f3b509313b2d566460");
    ("mesh-20x20", "amd", "cd574c9c00d59f78adfc3673f39edc8d");
    ("mesh-20x20", "btf-amd", "cd574c9c00d59f78adfc3673f39edc8d");
    ("gm-chain-200", "amd", "da04c93c720355f85f8644109263ff7c");
    ("gm-chain-200", "btf-amd", "2e337f5e1b34f158d534773476c3677f");
    ("gm-tree-300", "amd", "1b7f0ccc6371270434b76dc5ccd524e2");
    ("gm-tree-300", "btf-amd", "e7955ce7f153cc212b3b708ba21a57cb");
    ("vccs-web", "amd", "bf726f6c03c995b32c06f08915c2fac7");
    ("vccs-web", "btf-amd", "5e3e065e4db3d532142a434588ad73d8");
  ]

let test_perm_pins () =
  List.iter
    (fun (name, text) ->
      let text = text () in
      List.iter
        (fun (deck, mode, want) ->
          if deck = name then
            let m = Option.get (Order.mode_of_string mode) in
            Alcotest.(check string) (name ^ " " ^ mode) want (perm_digest text m))
        perm_pins)
    pin_decks

(* ------------------------------------- unknown labels and origins -- *)

(* the attribution rules spelled out as a scan over every device *)
let scan_label c nl i =
  if i < Mna.n_nodes c then Printf.sprintf "v(%s)" (Netlist.node_name nl i)
  else
    let k = ref (Mna.n_nodes c) and label = ref (Printf.sprintf "x[%d]" i) in
    List.iter
      (fun d ->
        if Device.has_branch_current d then begin
          if !k = i then label := Printf.sprintf "i(%s)" (Device.name d);
          incr k
        end)
      (Netlist.devices nl);
    !label

let scan_origin c nl i =
  let devs = Netlist.devices nl in
  if i < Mna.n_nodes c then
    List.fold_left
      (fun acc d ->
        if List.exists (fun (_, nd) -> nd = i) (Device.terminals d) then
          match (acc, Device.origin d) with
          | None, o -> o
          | Some a, Some l -> Some (min a l)
          | Some _, None -> acc
        else acc)
      None devs
  else
    let label = scan_label c nl i in
    List.fold_left
      (fun acc d -> if Printf.sprintf "i(%s)" (Device.name d) = label then Device.origin d else acc)
      None devs

let test_unknown_attribution () =
  let rlc =
    "* rlc\nV1 a 0 DC 1\nR1 a b 1\nL1 b c 1n\nC1 c 0 1p\nL2 c d 1n\nR2 d 0 50\n\
     V2 e 0 DC 2\nR3 e d 1k\n.end\n"
  in
  (* a repeated name: its branch lookup resolves to the first device *)
  let twin = "* twin\nV1 a 0 DC 1\nR1 a b 1k\nV1 b 0 DC 2\n.end\n" in
  let decks =
    rlc :: twin
    :: List.map
         (fun f -> In_channel.with_open_bin ("../examples/decks/" ^ f) In_channel.input_all)
         [ "lowpass.cir"; "mos_amp.cir"; "rectifier.cir"; "hard_dc.cir"; "bad/underdet.cir" ]
  in
  List.iter
    (fun text ->
      let nl, _ = Deck.parse_string text in
      let c = Mna.build nl in
      for i = 0 to Mna.size c do
        Alcotest.(check string) "label" (scan_label c nl i) (Mna.unknown_label c i);
        Alcotest.(check (option int)) (Mna.unknown_label c i) (scan_origin c nl i)
          (Mna.unknown_origin c i)
      done;
      List.iter
        (fun d ->
          let name = Device.name d in
          let first = ref None in
          for i = Mna.size c - 1 downto Mna.n_nodes c do
            if scan_label c nl i = "i(" ^ name ^ ")" then first := Some i
          done;
          Alcotest.(check (option int)) ("branch of " ^ name) !first (Mna.branch_index c name))
        (Netlist.devices nl))
    decks

let test_islands_order () =
  (* two floating islands whose members interleave in node order (the
     nodes are numbered up front: a device card numbers its own nodes in
     no promised order) *)
  let nl = Netlist.create () in
  List.iter (fun n -> ignore (Netlist.node nl n)) [ "in"; "a"; "b"; "c"; "d"; "e" ];
  Netlist.vsource nl "V1" "in" "0" (Wave.Dc 1.0);
  Netlist.resistor nl "R0" "in" "0" 1e3;
  Netlist.resistor nl "R1" "a" "c" 1e3;
  Netlist.resistor nl "R2" "b" "d" 1e3;
  Netlist.resistor nl "R3" "e" "a" 1e3;
  Alcotest.(check (list (option string)))
    "islands by lowest member" [ Some "a, c, e"; Some "b, d" ]
    (List.map (fun d -> d.Diagnostic.subject) (Checks.floating_nodes nl))

(* ---------------------------------------------------------- oracles -- *)

(* plain Kuhn: an augmenting-path DFS from every row in turn *)
let kuhn a =
  let nr = Sp.rows a and nc = Sp.cols a in
  let row_ptr, col_idx, _ = Sp.csr a in
  let row_match = Array.make nr (-1) and col_match = Array.make nc (-1) in
  let seen = Array.make nc (-1) in
  let rec augment epoch i =
    let found = ref false and k = ref row_ptr.(i) in
    while (not !found) && !k < row_ptr.(i + 1) do
      let j = col_idx.(!k) in
      incr k;
      if seen.(j) <> epoch then begin
        seen.(j) <- epoch;
        if col_match.(j) < 0 || augment epoch col_match.(j) then begin
          row_match.(i) <- j;
          col_match.(j) <- i;
          found := true
        end
      end
    done;
    !found
  in
  let size = ref 0 in
  for i = 0 to nr - 1 do
    if augment i i then incr size
  done;
  (row_match, col_match, !size)

(* rows reachable by alternating paths from unmatched rows, and columns
   reachable from unmatched columns, by fixpoint iteration *)
let reach_sets a (row_match, col_match, _) =
  let nr = Sp.rows a and nc = Sp.cols a in
  let entries = ref [] in
  Sp.iter (fun i j _ -> entries := (i, j) :: !entries) a;
  let rows = Array.init nr (fun i -> row_match.(i) < 0) in
  let cols = Array.init nc (fun j -> col_match.(j) < 0) in
  let grow () =
    List.fold_left
      (fun changed (i, j) ->
        let changed =
          if rows.(i) && col_match.(j) >= 0 && not rows.(col_match.(j)) then (
            rows.(col_match.(j)) <- true;
            true)
          else changed
        in
        if cols.(j) && row_match.(i) >= 0 && not cols.(row_match.(i)) then (
          cols.(row_match.(i)) <- true;
          true)
        else changed)
      false !entries
  in
  while grow () do
    ()
  done;
  let pick flags = List.filter (fun k -> flags.(k)) (List.init (Array.length flags) Fun.id) in
  (pick rows, pick cols)

(* minimum degree with a linear scan for each pivot over hash-set
   adjacency, ties toward the lowest index *)
let scan_amd n adj =
  let eliminated = Array.make n false in
  let degree = Array.init n (fun v -> Hashtbl.length adj.(v)) in
  Array.init n (fun _ ->
      let best = ref (-1) in
      for v = n - 1 downto 0 do
        if (not eliminated.(v)) && (!best < 0 || degree.(v) <= degree.(!best)) then best := v
      done;
      let v = !best in
      eliminated.(v) <- true;
      let nbrs = Hashtbl.fold (fun u () acc -> if eliminated.(u) then acc else u :: acc) adj.(v) [] in
      List.iter
        (fun u ->
          Hashtbl.remove adj.(u) v;
          List.iter
            (fun w ->
              if w <> u && not (Hashtbl.mem adj.(u) w) then begin
                Hashtbl.replace adj.(u) w ();
                Hashtbl.replace adj.(w) u ()
              end)
            nbrs;
          degree.(u) <- Hashtbl.length adj.(u))
        nbrs;
      v)

(* CSR pattern by sorting (row, column) tuples and dropping repeats *)
let tuple_pattern rows pairs =
  let arr = Array.of_list pairs in
  Array.sort compare arr;
  let row_ptr = Array.make (rows + 1) 0 in
  let cols = ref [] in
  Array.iteri
    (fun k (i, j) ->
      if k = 0 || arr.(k - 1) <> (i, j) then begin
        row_ptr.(i + 1) <- row_ptr.(i + 1) + 1;
        cols := j :: !cols
      end)
    arr;
  for i = 0 to rows - 1 do
    row_ptr.(i + 1) <- row_ptr.(i + 1) + row_ptr.(i)
  done;
  (row_ptr, Array.of_list (List.rev !cols))

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
    Test.make ~name:"struct: greedy+Kuhn matching agrees with plain Kuhn" ~count:400
      (make
         Gen.(
           int_range 1 10 >>= fun nr ->
           oneof [ return nr; int_range 1 10 ] >>= fun nc ->
           list_size (int_range 0 (3 * max nr nc))
             (pair (int_range 0 (nr - 1)) (int_range 0 (nc - 1)))
           >>= fun es -> return (nr, nc, es))
         ~print:Print.(triple int int (list (pair int int))))
      (fun (nr, nc, es) ->
        let a = ones nr nc es in
        let d = Dm.decompose a in
        let m = Dm.max_matching a in
        let ((_, _, size) as oracle) = kuhn a in
        let over, under = reach_sets a oracle in
        d.Dm.rank = size && m.Dm.size = size && d.Dm.over_rows = over
        && d.Dm.under_cols = under
        && Array.for_all (fun x -> x) (Array.mapi (fun i j -> j < 0 || m.Dm.col_match.(j) = i) m.Dm.row_match));
    Test.make ~name:"struct: heap AMD agrees with the linear-scan AMD" ~count:300
      (make
         Gen.(
           int_range 1 30 >>= fun n ->
           list_size (int_range 0 (4 * n)) (pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
           >>= fun es -> return (n, es))
         ~print:Print.(pair int (list (pair int int))))
      (fun (n, es) ->
        let a = ones n n es in
        let adj = Array.init n (fun _ -> Hashtbl.create 4) in
        List.iter
          (fun (i, j) ->
            if i <> j then begin
              Hashtbl.replace adj.(i) j ();
              Hashtbl.replace adj.(j) i ()
            end)
          es;
        Amd.order a = scan_amd n adj);
    Test.make ~name:"csr: pattern_of_pairs matches a tuple sort" ~count:300
      (make
         Gen.(
           int_range 1 8 >>= fun rows ->
           int_range 1 8 >>= fun cols ->
           list_size (int_range 0 40) (pair (int_range 0 (rows - 1)) (int_range 0 (cols - 1)))
           >>= fun ps -> return (rows, cols, ps))
         ~print:Print.(triple int int (list (pair int int))))
      (fun (rows, cols, ps) ->
        let pi = Array.of_list (List.map fst ps) and pj = Array.of_list (List.map snd ps) in
        Rfkit_la.Csr.pattern_of_pairs "test" ~rows ~cols pi pj (List.length ps)
        = tuple_pattern rows ps);
    Test.make ~name:"netlist: node indices follow first use and round-trip" ~count:300
      (make
         Gen.(list_size (int_range 0 60) (oneofl [ "a"; "b"; "n1"; "N1"; "x_7"; "0"; "gnd"; "GND"; "out"; "in" ]))
         ~print:Print.(list string))
      (fun names ->
        let is_ground n = n = "0" || String.lowercase_ascii n = "gnd" in
        let nl = Netlist.create () in
        let idx = List.map (Netlist.node nl) names in
        let firsts =
          List.fold_left
            (fun acc n -> if is_ground n || List.mem n acc then acc else acc @ [ n ])
            [] names
        in
        let expect n =
          if is_ground n then Netlist.gnd
          else
            let rec find k = function
              | x :: rest -> if x = n then k else find (k + 1) rest
              | [] -> -2
            in
            find 0 firsts
        in
        idx = List.map expect names
        && Netlist.node_count nl = List.length firsts
        && List.for_all2 (fun n i -> Netlist.find_node nl n = Some i) names idx
        && List.for_all
             (fun n -> Netlist.node_name nl (expect n) = n)
             firsts
        && Netlist.node_name nl Netlist.gnd = "gnd"
        && Netlist.find_node nl "never-used" = None);
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
        tc "ordering permutations pinned" test_perm_pins;
      ] );
    ( "struct.lint",
      [
        tc "underdet deck line attribution" test_underdet_deck_lines;
        tc "L023 fires on I-source into inductor" test_l023_index2_warning;
        tc "L023 silent on RC" test_l023_not_on_rc;
        tc "unknown labels and origins" test_unknown_attribution;
        tc "floating islands by lowest member" test_islands_order;
      ] );
    ( "struct.preflight",
      [
        tc "dc rejects before factorizing" test_dc_preflight_rejects;
        tc "tran rejects on the union pattern" test_tran_preflight_rejects;
      ] );
    ("struct.properties", List.map QCheck_alcotest.to_alcotest qcheck_suite);
  ]
