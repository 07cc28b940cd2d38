(* EXP-SETUP -- the front end scales linearly with the deck.

   Post-layout extraction (the paper's Section 4) turns a layout into
   RC netlists with tens of thousands of nodes, so everything that runs
   before the first solve -- parse, lint, MNA build and the fill-reducing
   ordering -- must stay linear (or n log n) in the deck size. This
   experiment times those stages on generated RC ladders at 4k..64k
   nodes, and one sparse G-Jacobian stamp on RLC ladders at 1k..8k
   inductors (every inductor and voltage source looks up its branch
   unknown on each stamp). The ladders come in two numberings: scrambled
   (node names and card order shuffled) and in order (cards along the
   ladder, so node k is the k-th stage). The in-order numbering is the
   one that made plain Kuhn matching quadratic: every row's lowest
   column belongs to the previous stage, so each augmenting path
   reroutes the whole chain. Each stage is timed as the best of five runs
   on a settled heap. A doubling of n may cost at most 2.5x: linear work
   doubles, quadratic work quadruples. *)

open Rfkit
open Rfkit_circuit

(* deterministic shuffle so node numbering and card order are not the
   topological order *)
let shuffle seed arr =
  let s = ref seed in
  for i = Array.length arr - 1 downto 1 do
    s := ((!s * 1103515245) + 12345) land 0x3FFFFFFF;
    let j = !s mod (i + 1) in
    let t = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- t
  done

(* [cards] come in reverse order *)
let deck ?(scramble = true) ~title cards =
  let cards = Array.of_list (List.rev cards) in
  if scramble then shuffle 7 cards;
  String.concat "\n" ((("* " ^ title) :: Array.to_list cards) @ [ ".tran 1u 1n"; ".end"; "" ])

let names ?(scramble = true) prefix n =
  let perm = Array.init n Fun.id in
  if scramble then shuffle 3 perm;
  fun k -> Printf.sprintf "%s%d" prefix perm.(k)

(* one series R and one shunt C per node, driven at one end *)
let rc_ladder ?(scramble = true) n =
  let nm = names ~scramble "n" n in
  let cards = ref [ "RIN in " ^ nm 0 ^ " 50"; "V1 in 0 DC 1" ] in
  for k = 0 to n - 1 do
    cards := Printf.sprintf "C%d %s 0 50f" k (nm k) :: !cards;
    if k < n - 1 then cards := Printf.sprintf "R%d %s %s 20" k (nm k) (nm (k + 1)) :: !cards
  done;
  deck ~scramble ~title:(Printf.sprintf "rc ladder, %d nodes" n) !cards

(* [l] sections of series R + L with a shunt C: 2l + 1 nodes, l + 1
   branch unknowns *)
let rlc_ladder l =
  let nm = names "m" ((2 * l) + 1) in
  let cards = ref [ "V1 " ^ nm 0 ^ " 0 DC 1" ] in
  for k = 0 to l - 1 do
    let a = nm (2 * k) and b = nm ((2 * k) + 1) and c = nm ((2 * k) + 2) in
    cards :=
      Printf.sprintf "C%d %s 0 1p" k c
      :: Printf.sprintf "L%d %s %s 1n" k b c
      :: Printf.sprintf "R%d %s %s 1" k a b
      :: !cards
  done;
  deck ~title:(Printf.sprintf "rlc ladder, %d inductors" l) !cards

(* each run starts from a settled heap, so one run does not pay for the
   previous run's garbage *)
let best_of k f =
  let best = ref Float.infinity in
  for _ = 1 to k do
    Gc.full_major ();
    let _, t = Util.timed f in
    best := Float.min !best t
  done;
  !best

let setup_times ~scramble n =
  let text = rc_ladder ~scramble n in
  let parse () = Deck.parse_string_located text in
  let nl, located = parse () in
  let t_parse = best_of 5 parse in
  let t_lint = best_of 5 (fun () -> Lint.run nl located) in
  let t_order =
    best_of 5 (fun () ->
        let c = Mna.build nl in
        Mna.set_ordering c Rfkit_struct.Order.Btf_amd;
        Mna.ordering_perm c)
  in
  (t_parse, t_lint, t_order)

let stamp_time l =
  let nl, _ = Deck.parse_string (rlc_ladder l) in
  let c = Mna.build nl in
  let x = La.Vec.create (Mna.size c) in
  ignore (Mna.jac_g_sparse c x);
  let calls = 20 in
  best_of 5 (fun () ->
      for _ = 1 to calls do
        ignore (Mna.jac_g_sparse c x)
      done)
  /. float_of_int calls

(* cost ratio of each doubling, and the growth per doubling fitted by
   least squares to log t against log n over the whole series: on a
   shared host one timing can be off by a third, which moves a single
   ratio far more than the fit *)
let ratios ts = List.map2 (fun a b -> b /. a) (List.filteri (fun i _ -> i < List.length ts - 1) ts) (List.tl ts)

let fitted_growth ns ts =
  let xs = List.map (fun n -> Float.log2 (float_of_int n)) ns and ys = List.map Float.log2 ts in
  let mean l = List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l) in
  let mx = mean xs and my = mean ys in
  let sxy = List.fold_left2 (fun a x y -> a +. ((x -. mx) *. (y -. my))) 0.0 xs ys in
  let sxx = List.fold_left (fun a x -> a +. ((x -. mx) *. (x -. mx))) 0.0 xs in
  2.0 ** (sxy /. sxx)

let ms t = Printf.sprintf "%.1f ms" (1e3 *. t)

let scaling_verdict label ns ts =
  let growth = fitted_growth ns ts in
  Util.verdict ~label ~paper:"<= 2.5x"
    ~measured:
      (Printf.sprintf "%.2fx fit (%s)" growth
         (String.concat " " (List.map (Printf.sprintf "%.2f") (ratios ts))))
    ~ok:(growth <= 2.5)

let sizes = [ 4_000; 8_000; 16_000; 32_000; 64_000 ]
let inductors = [ 1_000; 2_000; 4_000; 8_000 ]

let report () =
  Util.section "EXP-SETUP | front-end scaling: parse, lint, ordering, branch stamps";
  let series scramble =
    Printf.printf "  rc ladder, %s numbering\n" (if scramble then "scrambled" else "in-order");
    Printf.printf "  %-10s %-12s %-12s %-12s\n" "nodes" "parse" "lint" "mna+btf-amd";
    List.map
      (fun n ->
        let ((p, l, o) as row) = setup_times ~scramble n in
        Printf.printf "  %-10d %-12s %-12s %-12s\n%!" n (ms p) (ms l) (ms o);
        row)
      sizes
  in
  let scrambled = series true in
  let in_order = series false in
  Printf.printf "  %-10s %-12s\n" "inductors" "jac_g_sparse";
  let stamps =
    List.map
      (fun l ->
        let t = stamp_time l in
        Printf.printf "  %-10d %-12s\n%!" l (Printf.sprintf "%.3f ms" (1e3 *. t));
        t)
      inductors
  in
  List.iter
    (fun (numbering, rows) ->
      scaling_verdict ("parse, " ^ numbering) sizes (List.map (fun (p, _, _) -> p) rows);
      scaling_verdict ("lint, " ^ numbering) sizes (List.map (fun (_, l, _) -> l) rows);
      scaling_verdict ("ordering, " ^ numbering) sizes (List.map (fun (_, _, o) -> o) rows))
    [ ("scrambled", scrambled); ("in-order", in_order) ];
  scaling_verdict "jac_g_sparse per inductor doubling" inductors stamps

let bench_tests =
  [
    Bechamel.Test.make ~name:"setup.parse_lint_order_4k"
      (Bechamel.Staged.stage
         (let text = rc_ladder 4_000 in
          fun () ->
            let nl, located = Deck.parse_string_located text in
            ignore (Lint.run nl located);
            let c = Mna.build nl in
            Mna.set_ordering c Rfkit_struct.Order.Btf_amd;
            ignore (Mna.ordering_perm c)));
  ]
