(* Generator tests: one seed gives the same bytes, every generated deck
   lints clean, and two seeds give the same amount of work. *)

open Rfkit
open Rfkit_circuit
open Rfbench

let check name ok =
  if not ok then begin
    Printf.eprintf "test_gen: FAIL %s\n" name;
    exit 1
  end

let decks seed =
  let rng = Prng.make ~stream:1 seed in
  let ladder = Gen.ladder rng ~stages:40 in
  let mesh = Gen.mesh rng ~nx:6 ~ny:5 in
  let rng = Prng.make ~stream:2 seed in
  let chain = Gen.diode_chain rng ~stages:5 ~freq:10e6 in
  [ ("ladder", ladder.Gen.text); ("mesh", mesh.Gen.text); ("chain", chain.Gen.text) ]

let sweeps seed = Gen.sweep_mix (Prng.make ~stream:3 seed) ~points:2

(* the work a deck implies: unknowns, matrix pattern size, device count *)
let shape text =
  let nl, _ = Deck.parse_string_located text in
  let c = Mna.build nl in
  let x = La.Vec.create (Mna.size c) in
  ( Mna.size c,
    La.Sparse.nnz (La.Sparse.add (Mna.jac_g_sparse c x) (Mna.jac_c_sparse c x)),
    List.length (Netlist.devices nl) )

let jobs (s : Gen.sweep) =
  Batch.Expand.count
    ~axes:(List.map Batch.Spec.parse_axis s.Gen.axes)
    ~corners:(List.map Batch.Spec.parse_corner s.Gen.corners)
    ~analyses:(Batch.Spec.parse_analyses s.Gen.defaults s.Gen.analyses)

(* every job of a sweep is distinct, so a cold pass never serves one job
   from another's cache entry (that would make its work depend on timing) *)
let distinct_jobs (s : Gen.sweep) =
  let jobs =
    Batch.Expand.expand
      ~axes:(List.map Batch.Spec.parse_axis s.Gen.axes)
      ~corners:(List.map Batch.Spec.parse_corner s.Gen.corners)
      ~analyses:(Batch.Spec.parse_analyses s.Gen.defaults s.Gen.analyses)
  in
  let ids =
    List.map
      (fun (j : Batch.Expand.job) ->
        (Batch.Expand.params_json j.Batch.Expand.params, Batch.Spec.analysis_tag j.Batch.Expand.analysis))
      jobs
  in
  List.length (List.sort_uniq compare ids) = List.length ids

let lint_clean ?overrides text =
  let nl, located = Deck.parse_string_located ?overrides text in
  Lint.run nl located = []

let () =
  check "same seed, same bytes" (decks 7 = decks 7 && sweeps 7 = sweeps 7);
  check "seeds differ" (decks 7 <> decks 8);
  List.iter
    (fun seed ->
      List.iter (fun (name, text) -> check (name ^ " lints clean") (lint_clean text)) (decks seed);
      List.iter
        (fun (s : Gen.sweep) ->
          let axes = List.map Batch.Spec.parse_axis s.Gen.axes in
          let overrides = List.map (fun a -> (a.Batch.Spec.a_name, a.Batch.Spec.a_values.(0))) axes in
          check (s.Gen.name ^ " lints clean") (lint_clean ~overrides s.Gen.deck);
          check (s.Gen.name ^ " jobs distinct") (distinct_jobs s))
        (sweeps seed))
    [ 1; 2; 3 ];
  List.iter2
    (fun (name, a) (_, b) -> check (name ^ " work independent of seed") (shape a = shape b))
    (decks 11) (decks 12);
  List.iter2
    (fun a b -> check (a.Gen.name ^ " job count independent of seed") (jobs a = jobs b))
    (sweeps 11) (sweeps 12);
  check "optimize problem is fixed" (Gen.opt_vars = Gen.opt_vars && Gen.opt_spec = Gen.opt_spec)
