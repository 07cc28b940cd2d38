(* Compare the parent and change sides of a benchmark record.

     compare.exe [--check] BENCH.json [BENCHMARK.json]

   A record (BENCH_*.json at the repo root) holds rfbench's raw output
   lines for both sides of a change: its [runs] list has one entry per
   run with [set], [workload], [side] ("parent" or "change"), [pair] and
   [metrics_line], the last stdout line of [rfbench/run.sh]. Only the
   runs of set "main" count. Per workload and end-to-end metric of
   BENCHMARK.json this prints the median and quartiles of each side, the
   change against the parent median, the pairs the change won, and then
   every metric worse than its bound.

   Medians and quartiles follow Python's statistics.median and
   statistics.quantiles (default exclusive method: cut i of 4 at
   position i (n + 1) / 4), the change is (change - parent) / parent of
   the medians, and a pair is won when the change is strictly better.

   With --check, the record's own [summary] block must equal the one
   recomputed here, field by field and float for float; any difference
   is printed and the exit code is 1. *)

module J = Rfkit_batch.Json

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("compare: " ^ s); exit 2) fmt

let read path =
  match J.parse (In_channel.with_open_bin path In_channel.input_all) with
  | Some v -> v
  | None -> die "%s: not a JSON document" path
  | exception Sys_error e -> die "%s" e

let field k v = match J.member k v with Some x -> x | None -> die "missing field %S" k
let num k v = match J.to_num (field k v) with Some f -> f | None -> die "%S: not a number" k
let text k v = match J.to_str (field k v) with Some s -> s | None -> die "%S: not a string" k
let items k v = match field k v with J.Arr l -> l | _ -> die "%S: not an array" k

type metric = { name : string; unit_ : string; better : string; bound : float }

let metrics benchmark =
  List.map
    (fun m -> { name = text "name" m; unit_ = text "unit" m; better = text "better" m;
                bound = num "bound" m })
    (items "end_to_end" benchmark)

let median v =
  let n = Array.length v in
  if n mod 2 = 1 then v.(n / 2) else (v.((n / 2) - 1) +. v.(n / 2)) /. 2.0

let quartile v i =
  let ld = Array.length v in
  if ld < 2 then v.(0)
  else
    let m = ld + 1 in
    let j = max 1 (min (ld - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((v.(j - 1) *. float_of_int (4 - delta)) +. (v.(j) *. float_of_int delta)) /. 4.0

(* the summary entries of one workload, in the record's field order *)
let summarize ms runs =
  let side s =
    List.filter (fun r -> text "side" r = s) runs
    |> List.sort (fun a b -> compare (num "pair" a) (num "pair" b))
  in
  let parent = side "parent" and change = side "change" in
  if List.length parent <> List.length change then die "unpaired runs";
  let line r = field "metrics_line" r in
  let total k rs = List.fold_left (fun acc r -> acc +. num k (line r)) 0.0 rs in
  let correct = List.for_all (fun r -> field "correct" (line r) = J.Bool true) runs in
  let per_metric m =
    let values rs = List.map (fun r -> num "value" (field m.name (field "metrics" (line r)))) rs in
    let p = values parent and c = values change in
    let wins =
      List.fold_left2
        (fun acc a b -> if (if m.better = "lower" then b < a else b > a) then acc + 1 else acc)
        0 p c
    in
    let sorted l = Array.of_list (List.sort Float.compare l) in
    let p = sorted p and c = sorted c in
    let pm = median p and cm = median c in
    ( m.name,
      J.Obj
        [ ("unit", J.Str m.unit_); ("better", J.Str m.better); ("bound", J.Num m.bound);
          ("parent_median", J.Num pm); ("parent_q1", J.Num (quartile p 1));
          ("parent_q3", J.Num (quartile p 3)); ("change_median", J.Num cm);
          ("change_q1", J.Num (quartile c 1)); ("change_q3", J.Num (quartile c 3));
          ("change_vs_parent", J.Num ((cm -. pm) /. pm));
          ("change_wins", J.Num (float_of_int wins)) ] )
  in
  J.Obj
    [ ("pairs", J.Num (float_of_int (List.length parent)));
      ("failed_parent", J.Num (total "failed" parent));
      ("failed_change", J.Num (total "failed" change));
      ("attempted_parent", J.Num (total "attempted" parent));
      ("attempted_change", J.Num (total "attempted" change));
      ("all_correct", J.Bool correct);
      ("metrics", J.Obj (List.map per_metric ms)) ]

let rec show = function
  | J.Num f -> Printf.sprintf "%.17g" f
  | J.Str s -> Printf.sprintf "%S" s
  | J.Bool b -> string_of_bool b
  | J.Null -> "null"
  | J.Arr l -> "[" ^ String.concat ", " (List.map show l) ^ "]"
  | J.Obj l -> "{" ^ String.concat ", " (List.map (fun (k, v) -> k ^ ": " ^ show v) l) ^ "}"

(* every leaf where two summaries disagree, by dotted path *)
let rec diff path a b =
  match (a, b) with
  | J.Obj fa, J.Obj fb ->
      let keys = List.sort_uniq compare (List.map fst fa @ List.map fst fb) in
      List.concat_map
        (fun k ->
          let p = if path = "" then k else path ^ "." ^ k in
          match (List.assoc_opt k fa, List.assoc_opt k fb) with
          | Some x, Some y -> diff p x y
          | Some x, None -> [ Printf.sprintf "%s: %s recomputed, absent in the record" p (show x) ]
          | None, Some y -> [ Printf.sprintf "%s: absent, record has %s" p (show y) ]
          | None, None -> [])
        keys
  | J.Num x, J.Num y when Float.equal x y -> []
  | x, y when x = y -> []
  | x, y -> [ Printf.sprintf "%s: recomputed %s, record has %s" path (show x) (show y) ]

let print_workload ms name s =
  let n k = num k s in
  Printf.printf "%s: %.0f pairs; failed %.0f of %.0f (parent), %.0f of %.0f (change)%s\n" name
    (n "pairs") (n "failed_parent") (n "attempted_parent") (n "failed_change")
    (n "attempted_change")
    (if field "all_correct" s = J.Bool true then "" else "; SOME RUNS INCORRECT");
  Printf.printf "  %-22s %-6s %-34s %-34s %8s %6s\n" "metric" "unit" "parent median [q1, q3]"
    "change median [q1, q3]" "change" "wins";
  List.filter_map
    (fun m ->
      let e = field m.name (field "metrics" s) in
      let side k =
        Printf.sprintf "%.4g [%.4g, %.4g]" (num (k ^ "_median") e) (num (k ^ "_q1") e)
          (num (k ^ "_q3") e)
      in
      let delta = num "change_vs_parent" e in
      let worse = if m.better = "lower" then delta > m.bound else delta < -.m.bound in
      Printf.printf "  %-22s %-6s %-34s %-34s %+7.1f%% %3.0f/%.0f%s\n" m.name m.unit_
        (side "parent") (side "change") (100.0 *. delta) (num "change_wins" e) (n "pairs")
        (if worse then "  WORSE" else "");
      if worse then
        Some
          (Printf.sprintf "%s %s %+.1f%% (bound %.0f%%, %s is better)" name m.name
             (100.0 *. delta) (100.0 *. m.bound) m.better)
      else None)
    ms

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let check = List.mem "--check" args in
  let record, benchmark =
    match List.filter (( <> ) "--check") args with
    | [ r ] -> (r, "BENCHMARK.json")
    | [ r; b ] -> (r, b)
    | _ -> die "usage: compare.exe [--check] BENCH.json [BENCHMARK.json]"
  in
  let record = read record and benchmark = read benchmark in
  let ms = metrics benchmark in
  let main = List.filter (fun r -> text "set" r = "main") (items "runs" record) in
  let summary =
    List.filter_map
      (fun w ->
        let w = text "name" w in
        match List.filter (fun r -> text "workload" r = w) main with
        | [] -> None
        | runs -> Some (w, summarize ms runs))
      (items "workloads" benchmark)
  in
  let worse = List.concat_map (fun (w, s) -> print_workload ms w s) summary in
  Printf.printf "worse than bound: %s\n"
    (if worse = [] then "none" else "\n  " ^ String.concat "\n  " worse);
  if check then
    match diff "summary" (J.Obj summary) (field "summary" record) with
    | [] -> print_endline "summary: reproduced exactly"
    | ds ->
        List.iter prerr_endline ds;
        exit 1
