(* The closed design loop: candidate point -> .param overrides -> one
   sweep job through [Runner.run_one] -> measure extraction -> spec
   score -> optimizer step.

   Every candidate is an ordinary cached sweep job: the content-
   addressed cache makes revisited points free (an optimizer polishing
   near an optimum revisits constantly, and a warm rerun of the whole
   optimization is nearly all hits), and the run journal makes a killed
   optimization resumable — the eval sequence is deterministic, so eval
   [i] is job id [i] in this run and in every rerun, and journal replay
   slots straight into the trajectory.

   Determinism contract: the trace emitted per eval carries no
   wall-clock and no cache provenance, so a cold and a warm run of the
   same optimization produce byte-identical stdout. Timings and
   cache-hit telemetry live in the JSONL telemetry log only. *)

module Bspec = Rfkit_batch.Spec
module Expand = Rfkit_batch.Expand
module Runner = Rfkit_batch.Runner
module Json = Rfkit_batch.Json
module Hash = Rfkit_batch.Hash
module Deadline = Rfkit_solve.Deadline

type var = { v_name : string; v_lo : float; v_hi : float; v_init : float }
type algo = Nelder_mead | Pattern_search

let algo_to_string = function
  | Nelder_mead -> "nelder-mead"
  | Pattern_search -> "pattern"

let algo_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "nelder-mead" | "nm" | "simplex" -> Some Nelder_mead
  | "pattern" | "pattern-search" | "compass" -> Some Pattern_search
  | _ -> None

exception Parse_error = Measure.Parse_error

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

let number = Measure.number

let parse_var s =
  let s = String.trim s in
  match String.index_opt s '=' with
  | None -> fail "variable %S: expected NAME=LO:HI[:INIT]" s
  | Some i ->
      let name = String.trim (String.sub s 0 i) in
      if name = "" then fail "variable %S: empty name" s;
      let range = String.sub s (i + 1) (String.length s - i - 1) in
      let lo, hi, init =
        match String.split_on_char ':' range with
        | [ lo; hi ] ->
            let lo = number ~what:"variable lower bound" lo
            and hi = number ~what:"variable upper bound" hi in
            (lo, hi, 0.5 *. (lo +. hi))
        | [ lo; hi; init ] ->
            ( number ~what:"variable lower bound" lo,
              number ~what:"variable upper bound" hi,
              number ~what:"variable initial value" init )
        | _ -> fail "variable %S: expected NAME=LO:HI[:INIT]" s
      in
      if not (lo < hi) then fail "variable %s: bounds must satisfy LO < HI" name;
      if not (init >= lo && init <= hi) then
        fail "variable %s: initial value %.9g outside [%.9g, %.9g]" name init lo hi;
      { v_name = name; v_lo = lo; v_hi = hi; v_init = init }

(* ------------------------------------------------------------- evals -- *)

type eval = {
  e_index : int;  (** eval number = sweep job id, 0-based *)
  e_params : (string * float) list;
  e_status : string;
  e_cached : bool;
  e_measures : (string * float option) list;
  e_score : Spec.score;
}

type outcome = {
  o_result : Optim.result option;
  o_evals : int;
  o_best : eval option;
  o_interrupted : bool;
}

let trace_line e =
  Json.obj
    [
      ("eval", Json.int e.e_index);
      ("params", Expand.params_json e.e_params);
      ("status", Json.str e.e_status);
      ("penalty", Json.num e.e_score.Spec.penalty);
      ("met", Json.bool e.e_score.Spec.met);
      ( "measures",
        Json.obj
          (List.map
             (fun (k, v) ->
               (k, match v with None -> "null" | Some x -> Json.num x))
             e.e_measures) );
    ]

(* the run identity for journal/resume: everything that shapes the eval
   trajectory EXCEPT the eval budget, so an interrupted run can be
   resumed with a bigger budget and still find its journal *)
let run_hash (cfg : Runner.config) ~spec ~analysis ~algo
    ~(options : Optim.options) ~weight vars =
  let probe =
    {
      Expand.id = 0;
      corner = "opt";
      params =
        List.sort compare (List.map (fun v -> (v.v_name, v.v_init)) vars);
      analysis;
    }
  in
  Hash.digest
    (String.concat "\n"
       ([
          "optimize-v1";
          Runner.job_key cfg probe;
          "algo=" ^ algo_to_string algo;
          Printf.sprintf "tol=%.17g:%.17g:%.17g" options.Optim.tol_x
            options.Optim.tol_f options.Optim.init_step;
          Printf.sprintf "weight=%.17g" weight;
        ]
       @ List.map
           (fun v ->
             Printf.sprintf "var=%s=%.17g:%.17g:%.17g" v.v_name v.v_lo v.v_hi
               v.v_init)
           vars
       @ List.map (fun s -> "spec=" ^ s) (Spec.to_strings spec)))

exception Stopped

(* met-first, then lower penalty, then earlier eval: the point we report
   (and exit-code on) is a spec-met point whenever one was visited, even
   if an infeasible point scored a numerically lower penalty *)
let better (a : eval) (b : eval) =
  if a.e_score.Spec.met <> b.e_score.Spec.met then a.e_score.Spec.met
  else a.e_score.Spec.penalty < b.e_score.Spec.penalty

let run (cfg : Runner.config) ~cache ~telemetry ?journal ?replay
    ?(emit = fun _ -> ()) ~spec ?(weight = Spec.default_weight)
    ?(algo = Nelder_mead) ?(options = Optim.default_options) ~analysis vars =
  if vars = [] then invalid_arg "Loop.run: no variables";
  Deadline.set_interrupt_action Deadline.Note;
  let vars_a = Array.of_list vars in
  let n = Array.length vars_a in
  let measures = Spec.measures spec in
  let count = ref 0 in
  let best = ref None in
  let last_met = ref false in
  let evaluate x =
    if Deadline.interrupt_requested () then raise Stopped;
    let params =
      List.sort
        (fun (a, _) (b, _) -> compare a b)
        (List.init n (fun i -> (vars_a.(i).v_name, x.(i))))
    in
    let job = { Expand.id = !count; corner = "opt"; params; analysis } in
    incr count;
    match Runner.run_one cfg ~cache ~telemetry ?journal ?replay job with
    | None -> raise Stopped (* killed by the drain clamp *)
    | Some r ->
        let payload = Json.parse r.Runner.payload in
        let looked =
          List.map
            (fun m ->
              (m, Option.bind payload (fun p -> Measure.eval m p)))
            measures
        in
        let lookup m = Option.join (List.assoc_opt m looked) in
        let sc = Spec.score ~weight spec lookup in
        let e =
          {
            e_index = job.Expand.id;
            e_params = params;
            e_status = Runner.status_name r.Runner.status;
            e_cached = r.Runner.cached || r.Runner.replayed;
            e_measures =
              List.map (fun (m, v) -> (Measure.to_string m, v)) looked;
            e_score = sc;
          }
        in
        (match !best with
        | Some b when not (better e b) -> ()
        | _ -> best := Some e);
        last_met := sc.Spec.met;
        (* cache provenance and per-eval score go to telemetry only —
           never the trace, which must not depend on cache warmth *)
        Rfkit_batch.Telemetry.emit telemetry ~job:e.e_index ~event:"opt-eval"
          [
            ("penalty", Json.num sc.Spec.penalty);
            ("met", Json.bool sc.Spec.met);
            ("cached", Json.bool e.e_cached);
          ];
        emit (trace_line e);
        sc.Spec.penalty
  in
  (* spec-met early exit: meaningless under an open-ended minimize /
     maximize goal (always more to gain), decisive otherwise *)
  let stop_when _ =
    !last_met
    &&
    match spec.Spec.goal with
    | Some (Spec.Minimize _ | Spec.Maximize _) -> false
    | _ -> true
  in
  let lo = Array.map (fun v -> v.v_lo) vars_a
  and hi = Array.map (fun v -> v.v_hi) vars_a
  and x0 = Array.map (fun v -> v.v_init) vars_a in
  match
    match algo with
    | Nelder_mead -> Optim.nelder_mead ~options ~stop_when ~lo ~hi ~f:evaluate x0
    | Pattern_search ->
        Optim.pattern_search ~options ~stop_when ~lo ~hi ~f:evaluate x0
  with
  | result ->
      {
        o_result = Some result;
        o_evals = !count;
        o_best = !best;
        o_interrupted = false;
      }
  | exception Stopped ->
      { o_result = None; o_evals = !count; o_best = !best; o_interrupted = true }
