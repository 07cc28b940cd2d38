(* One analysis pipeline: pre-flight plus one table of analyses, shared
   by rfsim's one-shot subcommands, the sweep runner and the service, so
   an analysis answers the same offline, swept and served by
   construction. Callers only choose how to render a refusal or a
   result. *)

open Rfkit_circuit
module La = Rfkit_la
module Rf = Rfkit_rf
module Lint = Rfkit_lint
module Sup = Rfkit_solve.Supervisor
module Cascade = Rfkit_solve.Cascade
module Certify = Rfkit_solve.Certify

(* ---------------------------------------------------------- pre-flight -- *)

type deck = {
  netlist : Netlist.t;
  directives : (int * Deck.directive) list;
  diagnostics : Rfkit_lint.Diagnostic.t list;
}

type refusal =
  | Unreadable of string
  | Parse_failed of { line : int; msg : string }
  | Lint_fatal of Rfkit_lint.Diagnostic.t list

let read_deck path =
  try
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> Ok (really_input_string ic (in_channel_length ic)))
  with Sys_error msg -> Error (Unreadable msg)

let prepare ?overrides ~lint text =
  match Deck.parse_string_located ?overrides text with
  | exception Deck.Parse_error (line, msg) -> Error (Parse_failed { line; msg })
  | netlist, directives ->
      let diagnostics = if lint then Lint.run netlist directives else [] in
      if Lint.has_errors diagnostics then Error (Lint_fatal diagnostics)
      else Ok { netlist; directives; diagnostics }

let refusal_to_string = function
  | Unreadable msg -> msg
  | Parse_failed { line; msg } -> Printf.sprintf "deck line %d: %s" line msg
  | Lint_fatal ds -> Lint.summary ds

let circuit ?(ordering = Rfkit_struct.Order.Natural) deck =
  let c = Mna.build deck.netlist in
  Mna.set_ordering c ordering;
  c

(* ------------------------------------------------------------- ledger -- *)

type ledger = {
  lu_full : int;
  lu_refactor : int;
  fill_nnz : int;
  clu_full : int;
  clu_refactor : int;
  clu_fill_nnz : int;
}

let ledger () =
  let lu_refactor, lu_full = La.Sparse_lu.counts () in
  let clu_refactor, clu_full = La.Csparse_lu.counts () in
  {
    lu_full;
    lu_refactor;
    fill_nnz = La.Sparse_lu.fill_nnz ();
    clu_full;
    clu_refactor;
    clu_fill_nnz = La.Csparse_lu.fill_nnz ();
  }

let reset_ledger () =
  La.Sparse_lu.reset_counts ();
  La.Csparse_lu.reset_counts ()

(* -------------------------------------------------------------- table -- *)

type status = Ok | Suspect | Failed

type _ request =
  | Dc : La.Vec.t request
  | Ac : { source : string option; freqs : float array } -> Ac.result request
  | Noise : { node : string; freqs : float array } -> float array request
  | Tran : { t_stop : float; dt : float } -> Tran.result request
  | Hb : {
      freq : float option;
      harmonics : int;
      solver : Rf.Hb.linear_solver;
    }
      -> Rf.Hb.result request
  | Pss : { freq : float option; harmonics : int } -> Rf.Pss.solution request
  | Shooting : { freq : float option; steps : int } -> Rf.Shooting.result request
  | Mmft : { f1 : float; f2 : float; slow_harmonics : int } -> Rf.Mmft.result request

type failure = Engine of Sup.failure | Chain of Cascade.failure

type 'a converged = {
  value : 'a;
  engine : string;
  report : Sup.report;
  chain : Cascade.report option;
  certificate : Certify.certificate option;
  newton : int;
  krylov : int;
  ledger : ledger;
}

type 'a outcome = Converged of 'a converged | Failed of failure

(* a request the deck cannot serve fails before any engine runs *)
let unsupported ~engine msg =
  Failed
    (Engine
       { Sup.f_engine = engine; cause = Sup.Unsupported msg; f_attempts = []; f_elapsed = 0.0 })

let with_freq ~engine c freq k =
  match freq with
  | Some f -> k f
  | None -> (
      match Mna.fundamentals c with
      | f :: _ -> k f
      | [] -> unsupported ~engine "no periodic source in the deck (supply --freq)")

let with_source c source k =
  let is_source name = function
    | Device.Vsource { name = n; _ } | Device.Isource { name = n; _ } -> n = name
    | _ -> false
  in
  let devices = Netlist.devices (Mna.netlist c) in
  match source with
  | Some name when List.exists (is_source name) devices -> k name
  | Some name -> unsupported ~engine:"ac" ("no source " ^ name ^ " in deck")
  | None -> (
      match List.find_opt (function Device.Vsource _ -> true | _ -> false) devices with
      | Some d -> k (Device.name d)
      | None -> unsupported ~engine:"ac" "no voltage source in deck")

(* the output node must exist: resolved before any engine runs, instead
   of failing (or reading the wrong unknown) after it *)
let with_node ~engine c node k =
  match Option.iter (fun name -> ignore (Mna.node c name)) node with
  | () -> k ()
  | exception Not_found -> unsupported ~engine ("no node " ^ Option.get node ^ " in deck")

(* [counted] is false for the direct linearized solves, whose report
   counts frequencies, not Newton iterations; [chain] is the cascade's
   report when the value came out of the PSS cascade *)
let converged ?(counted = true) ?chain ?certify ?check value (report : Sup.report) =
  let ledger = ledger () in
  let certificate =
    match (check, certify) with
    | Some check, Some tol_scale -> Some (check ~tol_scale value)
    | _ -> None
  in
  let counted n = if counted then n else 0 in
  Converged
    {
      value;
      engine = (match chain with Some r -> r.Cascade.winner | None -> report.Sup.engine);
      report;
      chain;
      certificate;
      newton =
        (match chain with
        | Some r -> r.Cascade.total_iterations
        | None -> counted report.Sup.total_iterations);
      krylov = counted report.Sup.stats.Sup.krylov_iterations;
      ledger;
    }

let single ?counted ?certify ?check = function
  | Sup.Failed f -> Failed (Engine f)
  | Sup.Converged (value, report) -> converged ?counted ?certify ?check value report

let pss_check ~tol_scale sol = Rf.Pss.certify ~tol_scale sol

let engine_of : type a. a request -> string = function
  | Dc -> "dc"
  | Ac _ -> "ac"
  | Noise _ -> "ac-noise"
  | Tran _ -> "tran"
  | Hb _ | Pss _ -> "hb"
  | Shooting _ -> "shooting"
  | Mmft _ -> "mmft"

let analyze : type a. ?budget:Sup.budget -> ?certify:float -> Mna.t -> a request -> a outcome
    =
 fun ?budget ?certify c request ->
  match request with
  | Dc ->
      single ?certify
        ~check:(fun ~tol_scale x -> Dc.certify ~tol_scale c x)
        (Dc.solve_outcome ?budget c)
  | Ac { source; freqs } ->
      with_source c source (fun source ->
          single ~counted:false (Ac.sweep_outcome c ~source ~freqs))
  | Noise { node; freqs } ->
      single ~counted:false (Ac.output_noise_outcome c ~node ~freqs)
  | Tran { t_stop; dt } ->
      single ?certify
        ~check:(fun ~tol_scale r -> Tran.certify ~tol_scale c r)
        (Tran.run_outcome ?budget c ~t_stop ~dt)
  | Hb { freq; harmonics; solver } ->
      with_freq ~engine:"hb" c freq (fun freq ->
          let options =
            { Rf.Hb.default_options with n_samples = La.Fft.next_pow2 (4 * harmonics); solver }
          in
          single ?certify
            ~check:(fun ~tol_scale r -> pss_check ~tol_scale (Rf.Pss.of_hb r))
            (Rf.Hb.solve_outcome ?budget ~options c ~freq))
  | Pss { freq; harmonics } ->
      with_freq ~engine:"hb" c freq (fun freq ->
          let chain = Rf.Pss.default_chain ~n_samples:(La.Fft.next_pow2 (4 * harmonics)) () in
          match Rf.Pss.solve_outcome ?budget ~chain c ~freq with
          | Cascade.Exhausted f -> Failed (Chain f)
          | Cascade.Completed (value, rep) ->
              converged ~chain:rep ?certify ~check:pss_check value
                rep.Cascade.winner_report)
  | Shooting { freq; steps } ->
      with_freq ~engine:"shooting" c freq (fun freq ->
          let options = { Rf.Shooting.default_options with steps_per_period = steps } in
          single ?certify
            ~check:(fun ~tol_scale r -> pss_check ~tol_scale (Rf.Pss.of_shooting r))
            (Rf.Shooting.solve_outcome ?budget ~options c ~freq))
  | Mmft { f1; f2; slow_harmonics } ->
      let options = { Rf.Mmft.default_options with slow_harmonics } in
      single (Rf.Mmft.solve_outcome ?budget ~options c ~f1 ~f2)

let run : type a.
    ?budget:Sup.budget -> ?certify:float -> ?node:string -> Mna.t -> a request -> a outcome =
 fun ?budget ?certify ?node c request ->
  (* every job counts only its own factorizations, none if it is refused *)
  reset_ledger ();
  let node = match request with Noise { node; _ } -> Some node | _ -> node in
  with_node ~engine:(engine_of request) c node (fun () ->
      analyze ?budget ?certify c request)

let status : type a. a outcome -> status = function
  | Failed _ -> Failed
  | Converged { certificate = Some cert; _ } when not (Certify.is_certified cert) -> Suspect
  | Converged _ -> Ok

let failure_cause = function
  | Engine f -> f.Sup.cause
  | Chain f -> f.Cascade.x_cause

let failure_iterations = function
  | Engine f -> Cascade.failure_iterations f
  | Chain f -> f.Cascade.x_total_iterations
