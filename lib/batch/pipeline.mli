(** One analysis pipeline: the pre-flight and the analysis table shared by
    every [rfsim] analysis subcommand, the sweep {!Runner} and the
    service.

    {b Pre-flight.} {!prepare} parses a deck text with parameter
    overrides, lints it, and refuses it on an error-severity diagnostic.
    Callers render the {!refusal} their own way (the CLI prints the lint
    report and exits 1 or 2; the service answers a typed bad-request), but
    the decision is made here, once.

    {b Analysis table.} {!run} takes one typed {!request} per analysis,
    calls the engine with its option defaults, resolves the driving
    source and the fundamental, certifies the result a posteriori, and
    returns a typed {!outcome}. No engine failure leaves the table as an
    exception: every one is an [Engine] (one supervised engine) or a
    [Chain] (the PSS cascade) failure carrying its typed cause. *)

open Rfkit_circuit

(** {1 Pre-flight} *)

type deck = {
  netlist : Netlist.t;
  directives : (int * Deck.directive) list;  (** with their 1-based deck lines *)
  diagnostics : Rfkit_lint.Diagnostic.t list;
      (** lint findings that did not block the run (warnings, hints);
          [[]] when lint was skipped *)
}

type refusal =
  | Unreadable of string  (** the deck file could not be read *)
  | Parse_failed of { line : int; msg : string }
  | Lint_fatal of Rfkit_lint.Diagnostic.t list
      (** every finding, at least one of them an error *)

val read_deck : string -> (string, refusal) result
(** The verbatim text of a deck file. *)

val prepare :
  ?overrides:(string * float) list -> lint:bool -> string -> (deck, refusal) result
(** Parse a deck text with [overrides] (sweep points, corners, optimizer
    variables) and, when [lint], run the static analyzer over it. *)

val refusal_to_string : refusal -> string
(** One-line rendering, as the service reports it: ["deck line N: msg"]
    for a parse error, the lint summary for a lint refusal. *)

val circuit : ?ordering:Rfkit_struct.Order.mode -> deck -> Mna.t
(** The MNA system of a prepared deck, with the fill-reducing ordering
    (default [Natural]) applied. *)

(** {1 LU ledger} *)

type ledger = {
  lu_full : int;  (** real sparse LU: fresh symbolic analyses *)
  lu_refactor : int;  (** real sparse LU: numeric replays of a frozen pattern *)
  fill_nnz : int;  (** real sparse LU: nnz(L+U) of the last factorization *)
  clu_full : int;
  clu_refactor : int;
  clu_fill_nnz : int;  (** the same three for the complex sparse LU *)
}

(** {1 Analysis table} *)

type status = Ok | Suspect | Failed

(** One request per analysis. A [freq] or [source] of [None] is resolved
    from the deck: its lowest periodic-source fundamental, its first
    voltage source. *)
type _ request =
  | Dc : Rfkit_la.Vec.t request
  | Ac : { source : string option; freqs : float array } -> Ac.result request
  | Noise : { node : string; freqs : float array } -> float array request
      (** output-noise PSD per frequency *)
  | Tran : { t_stop : float; dt : float } -> Tran.result request
  | Hb : {
      freq : float option;
      harmonics : int;
      solver : Rfkit_rf.Hb.linear_solver;
    }
      -> Rfkit_rf.Hb.result request  (** bare harmonic balance *)
  | Pss : { freq : float option; harmonics : int } -> Rfkit_rf.Pss.solution request
      (** the PSS cascade: hb, hb-gmres, shooting, tran-fft *)
  | Shooting : { freq : float option; steps : int } -> Rfkit_rf.Shooting.result request
  | Mmft : { f1 : float; f2 : float; slow_harmonics : int } -> Rfkit_rf.Mmft.result request

type failure =
  | Engine of Rfkit_solve.Supervisor.failure
      (** one supervised engine exhausted its ladder. A request the deck
          cannot serve (no periodic source, no such source) fails here
          before any engine runs: cause [Unsupported], no attempts. *)
  | Chain of Rfkit_solve.Cascade.failure  (** every cascade stage failed *)

type 'a converged = {
  value : 'a;
  engine : string;  (** the engine that produced [value] (the cascade winner) *)
  report : Rfkit_solve.Supervisor.report;  (** that engine's supervisor report *)
  chain : Rfkit_solve.Cascade.report option;  (** [Pss]: the escalation trace *)
  certificate : Rfkit_solve.Certify.certificate option;
      (** [None] when certification was not asked for, or the analysis
          has no certifier (ac, noise, mmft) *)
  newton : int;
      (** Newton iterations (integration steps for tran) across every
          attempt and stage; 0 for the direct ac and noise solves *)
  krylov : int;  (** inner Krylov iterations of the winning attempt *)
  ledger : ledger;
      (** this job's LU counters right after the engine, before
          certification re-factors anything *)
}

type 'a outcome = Converged of 'a converged | Failed of failure

val run :
  ?budget:Rfkit_solve.Supervisor.budget ->
  ?certify:float ->
  ?node:string ->
  Mna.t ->
  'a request ->
  'a outcome
(** Run one analysis. [certify] is the certification threshold scale;
    omitted, the result is not certified. [budget] defaults to each
    engine's own. [node] is the output node the caller will read from
    the result ([Noise] names its own): a node the deck does not have
    fails before any engine runs, cause [Unsupported "no node N in
    deck"]. The calling domain's LU ledger is zeroed before the engine
    runs, so {!converged.ledger} counts this job's factorizations only. *)

val status : 'a outcome -> status
(** [Suspect] when a certificate was issued and did not certify. *)

val failure_cause : failure -> Rfkit_solve.Supervisor.cause
val failure_iterations : failure -> int
(** Newton iterations burned before giving up. *)
