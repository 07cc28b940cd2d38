(** The RF-DRC check catalogue.

    Each check is a pure function from a netlist (and, where relevant, the
    located deck directives) to diagnostics. Codes:

    - [L001] floating nodes / connectivity islands unreachable from ground
    - [L002] voltage-source and inductor loops (singular MNA)
    - [L003] capacitor / current-source cutsets (no DC path to ground)
    - [L004] dangling terminals and self-shorted devices
    - [L005] zero/negative/non-finite element values, suspicious magnitudes
    - [L010] [.tran] step sanity (dt vs. t_stop, source under-sampling)
    - [L011] [.hb] harmonic count, missing fundamental, linear-only decks
    - [L012] [.ac] / [.noise] sweep bounds
    - [L013] [.print] on nonexistent nodes
    - [L014] [.param] hygiene (unused definitions, redefinitions)
    - [L020] extreme conductance spread (Jacobian conditioning risk)
    - [L021] structurally singular MNA system (deficient maximum matching
      on the G pattern — singular for {e every} element value)
    - [L022] per-unknown attribution of the underdetermined block behind
      an L021 (the Dulmage–Mendelsohn under-determined columns)
    - [L023] index-2-prone topology: the C-pattern's algebraic subsystem
      has a structurally deficient G-block *)

open Rfkit_circuit

val floating_nodes : Netlist.t -> Diagnostic.t list
val source_loops : Netlist.t -> Diagnostic.t list
val dc_path_cutsets : Netlist.t -> Diagnostic.t list
val terminal_sanity : Netlist.t -> Diagnostic.t list
val element_values : Netlist.t -> Diagnostic.t list
val directive_sanity : Netlist.t -> (int * Deck.directive) list -> Diagnostic.t list
val param_hygiene : (int * Deck.directive) list -> Diagnostic.t list
val conductance_spread : Netlist.t -> Diagnostic.t list

val mna_checks : Mna.t -> Diagnostic.t list
(** The checks of a compiled MNA system: L021/L022 from a
    Dulmage–Mendelsohn decomposition of its G pattern, then the L023
    heuristic, examined only when the union pattern is structurally
    nonsingular. *)

val dae_index : Netlist.t -> Diagnostic.t list
(** L023 alone, on the deck's MNA system; never raises (a deck the MNA
    compiler rejects yields []). *)

val structural : Netlist.t -> Diagnostic.t list
(** All netlist-only checks (no directives needed). *)

val all : Netlist.t -> (int * Deck.directive) list -> Diagnostic.t list
