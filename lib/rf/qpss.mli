(** Engine-agnostic quasi-periodic steady state: the multi-rate cascade.

    The paper's Section 2.2 catalogues several routes to the same
    quasi-periodic solution — mixed frequency-time (MMFT), the MPDE on a
    bivariate grid (MFDTD), hierarchical shooting, two-tone HB, and the
    time-domain envelope. This module runs them as a
    {!Rfkit_solve.Cascade}: each engine gets its full retry ladder, the
    chain escalates only when a ladder is exhausted, and one wall-clock
    budget spans the whole chain. The default chain is
    MMFT -> MFDTD -> TD-ENV (frequency-structured first, brute
    time-domain last).

    Whatever engine wins is normalized to a {!solution} whose [mix]
    closure reads the amplitude of any spectral line [k1 f1 + k2 f2],
    letting {!certify} cross-check two engines' spectra without caring
    how either stores its waveforms. *)

type solution = {
  circuit : Rfkit_circuit.Mna.t;
  engine : string;  (** "hb2" | "mmft" | "mfdtd" | "hs" | "td-env" *)
  f1 : float;
  f2 : float;
  mix : string -> k1:int -> k2:int -> float;
      (** amplitude of the line at [k1 f1 + k2 f2] in a named node
          voltage ([k1] may be negative) *)
  finite_defects : float;
      (** count of non-finite entries in the engine's raw samples *)
}

val of_hb2 : Hb2.result -> solution
val of_mmft : Mmft.result -> solution
val of_mfdtd : Mfdtd.result -> solution
val of_hs : Hs.result -> solution

val of_envelope : f1:float -> periods:int -> Envelope.result -> solution
(** Interpret the last full slow period of a settled envelope march as a
    bi-periodic grid. The march must cover an integer number of slow
    periods with a slice count divisible by [periods].
    @raise Invalid_argument otherwise. *)

type stage_spec =
  | Hb2_stage of Hb2.options
  | Mmft_stage of Mmft.options
  | Mfdtd_stage of Mfdtd.options
  | Hs_stage of Hs.options
  | Env_stage of { options : Envelope.options; periods : int }
      (** march [periods] slow periods, keep the last *)

val stage_engine : stage_spec -> string

val default_chain : unit -> stage_spec list
(** mmft -> mfdtd -> td-env. *)

val solve_outcome :
  ?budget:Rfkit_solve.Supervisor.budget ->
  ?chain:stage_spec list ->
  Rfkit_circuit.Mna.t ->
  f1:float ->
  f2:float ->
  solution Rfkit_solve.Cascade.outcome
(** Run the cascade. Wall clock is shared across every stage; the
    envelope fallback keeps its own slice-sized iteration pool. *)

val cross_error : nodes:string list -> solution -> solution -> float
(** Largest relative disagreement between two solutions' mix-product
    amplitudes over the named nodes and mixes [|k1| <= 2, 0 <= k2 <= 2],
    normalized by the largest amplitude seen. *)

val certify :
  ?tol_scale:float ->
  ?cross:solution ->
  nodes:string list ->
  solution ->
  Rfkit_solve.Certify.certificate
(** Finiteness plus — when [cross] supplies a second engine's solution —
    the two-engine spectrum cross-check over [nodes]. [tol_scale]
    multiplies every threshold. *)
