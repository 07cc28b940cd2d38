(** The typed measure catalogue: scalar performance figures extracted
    from sweep-job payloads (paper Section 1: verification tools must
    "predict the performance measures" a spec is written against).

    A measure is evaluated from a job's canonical JSON payload — never
    by re-running an engine — so it is free on cache hits and exactly
    as deterministic as the cached payload itself. Evaluation returns
    [None] on a failed job, a payload of the wrong analysis kind, a
    target off the sampled grid, or a non-finite value; curve measures
    interpolate linearly between grid samples via
    {!Rfkit_rf.Measures}. *)

type band = { f_lo : float; f_hi : float }

type t =
  | Gain of float  (** interpolated [|H|] at a frequency (AC, linear) *)
  | Gain_db of float  (** the same in dB *)
  | Bw_3db  (** first −3 dB crossing of the AC response *)
  | Ripple of band  (** passband peak-to-peak variation over a band, dB *)
  | Stopband of band
      (** worst-case attenuation over the band relative to the
          first-sample passband reference, dB — the mask constraint
          ["stopband_atten >= 40 over f1..f2"] reads this *)
  | Thd  (** total harmonic distortion from the HB harmonic table *)
  | Fund  (** fundamental harmonic amplitude (HB/shooting) *)
  | Harm_db of int  (** harmonic [k] relative to the fundamental, dB *)
  | Dc_power  (** total [|V·I|] delivered by the deck's voltage sources *)
  | Vdc of string  (** DC node voltage *)
  | Idc of string  (** DC branch current of a named source/inductor *)
  | V_end  (** transient: final value at the report node *)
  | V_min
  | V_max
  | V_swing  (** transient [v_max - v_min] *)

exception Parse_error of string

val number : what:string -> string -> float
(** A number in the deck grammar; {!Parse_error} names [what] otherwise. *)

val parse : string -> t
(** Parse the surface syntax: [gain@1meg], [gain_db@1e6], [bw3db],
    [ripple@1k..100k], [stopband@2e6..1e7], [thd], [fund], [harm_db@3],
    [dc_power], [vdc@out], [idc@V1], [v_end], [v_min], [v_max],
    [v_swing]. Numbers use the deck grammar (engineering suffixes).
    Raises {!Parse_error} with the catalogue listing on anything else. *)

val parse_result : string -> (t, string) result

val to_string : t -> string
(** Canonical label ([%.9g] floats): the CSV column header, the trace
    key, and a [parse] fixpoint. *)

val analysis_of : t -> string
(** Which payload kind the measure reads: ["ac"], ["hb"] (shooting
    payloads qualify too), ["dc"] or ["tran"]. *)

val eval : t -> Rfkit_batch.Json.value -> float option
(** Evaluate against a parsed job payload (the ["result"] object of a
    report line). *)

val eval_string : t -> string -> float option
(** Convenience: parse the payload text first. *)
