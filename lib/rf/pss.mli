(** Engine-agnostic periodic steady state: one problem, four routes.

    The paper's Section 2 presents HB, shooting and transient analysis as
    interchangeable ways to reach the same periodic solution, each with
    its own failure modes. This module makes that interchangeability
    operational: a {e problem} (circuit + fundamental) runs through a
    {!Rfkit_solve.Cascade} of engines — harmonic balance with a direct
    solve, HB with matrix-implicit GMRES, shooting, and finally a brute
    transient settled over many periods and resampled ("Tran+FFT") — each
    under its own full retry ladder, escalating only when a ladder is
    exhausted, with one shared wall-clock budget.

    Whatever engine wins is translated into a common {!solution} (one
    period of uniform samples of every unknown), and {!certify} attaches
    an a-posteriori {!Rfkit_solve.Certify} verdict derived independently
    of the winner's own convergence flag. *)

type solution = {
  circuit : Rfkit_circuit.Mna.t;
  engine : string;  (** "hb" | "hb-gmres" | "shooting" | "tran-fft" *)
  freq : float;
  times : Rfkit_la.Vec.t;
  samples : Rfkit_la.Mat.t;  (** rows: uniform samples over one period;
                                 columns: MNA unknowns *)
}

val of_hb : Hb.result -> solution
val of_shooting : Shooting.result -> solution

val of_tran :
  Rfkit_circuit.Mna.t -> freq:float -> n:int -> Rfkit_circuit.Tran.result -> solution
(** Resample the last period of a (settled) transient onto [n] uniform
    points. The transient must end on a period boundary for source phases
    to line up. *)

type stage_spec =
  | Hb_stage of Hb.options
      (** engine name "hb" or "hb-gmres" depending on [options.solver] *)
  | Shooting_stage of Shooting.options
  | Tran_fft of { periods : int; steps_per_period : int; n_samples : int }
      (** integrate [periods] periods, resample the last onto [n_samples] *)

val stage_engine : stage_spec -> string

val default_chain : ?n_samples:int -> unit -> stage_spec list
(** hb -> hb-gmres -> shooting -> tran-fft. *)

val solve_outcome :
  ?budget:Rfkit_solve.Supervisor.budget ->
  ?chain:stage_spec list ->
  Rfkit_circuit.Mna.t ->
  freq:float ->
  solution Rfkit_solve.Cascade.outcome
(** Run the cascade. The wall clock is shared across every stage; the
    Newton-iteration pool is shared across the Newton engines, while the
    transient fallback keeps its own step-sized pool (its "iterations"
    are integration steps). *)

val waveform : solution -> string -> Rfkit_la.Vec.t
val harmonic_amplitude : solution -> string -> int -> float

val spectral_residual : solution -> factor:int -> float
(** Normalized infinity-norm of the HB collocation residual re-evaluated
    on a grid [factor] times denser than the solution's (trigonometric
    interpolation); [factor = 1] re-checks the solution's own grid. *)

val periodicity_error : solution -> float
(** Time-domain re-evaluation: trapezoidal integration of one full period
    from the claimed periodic point, returning the normalized orbit
    mismatch [|x(T) - x(0)|/|x|]; [infinity] if the re-integration itself
    diverges. *)

val cross_error : solution -> solution -> float
(** Largest relative disagreement between the two solutions' harmonic
    amplitudes (harmonics 0..4, every unknown), normalized by the largest
    amplitude — the two-engine spectrum cross-check. *)

val certify :
  ?tol_scale:float -> ?cross:solution -> solution -> Rfkit_solve.Certify.certificate
(** Assemble the certificate: finiteness, spectral KCL residual (for HB
    solutions, a tight re-check on the collocation grid plus a looser
    dense-grid truncation check; for time-marched ones a single looser
    native-grid check), time-domain periodicity, and — when [cross] gives
    a second engine's solution — the spectrum cross-check. [tol_scale]
    multiplies every threshold. *)
