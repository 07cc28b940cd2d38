(** Monte-Carlo validation of the phase-noise theory.

    Integrates the noisy oscillator SDE (backward-Euler drift +
    Euler-Maruyama noise injection from the device generators) for an
    ensemble of trajectories, extracts threshold-crossing times, and
    measures how the crossing-time variance grows — the paper's claim is
    {e exactly linear} growth, with slope equal to the diffusion constant
    [c] computed by {!Phase_noise.analyze}. Each step is
    {!Rfkit_circuit.Tran.implicit_step} (engine ["jitter"]) with the
    frozen noise current as its right-hand side, solved until the Newton
    step vanishes, under one symbolic LU cache for the whole ensemble. *)

type ensemble = {
  crossing_index : int array;   (** cycle number of each measured crossing *)
  mean_times : float array;     (** ensemble-mean crossing times *)
  variances : float array;      (** ensemble variance of crossing times, s^2 *)
}

val run :
  ?seed:int ->
  ?trajectories:int ->
  ?noise_scale:float ->
  Rfkit_rf.Shooting.result ->
  periods:int ->
  node:string ->
  ensemble
(** Simulate [trajectories] noisy runs over [periods] cycles, measuring
    upward mean-crossings of the named node. [noise_scale] multiplies
    every device PSD (useful to exaggerate tiny thermal noise so the
    statistics converge in reasonable ensemble sizes).
    @raise Rfkit_solve.Error.No_convergence when a step fails (a Newton
    stall, a singular Jacobian or a non-finite iterate). *)

val fitted_slope : ensemble -> float * float
(** [(slope, r2)] of variance vs. mean crossing time: the Monte-Carlo
    estimate of [c * noise_scale].

    Convergence note: the Euler-Maruyama/backward-Euler discretization
    adds spurious phase diffusion that decays ~O(h^2); at 300 steps per
    period the measured slope is ~3x the true [c], at 1200 it is within
    ~15%. Always check step-size convergence before trusting absolute
    Monte-Carlo jitter numbers (the orbit passed in sets the step). *)
