(** General n-tone quasi-periodic harmonic balance — the one grid
    Newton of the library, for harmonic balance and MFDTD alike.

    Collocation on an [n_1 x ... x n_d] grid over the torus of tone
    phases, the MPDE derivative applied by FFT axis by axis, Newton with
    either a dense direct solve or matrix-implicit GMRES and a
    block-diagonal per-mix-bin preconditioner. {!Hb} (one tone) and
    {!Hb2} (two tones) are thin views over {!run}: they only map their
    options and retry strategies onto this core and repackage the result.
    {!Mfdtd} is the same kind of view with backward differences in place
    of spectral differentiation.

    Conventions shared by every tone count: bin [i] along an axis of [n]
    samples is harmonic [i] for [i <= n/2] and [i - n] above; each
    discretization of [sum_a d/dt_a] is circulant on the periodic grid, so
    it enters both the Jacobian and the preconditioner as one complex
    symbol per bin (see {!derivative}); and since the grid is real and
    the symbol of bin [-m] is the conjugate of bin [m]'s, preconditioner
    bin [-m] is solved as the conjugate of bin [m].

    This engine also quantifies the paper's Section 2.1 caveat: "the
    memory and time required for Harmonic Balance simulation increase
    rapidly as more tones are added ... predicting the intermodulation
    distortion of the entire modulator chain would require ... four
    tones; such a simulation would probably exceed available memory" —
    while "the time and memory requirements of transient simulation are
    not sensitive to the number of fundamental frequencies".
    {!problem_size} and {!memory_estimate} expose the scaling, and the
    harness sweeps the tone count. *)

exception No_convergence of Rfkit_solve.Error.t
(** Rebinding of the shared {!Rfkit_solve.Error.No_convergence}. *)

type options = {
  dims : int array;    (** samples per tone axis *)
  max_newton : int;
  tol : float;
  gmres_tol : float;
}

val default_dims : n_tones:int -> int array
(** 8 samples per axis. *)

type result = {
  circuit : Rfkit_circuit.Mna.t;
  tones : float array;
  options : options;
  grid : Rfkit_la.Vec.t;   (** flattened, axis-major, unknown innermost *)
  newton_iters : int;
  residual : float;
  gmres_iters_total : int;
}

val solve_outcome :
  ?budget:Rfkit_solve.Supervisor.budget ->
  ?options:options ->
  Rfkit_circuit.Mna.t ->
  tones:float array ->
  result Rfkit_solve.Supervisor.outcome
(** Supervised solve ({!ladder}, preconditioned GMRES, DC seed). A
    dims/tones length mismatch or a source frequency aligned with no tone
    fails fast with {!Rfkit_solve.Supervisor.Unsupported}. *)

(** {2 The shared core} *)

type linear_solver = Direct | Matrix_free_gmres
(** Newton's linear solve: the dense Jacobian through LU (small problems),
    or matrix-implicit GMRES. *)

type derivative =
  | Spectral  (** harmonic balance: symbol [i w_m]; the Nyquist bin of an
                  even axis contributes no frequency (it is unpaired, so
                  d/dt would not stay real) *)
  | Backward_difference
      (** MFDTD: symbol [sum_a (1 - exp (-2 pi i k_a / n_a)) / h_a],
          [h_a = T_a / n_a]; its Nyquist term is real and kept *)
(** The discretization of each [d/dt_a] on the periodic grid. *)

val default_damping : float
(** Newton step inf-norm cap outside {!Rfkit_solve.Supervisor.Tighten_damping} rungs. *)

val ladder : Rfkit_solve.Supervisor.strategy list
(** Base attempt, then a tightened-damping retry. *)

val run :
  ?budget:Rfkit_solve.Supervisor.budget ->
  ?derivative:derivative ->
  ?solver:linear_solver ->
  ?precondition:bool ->
  engine:string ->
  ladder:Rfkit_solve.Supervisor.strategy list ->
  plan:(Rfkit_solve.Supervisor.strategy -> options * Rfkit_la.Vec.t option) ->
  Rfkit_circuit.Mna.t ->
  tones:float array ->
  result Rfkit_solve.Supervisor.outcome
(** The engine behind every view. A structural pre-flight
    ({!Rfkit_circuit.Mna.structural_rank_gc}) refuses a structurally
    singular circuit with zero attempts; then the supervisor runs
    [ladder] under [engine]'s name, and [plan] maps each rung to its grid
    options and initial grid ([None] seeds every point with
    {!Rfkit_circuit.Dc.dc_point}).
    A [Tighten_damping d] rung caps the Newton step at [d], every other
    rung at {!default_damping}. [derivative] defaults to [Spectral];
    [solver] defaults to [Matrix_free_gmres];
    [precondition:false] (ablation studies only) runs GMRES bare. *)

val residual_norm :
  Rfkit_circuit.Mna.t -> tones:float array -> dims:int array -> Rfkit_la.Vec.t -> float
(** Infinity norm of the HB residual of a flattened grid. *)

(** {2 Spectra} *)

val mix_coefficients :
  Rfkit_circuit.Mna.t -> dims:int array -> Rfkit_la.Vec.t -> string -> Rfkit_la.Cvec.t
(** [mix_coefficients c ~dims grid node]: complex Fourier coefficient of
    a node voltage at every mix bin of a flattened grid, in flat bin
    order, normalized by the grid size. *)

val line_amplitude : dims:int array -> Rfkit_la.Cvec.t -> int array -> float
(** Amplitude of the line at a signed mix vector, read from
    {!mix_coefficients}: [|c|] at DC, [2 |c|] elsewhere. *)

val mix_amplitude : result -> string -> int array -> float
(** Amplitude of the line at [sum_i k_i f_i] for the signed mix vector. *)

val problem_size : Rfkit_circuit.Mna.t -> dims:int array -> int
(** Number of unknowns: [prod dims * size circuit]. *)

val memory_estimate : Rfkit_circuit.Mna.t -> dims:int array -> int
(** Bytes for the dominant state: grid vectors plus the per-bin complex
    preconditioner factors — the quantity that "would probably exceed
    available memory" at four tones. *)
