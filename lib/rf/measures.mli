(** RF performance measures (paper Section 1: specifications "depend on
    other performance measures such as noise figure, intercept point, and
    1dB compression point. Verification tools need to be able to analyze
    the design ... and predict the performance measures").

    Circuits are supplied as builders parameterized by drive amplitude so
    the sweeps can re-instantiate them; outputs are voltage-amplitude
    referred (convert to power against a reference impedance as needed).
    The HB-driven measures return the supervisor's failure, attempt trail
    included, when a harmonic-balance solve does not converge. *)

val small_signal_gain :
  build:(float -> Rfkit_circuit.Mna.t) ->
  node:string ->
  freq:float ->
  (float, Rfkit_solve.Supervisor.failure) result
(** Fundamental-output over input-amplitude at a drive small enough to be
    linear (1 mV). *)

val compression_point_1db :
  ?a_start:float ->
  ?a_stop:float ->
  build:(float -> Rfkit_circuit.Mna.t) ->
  node:string ->
  freq:float ->
  unit ->
  (float option, Rfkit_solve.Supervisor.failure) result
(** Input amplitude (volts) at which the fundamental gain has dropped 1 dB
    below its small-signal value — the 1 dB compression point. Scans a
    geometric amplitude grid and refines by bisection. [Ok None] if no
    compression occurs within [a_stop] (e.g. a perfectly linear
    stage). *)

val iip3 :
  ?a_probe:float ->
  build:(float -> Rfkit_circuit.Mna.t) ->
  node:string ->
  f1:float ->
  f2:float ->
  unit ->
  (float, Rfkit_solve.Supervisor.failure) result
(** Input-referred third-order intercept (volts amplitude, per tone): a
    two-tone HB solve at small probe amplitude [a_probe] measures the
    fundamental and the 2f2-f1 intermodulation product; the intercept
    extrapolates at the textbook 1:3 slopes,
    [A_IIP3 = a sqrt(A_fund / A_im3)]. *)

(** {2 Sampled-curve measures}

    Scalar measures over already-computed analysis grids (an AC
    magnitude sweep, a measured gain-vs-drive curve). All interpolate
    {e linearly between the bracketing samples} in [(log10 x, y)] space
    — the grids are log-spaced — rather than snapping to the nearest
    grid point, and return [None] for targets outside the sampled range
    (an out-of-range answer would be extrapolation). Grids must be
    strictly increasing and positive; violations raise
    [Invalid_argument]. *)

val gain_at : freqs:float array -> mags:float array -> float -> float option
(** Interpolated magnitude at a frequency; [None] off the grid. *)

val bandwidth_3db : freqs:float array -> mags:float array -> float option
(** First frequency (left to right) where the response has dropped 3 dB
    below the first sample, interpolated inside the bracketing pair;
    [None] when the curve never drops that far (or the reference is not
    positive). *)

val ripple_db :
  freqs:float array -> mags:float array -> f_lo:float -> f_hi:float -> float option
(** Peak-to-peak magnitude variation (dB) over [f_lo..f_hi], including
    the interpolated band endpoints; [None] when the band extends past
    the grid or the response touches zero inside it. *)

val band_attenuation_db :
  freqs:float array -> mags:float array -> f_lo:float -> f_hi:float -> float option
(** Worst-case (smallest) attenuation in dB over the band, relative to
    the first-sample passband reference: the mask reading
    ["stopband_atten >= 40 over f1..f2"] tests. [None] off the grid. *)

val compression_from_curve :
  amps:float array -> gains:float array -> float option
(** Input amplitude where a measured gain-vs-drive curve crosses 1 dB
    below its first (small-signal) sample, interpolated between the
    bracketing drive levels; [None] when no compression occurs within
    the sampled range or the first sample is already compressed. *)

val noise_figure :
  Rfkit_circuit.Mna.t ->
  source_resistor:string ->
  node:string ->
  freq:float ->
  float
(** Noise figure (dB) of a linear(ized) stage at [freq]: total output
    noise over the part delivered by the named source resistor alone,
    both through the AC noise analysis. *)
