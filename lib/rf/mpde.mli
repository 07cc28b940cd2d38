(** Multi-rate PDE (MPDE) utilities: bivariate signal representation.

    The MPDE reformulation (paper eq. 4) replaces the circuit DAE by

    {v dq(x^)/dt1 + dq(x^)/dt2 + f(x^) = b^(t1, t2) v}

    with every waveform in bivariate form [x^(t1, t2)], periodic in each
    argument; the physical solution is the diagonal [x(t) = x^(t, t)].
    This module provides the source-splitting that builds [b^] from a
    netlist's one-dimensional sources, diagonal extraction, and the
    sample-count accounting behind the paper's Figs 2-3. *)

val split_wave_multi : tones:float array -> Rfkit_circuit.Wave.t -> Rfkit_circuit.Wave.t array
(** Partition a source into one part per tone axis: each spectral
    component is assigned to the axis with the largest fundamental that
    divides its frequency (a component commensurate with several tones
    needs the fewest harmonics there); DC and aperiodic parts ride on
    axis 0. With a single tone there is nothing to split: the result is
    [[| w |]].
    @raise Invalid_argument for a component aligned with no tone (two or
    more tones). *)

val eval_bn : Rfkit_circuit.Mna.t -> tones:float array -> float array -> Rfkit_la.Vec.t
(** Multivariate excitation [b^(t_1, ..., t_d)] for the n-tone MPDE;
    satisfies [b^(t, ..., t) = b(t)].
    @raise Invalid_argument for a source component aligned with no tone. *)

val off_tone_source : Rfkit_circuit.Mna.t -> tones:float array -> string option
(** [Some msg] when a source of the circuit has a component aligned with
    no tone, so {!eval_bn} would raise: the MPDE engines refuse such a
    circuit with a typed [Unsupported] before any solve. *)

val node_grid :
  Rfkit_circuit.Mna.t -> n1:int -> n2:int -> Rfkit_la.Vec.t -> string -> Rfkit_la.Mat.t
(** [node_grid c ~n1 ~n2 grid node]: one node's [n1 x n2] samples of a
    flattened two-tone grid laid out [(i1 * n2 + i2) * n + k]. *)

val diagonal : period1:float -> period2:float -> Rfkit_la.Mat.t -> float -> float
(** [diagonal ~period1 ~period2 grid t] evaluates the diagonal
    [y^(t, t)] of a bivariate sample grid ([n1] rows x [n2] cols) by
    bilinear periodic interpolation. *)

val diagonal_samples : f1:float -> f2:float -> Rfkit_la.Mat.t -> n:int -> Rfkit_la.Vec.t
(** [n] samples of the physical waveform [x(t) = x^(t, t)] of a
    bivariate grid over one slow period [1/f1]. *)

(** Figs 2-3: cost accounting for representing
    [y(t) = sin(2 pi t / period1) * pulse(t / period2)]. *)
module Cost : sig
  type t = {
    separation : float;       (** T1 / T2 *)
    univariate_samples : int; (** samples to cover the common period with
                                  [samples_per_pulse] points per pulse *)
    bivariate_samples : int;  (** n1 * n2, independent of separation *)
  }

  val compare_representations : ?samples_per_pulse:int -> ?n1:int -> separation:float -> unit -> t

  val bivariate_reconstruction_error :
    n1:int -> n2:int -> separation:float -> rise:float -> float
  (** Max |y(t) - interpolated y^(t,t)| over a dense probe of the common
      period, for the paper's example waveform. *)
end
