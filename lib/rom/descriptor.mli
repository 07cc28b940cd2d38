(** Linear descriptor systems [(G + s C) x = b u, y = l^T x] — the form in
    which large linear sub-blocks (interconnect, package, extracted
    parasitics) enter reduced-order modeling (paper Section 5). *)

type t = {
  g : Rfkit_la.Op.t;
  c : Rfkit_la.Op.t;
  b : Rfkit_la.Vec.t;
  l : Rfkit_la.Vec.t;
}

val of_circuit : Rfkit_circuit.Mna.t -> input:string -> output:string -> t
(** Extract the linear MNA matrices of a circuit with a named driving
    source and observed node.
    @raise Invalid_argument if the circuit has nonlinear devices. *)

val of_circuit_b : Rfkit_circuit.Mna.t -> b:Rfkit_la.Vec.t -> output:string -> t
(** Arbitrary excitation pattern (noise sources). *)

val size : t -> int

val transfer : t -> Rfkit_la.Cx.t -> Rfkit_la.Cx.t
(** Exact [H(s) = l^T (G + s C)^{-1} b] — the reference the ROMs are
    judged against. Solved through {!Rfkit_la.Cop.factorize}: complex
    Gilbert-Peierls LU when [g]/[c] are CSR, dense LU when they are the
    dense matrices of a reduced model. *)

val expansion_ops :
  t ->
  s0:float ->
  (Rfkit_la.Vec.t -> Rfkit_la.Vec.t)
  * (Rfkit_la.Vec.t -> Rfkit_la.Vec.t)
  * Rfkit_la.Vec.t
(** [(A, A^T, r)] closures of the expansion at [s0]: [A = -(G+s0 C)^{-1} C]
    applied through one reusable factorization ({!Rfkit_la.Op.factorize}:
    sparse LU when both operators are CSR, dense LU otherwise), and
    [r = (G+s0 C)^{-1} b]. The Krylov ROMs build on these. *)

val moments : t -> s0:float -> k:int -> float array
(** Exact moments [m_j = l^T A^j r] of the expansion at [s0], where
    [A = -(G + s0 C)^{-1} C] and [r = (G + s0 C)^{-1} b]. *)

val rc_line : sections:int -> r_total:float -> c_total:float -> t
(** Canonical uniform RC interconnect line driven by a voltage source at
    one end, observed at the far end: the paper's archetypal large linear
    sub-block ("tapered RC lines", layout extraction output). *)

val rlc_line :
  sections:int -> r_total:float -> l_total:float -> c_total:float -> t
(** Uniform RLC transmission line segment chain (adds resonant poles). *)

val rc_line_i : sections:int -> r_total:float -> c_total:float -> t
val rlc_line_i :
  sections:int -> r_total:float -> l_total:float -> c_total:float -> t
(** Current-driven variants: no voltage-source branch row, so the MNA
    matrices have the symmetric-positive-semidefinite-plus-skew structure
    PRIMA's passivity proof needs. The transfer is a transimpedance. *)
