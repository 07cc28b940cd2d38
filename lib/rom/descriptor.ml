open Rfkit_la
open Rfkit_circuit

type t = { g : Op.t; c : Op.t; b : Vec.t; l : Vec.t }

let of_circuit_b circuit ~b ~output =
  if not (Mna.is_linear circuit) then
    invalid_arg "Descriptor.of_circuit: circuit contains nonlinear devices";
  let g, c = Mna.linear_gc_op circuit in
  let l = Vec.create (Mna.size circuit) in
  l.(Mna.node circuit output) <- 1.0;
  { g; c; b; l }

let of_circuit circuit ~input ~output =
  of_circuit_b circuit ~b:(Mna.source_pattern circuit input) ~output

let size d = Array.length d.b

(* lift a real operator into the complex field constructor-for-constructor:
   CSR stamps stay sparse, a reduced model's dense matrices stay dense *)
let lower_complex = function
  | Op.Sparse sp -> Cop.of_real sp
  | Op.Dense m -> Cop.dense (Cmat.of_real m)

let transfer d s =
  let a = Cop.add (lower_complex d.g) (Cop.scale s (lower_complex d.c)) in
  let x = Cop.factorize a (Cvec.of_real d.b) in
  Cvec.dot_u (Cvec.of_real d.l) x

(* factor (G + s0 C) once — sparse LU for CSR operators, dense LU for a
   reduced model's dense ones; A v = -(G + s0 C)^-1 C v *)
let expansion_ops d ~s0 =
  let f = Op.factorize (Op.add d.g (Op.scale s0 d.c)) in
  let matvec v = Vec.neg (f.Op.solve (Op.matvec d.c v)) in
  let matvec_t v = Vec.neg (Op.matvec_t d.c (f.Op.solve_t v)) in
  let r = f.Op.solve d.b in
  (matvec, matvec_t, r)

let moments d ~s0 ~k =
  let matvec, _, r = expansion_ops d ~s0 in
  let m = Array.make k 0.0 in
  let v = ref (Vec.copy r) in
  for j = 0 to k - 1 do
    m.(j) <- Vec.dot d.l !v;
    if j < k - 1 then v := matvec !v
  done;
  m

let rc_line ~sections ~r_total ~c_total =
  let nl = Netlist.create () in
  let r_seg = r_total /. float_of_int sections in
  let c_seg = c_total /. float_of_int sections in
  Netlist.vsource nl "VIN" "n0" "0" (Wave.Dc 0.0);
  for k = 1 to sections do
    Netlist.resistor nl
      (Printf.sprintf "R%d" k)
      (Printf.sprintf "n%d" (k - 1))
      (Printf.sprintf "n%d" k)
      r_seg;
    Netlist.capacitor nl (Printf.sprintf "C%d" k) (Printf.sprintf "n%d" k) "0" c_seg
  done;
  let c = Mna.build nl in
  of_circuit c ~input:"VIN" ~output:(Printf.sprintf "n%d" sections)

let rc_line_i ~sections ~r_total ~c_total =
  let nl = Netlist.create () in
  let r_seg = r_total /. float_of_int sections in
  let c_seg = c_total /. float_of_int sections in
  Netlist.isource nl "IIN" "n1" "0" (Wave.Dc 0.0);
  Netlist.capacitor nl "C0" "n1" "0" c_seg;
  for k = 2 to sections do
    Netlist.resistor nl
      (Printf.sprintf "R%d" k)
      (Printf.sprintf "n%d" (k - 1))
      (Printf.sprintf "n%d" k)
      r_seg;
    Netlist.capacitor nl (Printf.sprintf "C%d" k) (Printf.sprintf "n%d" k) "0" c_seg
  done;
  (* load keeps G nonsingular at DC *)
  Netlist.resistor nl "RLOAD" (Printf.sprintf "n%d" sections) "0" (10.0 *. r_total);
  let c = Mna.build nl in
  of_circuit c ~input:"IIN" ~output:(Printf.sprintf "n%d" sections)

let rlc_line_i ~sections ~r_total ~l_total ~c_total =
  let nl = Netlist.create () in
  let r_seg = r_total /. float_of_int sections in
  let l_seg = l_total /. float_of_int sections in
  let c_seg = c_total /. float_of_int sections in
  Netlist.isource nl "IIN" "n1" "0" (Wave.Dc 0.0);
  Netlist.capacitor nl "C0" "n1" "0" c_seg;
  for k = 2 to sections do
    Netlist.resistor nl
      (Printf.sprintf "R%d" k)
      (Printf.sprintf "n%d" (k - 1))
      (Printf.sprintf "m%d" k)
      r_seg;
    Netlist.inductor nl
      (Printf.sprintf "L%d" k)
      (Printf.sprintf "m%d" k)
      (Printf.sprintf "n%d" k)
      l_seg;
    Netlist.capacitor nl (Printf.sprintf "C%d" k) (Printf.sprintf "n%d" k) "0" c_seg
  done;
  Netlist.resistor nl "RLOAD" (Printf.sprintf "n%d" sections) "0" (10.0 *. r_total);
  let c = Mna.build nl in
  of_circuit c ~input:"IIN" ~output:(Printf.sprintf "n%d" sections)

let rlc_line ~sections ~r_total ~l_total ~c_total =
  let nl = Netlist.create () in
  let r_seg = r_total /. float_of_int sections in
  let l_seg = l_total /. float_of_int sections in
  let c_seg = c_total /. float_of_int sections in
  Netlist.vsource nl "VIN" "n0" "0" (Wave.Dc 0.0);
  for k = 1 to sections do
    Netlist.resistor nl
      (Printf.sprintf "R%d" k)
      (Printf.sprintf "n%d" (k - 1))
      (Printf.sprintf "m%d" k)
      r_seg;
    Netlist.inductor nl
      (Printf.sprintf "L%d" k)
      (Printf.sprintf "m%d" k)
      (Printf.sprintf "n%d" k)
      l_seg;
    Netlist.capacitor nl (Printf.sprintf "C%d" k) (Printf.sprintf "n%d" k) "0" c_seg
  done;
  let c = Mna.build nl in
  of_circuit c ~input:"VIN" ~output:(Printf.sprintf "n%d" sections)
