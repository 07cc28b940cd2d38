open Rfkit_circuit

(* Union-find over netlist nodes 0 .. n-1 plus a dedicated slot for the
   ground reference (Netlist.gnd = -1). Path compression + union by rank:
   effectively O(alpha) per operation, so whole-netlist connectivity checks
   are linear in device count. *)
type t = { n : int; parent : int array; rank : int array }

let create ~node_count =
  let slots = node_count + 1 in
  { n = node_count; parent = Array.init slots Fun.id; rank = Array.make slots 0 }

let slot t nd = if nd < 0 then t.n else nd

let rec find_slot t i =
  let p = t.parent.(i) in
  if p = i then i
  else begin
    let root = find_slot t p in
    t.parent.(i) <- root;
    root
  end

let union t a b =
  let ra = find_slot t (slot t a) and rb = find_slot t (slot t b) in
  if ra <> rb then begin
    if t.rank.(ra) < t.rank.(rb) then t.parent.(ra) <- rb
    else if t.rank.(ra) > t.rank.(rb) then t.parent.(rb) <- ra
    else begin
      t.parent.(rb) <- ra;
      t.rank.(ra) <- t.rank.(ra) + 1
    end
  end

let root t nd = find_slot t (slot t nd)
let connected t a b = root t a = root t b

let adds_cycle t a b =
  if connected t a b then true
  else begin
    union t a b;
    false
  end

let reaches_ground t nd = connected t nd Netlist.gnd

let of_edges ~node_count edges =
  let t = create ~node_count in
  List.iter (fun (a, b) -> union t a b) edges;
  t

(* Edge sets of a device for the two connectivity views the checks need.

   [galvanic]: terminals joined by any electrical path through the device,
   including capacitive ones — what "the node is wired to something" means.
   Controlled-source sense pins draw no current and join nothing.

   [dc_path]: terminals joined by a path that conducts at DC — resistors,
   inductors, sources of EMF, pn junctions, MOS channels. Capacitors open
   up; current-source outputs fix no voltage. A node galvanically attached
   but without a DC path to ground has an all-zero conductance row: the
   classic C/I-source cutset that makes the DC MNA matrix singular. *)

let galvanic_edges dev =
  match dev with
  | Device.Resistor { p; n; _ }
  | Device.Capacitor { p; n; _ }
  | Device.Inductor { p; n; _ }
  | Device.Vsource { p; n; _ }
  | Device.Isource { p; n; _ }
  | Device.Diode { p; n; _ }
  | Device.Cubic_conductor { p; n; _ }
  | Device.Nl_capacitor { p; n; _ }
  | Device.Vccs { p; n; _ }
  | Device.Tanh_gm { p; n; _ }
  | Device.Mult_vccs { p; n; _ } -> [ (p, n) ]
  | Device.Mosfet { d; g; s; _ } -> [ (d, s); (g, s); (g, d) ]
  | Device.Noise_current _ -> []

let dc_path_edges dev =
  match dev with
  | Device.Resistor { p; n; _ }
  | Device.Inductor { p; n; _ }
  | Device.Vsource { p; n; _ }
  | Device.Diode { p; n; _ }
  | Device.Cubic_conductor { p; n; _ } -> [ (p, n) ]
  | Device.Mosfet { d; s; _ } -> [ (d, s) ]
  | Device.Capacitor _ | Device.Nl_capacitor _ | Device.Isource _ | Device.Vccs _
  | Device.Tanh_gm _ | Device.Mult_vccs _ | Device.Noise_current _ -> []

let of_netlist ~edges_of nl =
  let t = create ~node_count:(Netlist.node_count nl) in
  List.iter (fun dev -> List.iter (fun (a, b) -> union t a b) (edges_of dev)) (Netlist.devices nl);
  t
