(* Node names are hashed: [index] maps a name to its unknown, and
   [names] (grown by doubling) maps an unknown back to its name, so both
   directions are O(1) and parsing a deck is linear in its size. *)
type t = {
  index : (string, int) Hashtbl.t;
  mutable names : string array;  (* index -> name, first [next] slots live *)
  mutable next : int;
  mutable devs : Device.t list;  (* reverse insertion order *)
}

let gnd = -1
let create () = { index = Hashtbl.create 64; names = Array.make 16 ""; next = 0; devs = [] }

let is_ground name = name = "0" || String.lowercase_ascii name = "gnd"

let node nl name =
  if is_ground name then gnd
  else
    match Hashtbl.find_opt nl.index name with
    | Some idx -> idx
    | None ->
        let idx = nl.next in
        if idx = Array.length nl.names then begin
          let grown = Array.make (2 * idx) "" in
          Array.blit nl.names 0 grown 0 idx;
          nl.names <- grown
        end;
        nl.names.(idx) <- name;
        Hashtbl.replace nl.index name idx;
        nl.next <- idx + 1;
        idx

let find_node nl name =
  if is_ground name then Some gnd else Hashtbl.find_opt nl.index name

let node_count nl = nl.next

let node_name nl idx =
  if idx = gnd then "gnd"
  else if idx >= 0 && idx < nl.next then nl.names.(idx)
  else Printf.sprintf "n%d" idx

let devices nl = List.rev nl.devs
let add nl d = nl.devs <- d :: nl.devs

let resistor nl ?origin name p n r =
  add nl (Device.Resistor { name; p = node nl p; n = node nl n; r; origin })

let capacitor nl ?origin name p n c =
  add nl (Device.Capacitor { name; p = node nl p; n = node nl n; c; origin })

let inductor nl ?origin name p n l =
  add nl (Device.Inductor { name; p = node nl p; n = node nl n; l; origin })

let vsource nl ?origin name p n wave =
  add nl (Device.Vsource { name; p = node nl p; n = node nl n; wave; origin })

let isource nl ?origin name p n wave =
  add nl (Device.Isource { name; p = node nl p; n = node nl n; wave; origin })

let vccs nl ?origin name p n cp cn gm =
  add nl
    (Device.Vccs
       { name; p = node nl p; n = node nl n; cp = node nl cp; cn = node nl cn; gm; origin })

let diode nl ?origin name p n ?(is = 1e-14) ?(nvt = 0.02585) ?(cj = 0.0) () =
  add nl (Device.Diode { name; p = node nl p; n = node nl n; is; nvt; cj; origin })

let tanh_gm nl ?origin name p n cp cn ~gm ~vsat =
  add nl
    (Device.Tanh_gm
       {
         name;
         p = node nl p;
         n = node nl n;
         cp = node nl cp;
         cn = node nl cn;
         gm;
         vsat;
         origin;
       })

let cubic_conductor nl ?origin name p n ~g1 ~g3 =
  add nl (Device.Cubic_conductor { name; p = node nl p; n = node nl n; g1; g3; origin })

let nl_capacitor nl ?origin name p n ~c0 ~c1 =
  add nl (Device.Nl_capacitor { name; p = node nl p; n = node nl n; c0; c1; origin })

let mult_vccs nl ?origin name p n ~a:(ap, an) ~b:(bp, bn) ~k =
  add nl
    (Device.Mult_vccs
       {
         name;
         p = node nl p;
         n = node nl n;
         a_p = node nl ap;
         a_n = node nl an;
         b_p = node nl bp;
         b_n = node nl bn;
         k;
         origin;
       })

let noise_current nl ?origin name p n ~white ~flicker_corner =
  add nl
    (Device.Noise_current
       { name; p = node nl p; n = node nl n; white; flicker_corner; origin })

let mosfet nl ?origin name ~d ~g ~s ?(kp = 2e-4) ?(vth = 0.5) ?(lambda = 0.01)
    ?(cgs = 1e-15) ?(cgd = 1e-16) () =
  add nl
    (Device.Mosfet
       {
         name;
         d = node nl d;
         g = node nl g;
         s = node nl s;
         kp;
         vth;
         lambda;
         cgs;
         cgd;
         origin;
       })
