(* Seeded input generators. The seed only jitters element values and
   scrambles card order and node names; stage counts, grids, axis lengths
   and the optimizer problem are fixed by the size, so the amount of work
   does not depend on the seed. *)

let num v = Printf.sprintf "%.6g" v

(* A generated deck: its text, the driving source and the observed node. *)
type deck = { text : string; source : string; out : string }

(* Shuffle the device cards and return the deck text. Internal node names
   are already drawn from a random permutation by the caller, so both the
   unknown numbering and the card order depend on the seed. *)
let assemble rng ~title ~cards ~directives =
  let cards = Array.of_list cards in
  Prng.shuffle rng cards;
  String.concat "\n" ((("* " ^ title) :: Array.to_list cards) @ directives @ [ ".end"; "" ])

(* node-name map: index k -> prefix ^ perm.(k) *)
let namer rng ~prefix n =
  let perm = Array.init n Fun.id in
  Prng.shuffle rng perm;
  fun k -> prefix ^ string_of_int perm.(k)

(* Post-layout RC-diode ladder: [stages] series R / shunt C sections with
   a junction diode on every fourth node, driven through a source
   resistance. A path graph, so every elimination order stays sparse. *)
let ladder rng ~stages =
  let nm = namer rng ~prefix:"n" stages in
  let node k = if k = stages - 1 then "out" else nm k in
  let cards = ref [ "V1 in 0 SIN(0.55 0.25 2meg)"; "RIN in " ^ node 0 ^ " 50"; "RL out 0 1k" ] in
  let add c = cards := c :: !cards in
  for k = 0 to stages - 1 do
    add (Printf.sprintf "C%d %s 0 %s" k (node k) (num (Prng.jitter rng ~frac:0.2 50e-15)));
    if k < stages - 1 then
      add
        (Printf.sprintf "R%d %s %s %s" k (node k) (node (k + 1))
           (num (Prng.jitter rng ~frac:0.2 20.0)));
    if k mod 4 = 0 then
      add
        (Printf.sprintf "D%d %s 0 IS=%s" k (node k) (num (Prng.jitter rng ~frac:0.2 1e-15)))
  done;
  let text =
    assemble rng
      ~title:(Printf.sprintf "rfbench post-layout ladder, %d stages" stages)
      ~cards:!cards
      ~directives:[ ".tran 1u 5n"; ".print out" ]
  in
  { text; source = "V1"; out = "out" }

(* Post-layout 2-D RC substrate mesh, [nx] x [ny] nodes: jittered
   resistive grid with a capacitor to ground on every node, junction
   diodes on a fixed sub-lattice and eight behavioural noise generators at
   fixed grid positions. Driven at one corner, observed at the other. *)
let mesh rng ~nx ~ny =
  let n = nx * ny in
  let nm = namer rng ~prefix:"m" n in
  let node i j = if i = nx - 1 && j = ny - 1 then "out" else nm ((i * ny) + j) in
  let cards =
    ref [ "V1 in 0 DC 0.4"; "RS in " ^ node 0 0 ^ " 100"; "RL out 0 1k" ]
  in
  let add c = cards := c :: !cards in
  let r () = num (Prng.jitter rng ~frac:0.2 50.0) in
  for i = 0 to nx - 1 do
    for j = 0 to ny - 1 do
      let k = (i * ny) + j in
      add (Printf.sprintf "C%d %s 0 %s" k (node i j) (num (Prng.jitter rng ~frac:0.2 10e-15)));
      if j < ny - 1 then add (Printf.sprintf "RH%d %s %s %s" k (node i j) (node i (j + 1)) (r ()));
      if i < nx - 1 then add (Printf.sprintf "RV%d %s %s %s" k (node i j) (node (i + 1) j) (r ()));
      if k mod 7 = 3 then
        add (Printf.sprintf "D%d %s 0 IS=%s" k (node i j) (num (Prng.jitter rng ~frac:0.2 1e-16)))
    done
  done;
  for s = 0 to 7 do
    let i = (s * (nx - 1)) / 7 and j = ((7 - s) * (ny - 1)) / 7 in
    add
      (Printf.sprintf "N%d %s 0 WHITE=%s FC=1e5" s (node i j)
         (num (Prng.jitter rng ~frac:0.2 1e-22)))
  done;
  let text =
    assemble rng
      ~title:(Printf.sprintf "rfbench post-layout substrate mesh, %dx%d" nx ny)
      ~cards:!cards
      ~directives:[ ".ac 100k 100g"; ".noise 1meg 10g"; ".print out" ]
  in
  { text; source = "V1"; out = "out" }

(* Sine-driven RC-diode rectifier chain for the single-tone periodic
   engines: each stage is a series resistor into a shunt diode and
   capacitor. Values jitter by 2 % only: Newton and GMRES iteration
   counts follow them. *)
let diode_chain rng ~stages ~freq =
  let node k = if k = stages then "out" else Printf.sprintf "d%d" k in
  let cards = ref [ Printf.sprintf "V1 in 0 SIN(0 1 %s)" (num freq); "RIN in d0 50" ] in
  let add c = cards := c :: !cards in
  for k = 0 to stages - 1 do
    add
      (Printf.sprintf "R%d %s %s %s" k (node k) (node (k + 1))
         (num (Prng.jitter rng ~frac:0.02 200.0)));
    add (Printf.sprintf "D%d %s 0 IS=%s" k (node (k + 1)) (num (Prng.jitter rng ~frac:0.02 1e-14)));
    add (Printf.sprintf "C%d %s 0 %s" k (node (k + 1)) (num (Prng.jitter rng ~frac:0.02 20e-12)))
  done;
  add "RL out 0 10k";
  let text =
    String.concat "\n"
      ((Printf.sprintf "* rfbench diode chain, %d stages" stages :: List.rev !cards)
      @ [ ".hb 8"; ".print out"; ".end"; "" ])
  in
  { text; source = "V1"; out = "out" }

(* Conductor set for the IES3 extraction: two parallel 1 mm plates meshed
   [n] x [n] each, 1 mm apart and offset by 50 um. Not seeded: a 1 %
   change of the gap already flips which blocks IES3 compresses and moves
   the work by half. *)
let conductors ~n =
  let open Rfkit_em in
  let gap = 1e-3 and dx = 50e-6 in
  let plate name z x0 =
    Geo3.mesh_plate ~name ~origin:(Geo3.v3 x0 0.0 z) ~u:(Geo3.v3 1e-3 0.0 0.0)
      ~v:(Geo3.v3 0.0 1e-3 0.0) ~nu:n ~nv:n
  in
  [| plate "top" gap dx; plate "bottom" 0.0 0.0 |]

(* ---- sweep mix -------------------------------------------------------- *)

(* One sweep of the job mix: a small deck plus its spec strings, in the
   grammar of [rfsim sweep --param/--corner/--analysis]. *)
type sweep = {
  name : string;
  deck : string;
  node : string;
  axes : string list;
  corners : string list;
  analyses : string;
  defaults : Rfkit_batch.Spec.defaults;
}

let defaults =
  {
    Rfkit_batch.Spec.d_f_start = 1e3;
    d_f_stop = 1e8;
    d_points_per_decade = 20;
    d_t_stop = 2e-6;
    d_dt = 4e-9;
    d_freq = Some 10e6;
    d_harmonics = 4;
    d_steps = 64;
  }

(* [n] seeded values spread around [v]; a 2 % jitter keeps every job on
   the same solver path *)
let axis rng name v n =
  let vs = List.init n (fun k -> Prng.jitter rng ~frac:0.02 (v *. (1.0 +. (0.25 *. float_of_int k)))) in
  name ^ "=" ^ String.concat "," (List.map num vs)

(* [points] sets the axis lengths, and so the job count *)
let sweep_mix rng ~points =
  let j v = num (Prng.jitter rng ~frac:0.1 v) in
  let lowpass =
    {
      name = "lowpass";
      deck =
        String.concat "\n"
          [ "* two-pole RC low-pass"; ".param R1=" ^ j 1e3 ^ " C2=" ^ j 100e-12 ^ " R2=5k";
            "V1 in 0 SIN(0 1 1meg)"; "R1 in a {R1}"; "C1 a 0 " ^ j 1e-9; "R2 a out {R2}";
            "C2 out 0 {C2}"; ".ac 1k 100meg"; ".print out"; ".end"; "" ];
      node = "out";
      axes = [ axis rng "R1" 1e3 points; axis rng "C2" 100e-12 2 ];
      corners = [ "tt:R2=5k"; "ss:R2=" ^ j 6e3 ];
      analyses = "dc,ac,tran";
      defaults;
    }
  in
  let rectifier =
    {
      name = "rectifier";
      deck =
        String.concat "\n"
          [ "* diode rectifier"; ".param RL=" ^ j 10e3; "V1 in 0 SIN(0 2 10meg)"; "RS in a 50";
            "D1 a out IS=1e-14"; "RL out 0 {RL}"; "CL out 0 " ^ j 100e-12; ".hb 8";
            ".print out"; ".end"; "" ];
      node = "out";
      axes = [ axis rng "RL" 10e3 points ];
      corners = [];
      analyses = "dc,hb,shooting";
      defaults;
    }
  in
  let mos_amp =
    {
      name = "mos_amp";
      deck =
        String.concat "\n"
          [ "* common-source amplifier"; ".param RD=" ^ j 10e3; "VDD vdd 0 DC 3";
            "VG g 0 SIN(1 0.01 1meg)"; "RD vdd out {RD}"; "M1 out g 0 KP=2e-4 VTH=0.5 LAMBDA=0.01";
            ".dc"; ".print out"; ".end"; "" ];
      node = "out";
      axes = [ axis rng "RD" 10e3 points ];
      corners = [];
      analyses = "dc,ac";
      defaults;
    }
  in
  let hard_dc =
    {
      name = "hard_dc";
      deck =
        String.concat "\n"
          [ "* stiff diode ladder"; ".param R1=" ^ j 10.0; "V1 vdd 0 DC 5"; "R1 vdd a {R1}";
            "D1 a b IS=1e-16"; "D2 b c IS=1e-16"; "D3 c 0 IS=1e-16"; ".dc"; ".print a"; ".end"; "" ];
      node = "a";
      axes = [ axis rng "R1" 10.0 (2 * points) ];
      corners = [];
      analyses = "dc";
      defaults;
    }
  in
  let small_ladder =
    let stages = 20 in
    let cards = ref [] in
    let node k = if k = stages then "out" else Printf.sprintf "l%d" k in
    for k = 0 to stages - 1 do
      cards :=
        Printf.sprintf "C%d %s 0 %s" k (node (k + 1)) (j 1e-12)
        :: Printf.sprintf "R%d %s %s %s" k (node k) (node (k + 1)) (if k = 0 then "{RS}" else j 100.0)
        :: !cards
    done;
    {
      name = "ladder";
      deck =
        String.concat "\n"
          (("* small RC ladder" :: (".param RS=" ^ j 50.0 ^ " RL=1k") :: "V1 l0 0 SIN(0 1 1meg)"
           :: List.rev !cards)
          @ [ "RL out 0 {RL}"; ".ac 1k 100meg"; ".print out"; ".end"; "" ]);
      node = "out";
      axes = [ axis rng "RS" 50.0 points ];
      corners = [ "tt:RL=1k"; "ff:RL=" ^ j 800.0 ];
      analyses = "dc,ac,tran";
      defaults;
    }
  in
  [ lowpass; rectifier; mos_amp; hard_dc; small_ladder ]

(* ---- optimize problem --------------------------------------------------- *)

(* Fixed for every seed (start, box and spec), so evals-to-spec is an exact
   count: an RC lowpass tuned from a far start to a passband/stopband mask. *)
let opt_deck =
  String.concat "\n"
    [ "* rfbench optimize deck: RC lowpass tuned to a mask"; ".param R1=1k"; ".param C2=1n";
      "V1 in 0 DC 0"; "R1 in out {R1}"; "C2 out 0 {C2}"; ".end"; "" ]

let opt_vars = [ "R1=100:100k:90k"; "C2=10p:100n:80n" ]
let opt_spec = [ "gain_db@1e4>=-1"; "stopband@1e7..1e8>=30" ]
