(* Quickstart: build a circuit, run the four basic analyses.

   A diode rectifier driven at 10 MHz: DC operating point, transient
   start-up, AC small-signal sweep, and harmonic-balance steady state.

     dune exec examples/quickstart.exe *)

open Rfkit
open Circuit

let converged = function
  | Solve.Supervisor.Converged (r, _) -> r
  | Solve.Supervisor.Failed f -> failwith (Solve.Supervisor.failure_to_string f)

let () =
  (* 1. describe the circuit ------------------------------------------- *)
  let nl = Netlist.create () in
  Netlist.vsource nl "V1" "in" "0"
    (Wave.Sine { ampl = 2.0; freq = 10e6; phase = 0.0; offset = 0.7 });
  Netlist.resistor nl "RS" "in" "a" 50.0;
  Netlist.diode nl "D1" "a" "out" ();
  Netlist.resistor nl "RL" "out" "0" 10e3;
  Netlist.capacitor nl "CL" "out" "0" 100e-12;
  let c = Mna.build nl in
  Printf.printf "circuit: %d unknowns (%d nodes + branch currents)\n\n"
    (Mna.size c) (Mna.n_nodes c);

  (* 2. DC operating point --------------------------------------------- *)
  let x_dc = converged (Dc.solve_outcome c) in
  Printf.printf "DC operating point (sources at their average, diode weakly on):\n";
  List.iter
    (fun node -> Printf.printf "  v(%s) = %.6f V\n" node x_dc.(Mna.node c node))
    [ "in"; "a"; "out" ];

  (* 3. transient: rectifier charging the hold capacitor ---------------- *)
  let tran = Tran.run c ~t_stop:1e-6 ~dt:1e-9 in
  let vout = Tran.voltage_trace c tran "out" in
  Printf.printf "\ntransient (10 cycles): v(out) reaches %.3f V\n"
    vout.(Array.length vout - 1);

  (* 4. AC small-signal sweep around the operating point ---------------- *)
  let freqs = Ac.log_freqs ~f_start:1e5 ~f_stop:1e9 ~points_per_decade:2 in
  let ac = Ac.sweep c ~source:"V1" ~freqs in
  let h = Ac.transfer c ac "out" in
  Printf.printf "\nAC sweep |v(out)/v(in)|:\n";
  Array.iteri
    (fun i hz ->
      if i mod 3 = 0 then
        Printf.printf "  %9.3e Hz: %6.2f dB\n" freqs.(i) (La.Stats.db20 (La.Cx.abs hz)))
    h;

  (* 5. harmonic balance: the periodic steady state directly ------------ *)
  let hb = converged (Rf.Hb.solve_outcome c ~freq:10e6) in
  Printf.printf "\nharmonic balance (%d Newton iterations, residual %.1e):\n"
    hb.Rf.Hb.newton_iters hb.Rf.Hb.residual;
  for k = 0 to 4 do
    Printf.printf "  harmonic %d of v(out): %.4f V\n" k
      (Rf.Hb.harmonic_amplitude hb "out" k)
  done;
  Printf.printf "\nThe DC term is the rectified output; even harmonics show the\n";
  Printf.printf "half-wave asymmetry. Compare the transient's settled value with\n";
  Printf.printf "harmonic 0 -- HB got there without integrating the start-up.\n"
