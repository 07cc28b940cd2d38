(* EXP-ABL -- ablations of the design choices DESIGN.md calls out.

   A. HB linear solver: the per-harmonic block preconditioner is what
      makes matrix-implicit GMRES viable (the paper's scalable-HB recipe);
      disabling it blows up the iteration count.
   B. HB direct vs matrix-implicit cost as the circuit grows: the dense
      Jacobian path scales as (N n)^3, the Krylov path as Newton x GMRES
      matvecs.
   C. Shooting integrator: backward Euler's numerical damping parks a weak
      oscillator at a spurious amplitude; the Gear-2 shooting engine finds
      the true orbit.
   D. IES3 compression tolerance: accuracy vs compression trade.
   E. MMFT slow-harmonic count: convergence of the Fig 4 outputs in K. *)

open Rfkit
open Rfkit_circuit
open Rfkit_circuits

(* a diode chain: enough nonlinear unknowns to exercise the solvers *)
let diode_chain stages =
  let nl = Netlist.create () in
  Netlist.vsource nl "V1" "n0" "0" (Wave.sine 1.5 10e6);
  for k = 1 to stages do
    Netlist.resistor nl (Printf.sprintf "R%d" k)
      (Printf.sprintf "n%d" (k - 1))
      (Printf.sprintf "n%d" k)
      200.0;
    Netlist.diode nl (Printf.sprintf "D%d" k) (Printf.sprintf "n%d" k) "0" ();
    Netlist.capacitor nl (Printf.sprintf "C%d" k) (Printf.sprintf "n%d" k) "0" 5e-12
  done;
  Mna.build nl

let hb_with ~solver ~precondition c =
  Util.converged (Rf.Hb.solve_outcome
    ~options:{ Rf.Hb.default_options with solver; precondition; n_samples = 32 }
    c ~freq:10e6)

let report () =
  Util.section "EXP-ABL | ablation studies";

  Util.subsection "A. HB preconditioner (per-harmonic complex blocks)";
  let c = diode_chain 6 in
  let with_p, t_with =
    Util.timed (fun () -> hb_with ~solver:Rf.Hb.Matrix_free_gmres ~precondition:true c)
  in
  let without_p, t_without =
    Util.timed (fun () -> hb_with ~solver:Rf.Hb.Matrix_free_gmres ~precondition:false c)
  in
  Printf.printf "  preconditioned:   %4d GMRES iterations, %.3f s\n"
    with_p.Rf.Hb.gmres_iters_total t_with;
  Printf.printf "  unpreconditioned: %4d GMRES iterations, %.3f s\n"
    without_p.Rf.Hb.gmres_iters_total t_without;
  Util.verdict ~label:"preconditioner earns its keep" ~paper:"(design choice)"
    ~measured:
      (Printf.sprintf "%.0fx fewer iterations"
         (float_of_int without_p.Rf.Hb.gmres_iters_total
         /. float_of_int (max 1 with_p.Rf.Hb.gmres_iters_total)))
    ~ok:(without_p.Rf.Hb.gmres_iters_total > 3 * with_p.Rf.Hb.gmres_iters_total);

  Util.subsection "B. HB direct vs matrix-implicit vs circuit size";
  Printf.printf "  %-10s %-12s %-14s %-14s\n" "stages" "unknowns" "direct (s)"
    "matrix-free (s)";
  List.iter
    (fun stages ->
      let c = diode_chain stages in
      let n = Mna.size c in
      let _, t_direct = Util.timed (fun () -> hb_with ~solver:Rf.Hb.Direct ~precondition:true c) in
      let _, t_mf =
        Util.timed (fun () -> hb_with ~solver:Rf.Hb.Matrix_free_gmres ~precondition:true c)
      in
      Printf.printf "  %-10d %-12d %-14.3f %-14.3f\n" stages (32 * n) t_direct t_mf)
    [ 2; 6; 12 ];
  Printf.printf "  (the dense path scales as (N n)^3; matrix-implicit GMRES is how the\n";
  Printf.printf "   paper's HB handles 'many more nonlinear components')\n";

  Util.subsection "C. shooting integrator: BE damping vs Gear-2";
  let bench = Noise.Oscillators.van_der_pol () in
  let analytic_amp = 2.0 /. sqrt 3.0 in
  (* plain BE integration stalls where numerical damping balances the
     negative resistance *)
  let m = 400 in
  let per = 1.0 /. bench.Noise.Oscillators.freq_guess in
  let h = per /. float_of_int m in
  let xbe = ref (La.Vec.create (Mna.size bench.Noise.Oscillators.circuit)) in
  bench.Noise.Oscillators.kick !xbe;
  for k = 1 to 40 * m do
    xbe :=
      Tran.implicit_step bench.Noise.Oscillators.circuit ~scheme:Tran.Be
        ~x_prev:!xbe
        ~t_prev:(float_of_int (k - 1) *. h)
        ~dt:h
  done;
  let be_amp = ref 0.0 in
  let probe = ref (La.Vec.copy !xbe) in
  for k = 1 to m do
    probe :=
      Tran.implicit_step bench.Noise.Oscillators.circuit ~scheme:Tran.Be
        ~x_prev:!probe
        ~t_prev:(float_of_int (k - 1) *. h)
        ~dt:h;
    be_amp := Float.max !be_amp (Float.abs !probe.(0))
  done;
  let orbit = Noise.Oscillators.solve ~steps_per_period:m bench in
  let gear_amp = Rf.Grid.amplitude (Rf.Shooting.waveform orbit "tank") 1 in
  Printf.printf "  analytic limit-cycle amplitude: %.4f V\n" analytic_amp;
  Printf.printf "  backward-Euler steady amplitude: %.4f V (numerically damped)\n" !be_amp;
  Printf.printf "  Gear-2 shooting amplitude:       %.4f V\n" gear_amp;
  Util.verdict ~label:"Gear-2 vs BE amplitude error" ~paper:"(design choice)"
    ~measured:
      (Printf.sprintf "%.1f%% vs %.1f%%"
         (100.0 *. Float.abs ((gear_amp /. analytic_amp) -. 1.0))
         (100.0 *. Float.abs ((!be_amp /. analytic_amp) -. 1.0)))
    ~ok:
      (Float.abs ((gear_amp /. analytic_amp) -. 1.0)
      < 0.2 *. Float.abs ((!be_amp /. analytic_amp) -. 1.0));

  Util.subsection "D. IES3 tolerance: accuracy vs compression";
  let plate =
    Em.Geo3.mesh_plate ~name:"p" ~origin:(Em.Geo3.v3 0.0 0.0 0.0)
      ~u:(Em.Geo3.v3 1e-3 0.0 0.0) ~v:(Em.Geo3.v3 0.0 1e-3 0.0) ~nu:24 ~nv:24
  in
  let p = Em.Mom.make Em.Kernel.free_space [| plate |] in
  let dense = Em.Mom.dense_matrix p in
  let n = Em.Mom.n_panels p in
  let xprobe = La.Vec.init n (fun i -> sin (float_of_int i)) in
  let y_ref = La.Mat.matvec dense xprobe in
  Printf.printf "  %-10s %-14s %-14s\n" "tol" "compression" "matvec rel err";
  List.iter
    (fun tol ->
      let t =
        Em.Ies3.build ~options:{ Em.Ies3.default_options with tol } ~n
          ~position:(fun i -> p.Em.Mom.panels.(i).Em.Geo3.center)
          (Em.Mom.entry p)
      in
      let st = Em.Ies3.stats t in
      let y = Em.Ies3.matvec t xprobe in
      Printf.printf "  %-10.0e %-14.2f %-14.2e\n" tol st.Em.Ies3.compression_ratio
        (La.Vec.dist2 y y_ref /. La.Vec.norm2 y_ref))
    [ 1e-2; 1e-4; 1e-6; 1e-8 ];

  Util.subsection "E. MMFT slow-harmonic count";
  let p = Mixer.paper_params in
  let c = Mixer.build p in
  Printf.printf "  %-6s %-12s %-12s\n" "K" "H1 (mV)" "H3 (mV)";
  List.iter
    (fun k ->
      match
        Rf.Mmft.solve_outcome
          ~options:{ Rf.Mmft.default_options with slow_harmonics = k; steps2 = 50 }
          c ~f1:p.Mixer.f_rf ~f2:p.Mixer.f_lo
      with
      | Rfkit.Solve.Supervisor.Converged (res, _) ->
          let a1 = Rf.Mmft.mix_amplitude res Mixer.output_node ~slow:1 ~fast:1 in
          let a3 =
            if k >= 3 then Rf.Mmft.mix_amplitude res Mixer.output_node ~slow:3 ~fast:1
            else nan
          in
          Printf.printf "  %-6d %-12.3f %-12.3f\n" k (a1 *. 1e3) (a3 *. 1e3)
      | Rfkit.Solve.Supervisor.Failed f ->
          Printf.printf "  %-6d %s\n" k
            (Rfkit.Solve.Error.to_string (Rfkit.Solve.Error.of_failure ~engine:"mmft" f)))
    [ 1; 2; 3; 4 ];
  Printf.printf "  (K = 3 -- the paper's choice -- already captures both outputs)\n"

let bench_tests =
  [
    Bechamel.Test.make ~name:"abl.hb_gmres_preconditioned"
      (Bechamel.Staged.stage (fun () ->
           hb_with ~solver:Rf.Hb.Matrix_free_gmres ~precondition:true (diode_chain 6)));
  ]
