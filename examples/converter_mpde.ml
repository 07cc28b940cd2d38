(* The purely time-domain MPDE methods on their home turf: a switched
   power converter ("non-RF circuits such as power converters ... can also
   be treated effectively with the MPDE", and MFDTD/HS are "appropriate
   for circuits with no sinusoidal waveform components, such as power
   converters").

   A 1 MHz PWM buck-style stage whose input is modulated at 1 kHz: the
   quasi-periodic steady state is found by MFDTD and by hierarchical
   shooting (which must agree), and the start-up transient of the
   fast-periodic state by the time-domain envelope method -- none of which
   ever integrates the thousand PWM cycles per modulation period that
   brute-force transient analysis needs.

     dune exec examples/converter_mpde.exe *)

open Rfkit
open Rfkit_circuits

let converged = function
  | Solve.Supervisor.Converged (r, _) -> r
  | Solve.Supervisor.Failed f -> failwith (Solve.Supervisor.failure_to_string f)

let () =
  let p = Converter.default_params in
  let c = Converter.build p in
  Printf.printf "PWM converter: %.0f kHz switching, %.0f Hz modulation (ratio %.0f)\n\n"
    (p.Converter.f_pwm /. 1e3) p.Converter.f_mod
    (p.Converter.f_pwm /. p.Converter.f_mod);

  (* --- MFDTD ----------------------------------------------------------- *)
  let mf, t_mf =
    (fun f -> let t0 = Unix.gettimeofday () in let r = f () in (r, Unix.gettimeofday () -. t0))
      (fun () ->
        converged @@ Rf.Mfdtd.solve_outcome
          ~options:{ Rf.Mfdtd.default_options with n1 = 16; n2 = 40 }
          c ~f1:p.Converter.f_mod ~f2:p.Converter.f_pwm)
  in
  Printf.printf "MFDTD (16 x 40 grid): %d Newton iterations, %.2f s\n"
    mf.Rf.Mfdtd.newton_iters t_mf;

  (* --- hierarchical shooting ------------------------------------------- *)
  let hs, t_hs =
    (fun f -> let t0 = Unix.gettimeofday () in let r = f () in (r, Unix.gettimeofday () -. t0))
      (fun () ->
        converged @@ Rf.Hs.solve_outcome
          ~options:{ Rf.Hs.default_options with n1 = 16; steps2 = 40 }
          c ~f1:p.Converter.f_mod ~f2:p.Converter.f_pwm)
  in
  Printf.printf "hierarchical shooting:  %d Gauss-Seidel sweeps,  %.2f s\n"
    hs.Rf.Hs.sweeps t_hs;
  let gm = Rf.Mfdtd.node_grid mf Converter.output_node in
  let gh = Rf.Hs.node_grid hs Converter.output_node in
  Printf.printf "cross-check: max |MFDTD - HS| on the bivariate grid = %.2e V\n\n"
    (La.Mat.max_abs (La.Mat.sub gm gh));

  (* the bivariate picture: vout(t1 slow, t2 fast) *)
  Printf.printf "bivariate steady state vout(t1, :) -- fast-axis mean and ripple:\n";
  Printf.printf "  %-12s %-10s %-10s\n" "t1 (of T1)" "mean (V)" "ripple (mV)";
  for i1 = 0 to 15 do
    if i1 mod 2 = 0 then begin
      let row = La.Mat.row gm i1 in
      let mean = La.Stats.mean row in
      let mn = Array.fold_left Float.min infinity row in
      let mx = Array.fold_left Float.max neg_infinity row in
      Printf.printf "  %-12.3f %-10.4f %-10.2f\n"
        (float_of_int i1 /. 16.0)
        mean
        ((mx -. mn) *. 1e3)
    end
  done;
  Printf.printf "(the mean tracks the 1 kHz modulation; the ripple is the PWM tooth)\n\n";

  (* --- time-domain envelope: start-up ---------------------------------- *)
  let env =
    converged @@ Rf.Envelope.run_outcome
      ~options:{ Rf.Envelope.steps2 = 40; n1 = 30 }
      c ~f1:p.Converter.f_mod ~f2:p.Converter.f_pwm
      ~t1_stop:(1.0 /. p.Converter.f_mod)
  in
  let dc = Rf.Envelope.envelope_magnitude env Converter.output_node ~harmonic:0 in
  Printf.printf "envelope method: DC component of vout along slow time:\n  ";
  Array.iteri (fun i v -> if i mod 3 = 0 then Printf.printf "%.3f " v) dc;
  Printf.printf "\n(one fast-periodic solve per slow step, never 1000 PWM cycles)\n"
