(* Tests for the rfkit_circuit SPICE-class substrate. *)

open Rfkit_la
open Rfkit_circuit

let check_float ?(eps = 1e-9) msg expected actual =
  Alcotest.(check (float eps)) msg expected actual

let converged = function
  | Rfkit_solve.Supervisor.Converged (r, _) -> r
  | Rfkit_solve.Supervisor.Failed f ->
      Alcotest.fail (Rfkit_solve.Supervisor.failure_to_string f)

(* ----------------------------------------------------------------- Wave *)

let test_wave_sine () =
  let w = Wave.sine 2.0 1e3 in
  check_float "zero crossing" 0.0 (Wave.eval w 0.0);
  check_float "peak" 2.0 (Wave.eval w 0.25e-3);
  check_float "dc" 0.0 (Wave.dc_value w);
  Alcotest.(check (list (float 1e-9))) "fundamental" [ 1e3 ] (Wave.fundamentals w)

let test_wave_square () =
  let w = Wave.square ~rise:0.01 1.0 1e6 in
  check_float "plateau high" 1.0 (Wave.eval w 0.25e-6);
  check_float "plateau low" (-1.0) (Wave.eval w 0.75e-6);
  (* edges pass through zero at period boundaries *)
  check_float "edge center" 0.0 (Wave.eval w 0.0)

let test_wave_sum () =
  let w = Wave.two_tone 1.0 1e3 0.5 2e3 in
  Alcotest.(check (list (float 1e-9))) "two fundamentals" [ 1e3; 2e3 ] (Wave.fundamentals w);
  check_float ~eps:1e-12 "superposition" (Wave.eval w 1e-4)
    (Wave.eval (Wave.sine 1.0 1e3) 1e-4 +. Wave.eval (Wave.sine 0.5 2e3) 1e-4)

let test_wave_pwl () =
  let w = Wave.Pwl [| (0.0, 0.0); (1.0, 2.0); (2.0, 2.0) |] in
  check_float "interp" 1.0 (Wave.eval w 0.5);
  check_float "clamp" 2.0 (Wave.eval w 5.0)

(* ------------------------------------------------------------------- DC *)

let divider () =
  let nl = Netlist.create () in
  Netlist.vsource nl "V1" "in" "0" (Wave.Dc 10.0);
  Netlist.resistor nl "R1" "in" "out" 1e3;
  Netlist.resistor nl "R2" "out" "0" 3e3;
  nl

let test_dc_divider () =
  let c = Mna.build (divider ()) in
  let x = converged (Dc.solve_outcome c) in
  check_float "input node" 10.0 x.(Mna.node c "in");
  check_float "divider output" 7.5 x.(Mna.node c "out")

let test_dc_branch_current () =
  let c = Mna.build (divider ()) in
  let x = converged (Dc.solve_outcome c) in
  match Mna.branch_index c "V1" with
  | None -> Alcotest.fail "V1 should have a branch current"
  | Some bi ->
      (* current through source = -10/(4k) flowing out of + terminal *)
      check_float ~eps:1e-12 "source current" (-.(10.0 /. 4e3)) x.(bi)

(* the engines' DC seed falls back to zeros on a failed DC, but a pending
   interrupt must reach the enclosing supervisor instead *)
let test_dc_point_interrupt () =
  let c = Mna.build (divider ()) in
  check_float "seed is the operating point" 7.5 (Dc.dc_point c).(Mna.node c "out");
  let module D = Rfkit_solve.Deadline in
  D.request_interrupt ();
  let raised =
    Fun.protect ~finally:D.clear_interrupt (fun () ->
        match Dc.dc_point c with _ -> false | exception D.Interrupted -> true)
  in
  Alcotest.(check bool) "pending interrupt re-raised, not zeros" true raised

let test_dc_diode_clamp () =
  (* V -> R -> diode to ground: diode drop should be near 0.6-0.8 V *)
  let nl = Netlist.create () in
  Netlist.vsource nl "V1" "in" "0" (Wave.Dc 5.0);
  Netlist.resistor nl "R1" "in" "d" 1e3;
  Netlist.diode nl "D1" "d" "0" ();
  let c = Mna.build nl in
  let x = converged (Dc.solve_outcome c) in
  let vd = x.(Mna.node c "d") in
  Alcotest.(check bool) "diode drop plausible" true (vd > 0.5 && vd < 0.85);
  (* KCL: current through R equals diode current *)
  let ir = (5.0 -. vd) /. 1e3 in
  let id = 1e-14 *. (Float.exp (vd /. 0.02585) -. 1.0) in
  check_float ~eps:1e-9 "KCL at diode node" ir id

let test_dc_mosfet_saturation () =
  (* common-source stage biased in saturation *)
  let nl = Netlist.create () in
  Netlist.vsource nl "VDD" "vdd" "0" (Wave.Dc 3.0);
  Netlist.vsource nl "VG" "g" "0" (Wave.Dc 1.0);
  Netlist.resistor nl "RD" "vdd" "d" 10e3;
  Netlist.mosfet nl "M1" ~d:"d" ~g:"g" ~s:"0" ~kp:2e-4 ~vth:0.5 ~lambda:0.0 ();
  let c = Mna.build nl in
  let x = converged (Dc.solve_outcome c) in
  let vd = x.(Mna.node c "d") in
  (* Id = 0.5*2e-4*0.25 = 25 uA, Vd = 3 - 0.25 = 2.75 *)
  check_float ~eps:1e-6 "drain voltage" 2.75 vd

let test_dc_vccs () =
  let nl = Netlist.create () in
  Netlist.vsource nl "V1" "in" "0" (Wave.Dc 2.0);
  Netlist.vccs nl "G1" "0" "out" "in" "0" 1e-3;
  Netlist.resistor nl "RL" "out" "0" 1e3;
  let c = Mna.build nl in
  let x = converged (Dc.solve_outcome c) in
  (* current 1e-3*2 flows from node 0 to out inside device -> out rises *)
  check_float "vccs output" 2.0 x.(Mna.node c "out")

(* ------------------------------------------------------------ Transient *)

let test_tran_rc_charge () =
  (* RC step response: v(t) = V (1 - e^{-t/RC}) *)
  let r = 1e3 and cap = 1e-6 in
  let nl = Netlist.create () in
  Netlist.vsource nl "V1" "in" "0" (Wave.Dc 1.0);
  Netlist.resistor nl "R1" "in" "out" r;
  Netlist.capacitor nl "C1" "out" "0" cap;
  let c = Mna.build nl in
  let tau = r *. cap in
  let x0 = Vec.create (Mna.size c) in
  (* start discharged: set the source node consistently *)
  let res = Tran.run ~x0 c ~t_stop:(5.0 *. tau) ~dt:(tau /. 200.0) in
  let vout = Tran.voltage_trace c res "out" in
  let n = Array.length vout in
  let t_end = res.Tran.times.(n - 1) in
  let expected = 1.0 -. Float.exp (-.t_end /. tau) in
  check_float ~eps:1e-3 "final value" expected vout.(n - 1);
  (* value at one tau *)
  let idx_tau = int_of_float (Float.of_int n *. 0.2) in
  let v_tau = vout.(idx_tau) in
  let expected_tau = 1.0 -. Float.exp (-.res.Tran.times.(idx_tau) /. tau) in
  check_float ~eps:5e-3 "value near tau" expected_tau v_tau

let test_tran_lc_oscillation () =
  (* undriven LC tank with initial capacitor charge conserves energy and
     oscillates at 1/(2 pi sqrt(LC)) *)
  let l = 1e-6 and cap = 1e-9 in
  let nl = Netlist.create () in
  Netlist.capacitor nl "C1" "a" "0" cap;
  Netlist.inductor nl "L1" "a" "0" l;
  let c = Mna.build nl in
  let x0 = Vec.create (Mna.size c) in
  x0.(Mna.node c "a") <- 1.0;
  let f0 = 1.0 /. (2.0 *. Float.pi *. sqrt (l *. cap)) in
  let per = 1.0 /. f0 in
  let res = Tran.run ~method_:Tran.Trapezoidal ~x0 c ~t_stop:(3.0 *. per) ~dt:(per /. 400.0) in
  let va = Tran.voltage_trace c res "a" in
  (* after exactly 3 periods the voltage returns near +1 *)
  let n = Array.length va in
  check_float ~eps:2e-2 "returns after 3 periods" 1.0 va.(n - 1)

let test_tran_adaptive_matches_fixed () =
  let nl = Netlist.create () in
  Netlist.vsource nl "V1" "in" "0" (Wave.sine 1.0 1e3);
  Netlist.resistor nl "R1" "in" "out" 1e3;
  Netlist.capacitor nl "C1" "out" "0" 0.2e-6 ;
  let c = Mna.build nl in
  let t_stop = 2e-3 in
  let fixed = Tran.run c ~t_stop ~dt:1e-7 in
  let adaptive = Tran.run_adaptive ~lte_tol:1e-8 c ~t_stop ~dt0:1e-6 in
  let vf = Tran.voltage_trace c fixed "out" in
  let va = Tran.voltage_trace c adaptive "out" in
  let last_fixed = vf.(Array.length vf - 1) in
  let last_adaptive = va.(Array.length va - 1) in
  check_float ~eps:1e-3 "fixed vs adaptive endpoint" last_fixed last_adaptive;
  Alcotest.(check bool) "adaptive used fewer steps" true
    (Array.length adaptive.Tran.times < Array.length fixed.Tran.times)

(* ------------------------------------------------------------------- AC *)

let test_ac_rc_lowpass () =
  let r = 1e3 and cap = 1e-9 in
  let nl = Netlist.create () in
  Netlist.vsource nl "V1" "in" "0" (Wave.Dc 0.0);
  Netlist.resistor nl "R1" "in" "out" r;
  Netlist.capacitor nl "C1" "out" "0" cap;
  let c = Mna.build nl in
  let fc = 1.0 /. (2.0 *. Float.pi *. r *. cap) in
  let res = Ac.sweep c ~source:"V1" ~freqs:[| fc /. 100.0; fc; fc *. 100.0 |] in
  let h = Ac.transfer c res "out" in
  check_float ~eps:1e-4 "passband gain" 1.0 (Cx.abs h.(0));
  check_float ~eps:1e-4 "corner -3dB" (1.0 /. sqrt 2.0) (Cx.abs h.(1));
  Alcotest.(check bool) "stopband rolloff" true (Cx.abs h.(2) < 0.011);
  (* phase at corner is -45 degrees *)
  check_float ~eps:1e-3 "corner phase" (-.Float.pi /. 4.0) (Cx.arg h.(1))

let test_ac_rlc_resonance () =
  let r = 10.0 and l = 1e-6 and cap = 1e-9 in
  let nl = Netlist.create () in
  Netlist.vsource nl "V1" "in" "0" (Wave.Dc 0.0);
  Netlist.resistor nl "R1" "in" "out" r;
  Netlist.inductor nl "L1" "out" "mid" l;
  Netlist.capacitor nl "C1" "mid" "0" cap;
  let c = Mna.build nl in
  let f0 = 1.0 /. (2.0 *. Float.pi *. sqrt (l *. cap)) in
  let res = Ac.sweep c ~source:"V1" ~freqs:[| f0 |] in
  let h = Ac.transfer c res "out" in
  (* at series resonance the LC is a short: out ~ 0 *)
  Alcotest.(check bool) "series resonance short" true (Cx.abs h.(0) < 1e-6)

let test_ac_output_noise_resistor () =
  (* noise of a lone resistor loaded by an ideal capacitor: at f -> 0 the
     output PSD approaches 4kTR *)
  let r = 1e3 in
  let nl = Netlist.create () in
  Netlist.resistor nl "R1" "out" "0" r;
  Netlist.capacitor nl "C1" "out" "0" 1e-12 ;
  let c = Mna.build nl in
  let psd = Ac.output_noise c ~node:"out" ~freqs:[| 1.0 |] in
  let expected = 4.0 *. Device.boltzmann *. Device.room_temp *. r in
  check_float ~eps:(expected *. 1e-6) "4kTR" expected psd.(0)

(* ------------------------------------------------------------ KCL/charge *)

let test_kcl_conservation () =
  (* sum of f over node rows of a floating internal net must vanish for
     any state: currents only redistribute *)
  let nl = Netlist.create () in
  Netlist.isource nl "I1" "a" "0" (Wave.Dc 1e-3);
  Netlist.resistor nl "R1" "a" "b" 1e3;
  Netlist.resistor nl "R2" "b" "0" 1e3;
  Netlist.capacitor nl "C1" "b" "0" 1e-9;
  let c = Mna.build nl in
  let x = Vec.init (Mna.size c) (fun i -> 0.1 *. float_of_int (i + 1)) in
  let f = Mna.eval_f c x in
  (* current into b from R1 equals out through R2 plus... verify b row *)
  let va = x.(Mna.node c "a") and vb = x.(Mna.node c "b") in
  let expect = ((vb -. va) /. 1e3) +. (vb /. 1e3) in
  check_float ~eps:1e-12 "node b KCL assembly" expect f.(Mna.node c "b")

let test_jacobian_matches_fd () =
  (* G(x) must match finite differences of f on a nonlinear circuit *)
  let nl = Netlist.create () in
  Netlist.isource nl "I1" "a" "0" (Wave.Dc 1e-3);
  Netlist.diode nl "D1" "a" "b" ();
  Netlist.cubic_conductor nl "Q1" "b" "0" ~g1:(-1e-3) ~g3:1e-3;
  Netlist.tanh_gm nl "GM1" "b" "0" "a" "0" ~gm:2e-3 ~vsat:0.5;
  Netlist.nl_capacitor nl "CV" "a" "0" ~c0:1e-12 ~c1:1e-13;
  let c = Mna.build nl in
  let n = Mna.size c in
  let x = Vec.init n (fun i -> 0.3 +. (0.1 *. float_of_int i)) in
  let g = Mna.jac_g c x in
  let h = 1e-7 in
  for j = 0 to n - 1 do
    let xp = Vec.copy x and xm = Vec.copy x in
    xp.(j) <- xp.(j) +. h;
    xm.(j) <- xm.(j) -. h;
    let fp = Mna.eval_f c xp and fm = Mna.eval_f c xm in
    for i = 0 to n - 1 do
      let fd = (fp.(i) -. fm.(i)) /. (2.0 *. h) in
      check_float ~eps:1e-4 (Printf.sprintf "G(%d,%d)" i j) fd (Mat.get g i j)
    done
  done;
  (* and C(x) vs finite differences of q *)
  let cm = Mna.jac_c c x in
  for j = 0 to n - 1 do
    let xp = Vec.copy x and xm = Vec.copy x in
    xp.(j) <- xp.(j) +. h;
    xm.(j) <- xm.(j) -. h;
    let qp = Mna.eval_q c xp and qm = Mna.eval_q c xm in
    for i = 0 to n - 1 do
      let fd = (qp.(i) -. qm.(i)) /. (2.0 *. h) in
      check_float ~eps:1e-6 (Printf.sprintf "C(%d,%d)" i j) fd (Mat.get cm i j)
    done
  done

let test_mosfet_jacobian_fd () =
  let nl = Netlist.create () in
  Netlist.vsource nl "VD" "d" "0" (Wave.Dc 1.2);
  Netlist.vsource nl "VG" "g" "0" (Wave.Dc 0.9);
  Netlist.mosfet nl "M1" ~d:"d" ~g:"g" ~s:"0" ();
  let c = Mna.build nl in
  let n = Mna.size c in
  (* evaluate at a biased state, including a reverse-vds variant *)
  List.iter
    (fun vds ->
      let x = Vec.create n in
      x.(Mna.node c "d") <- vds;
      x.(Mna.node c "g") <- 0.9;
      let g = Mna.jac_g c x in
      let h = 1e-7 in
      for j = 0 to n - 1 do
        let xp = Vec.copy x and xm = Vec.copy x in
        xp.(j) <- xp.(j) +. h;
        xm.(j) <- xm.(j) -. h;
        let fp = Mna.eval_f c xp and fm = Mna.eval_f c xm in
        for i = 0 to n - 1 do
          let fd = (fp.(i) -. fm.(i)) /. (2.0 *. h) in
          check_float ~eps:1e-5
            (Printf.sprintf "vds=%g G(%d,%d)" vds i j)
            fd (Mat.get g i j)
        done
      done)
    [ 1.2; -0.7 ]

(* ----------------------------------------------------------------- Deck *)

let test_deck_values () =
  check_float "kilo" 1e3 (Deck.parse_value "1k");
  check_float "meg" 2.2e6 (Deck.parse_value "2.2meg");
  check_float "micro" 1.5e-6 (Deck.parse_value "1.5u");
  check_float "pico" 3e-12 (Deck.parse_value "3p");
  check_float "plain" 42.0 (Deck.parse_value "42");
  check_float "unit tail" 1e3 (Deck.parse_value "1kohm")

let test_deck_parse_divider () =
  let text =
    "* divider\nV1 in 0 DC 10\nR1 in out 1k\nR2 out 0 3k\n.dc\n.print out\n.end\n"
  in
  let nl, dirs = Deck.parse_string text in
  let c = Mna.build nl in
  let x = converged (Dc.solve_outcome c) in
  check_float "parsed divider" 7.5 x.(Mna.node c "out");
  Alcotest.(check int) "directives" 2 (List.length dirs)

let test_deck_sources () =
  let text = "V1 a 0 SIN(0 2 1e6)\nR1 a 0 1k\nI2 0 b SQUARE(1m 1e3)\nR2 b 0 2k\n" in
  let nl, _ = Deck.parse_string text in
  let c = Mna.build nl in
  Alcotest.(check (list (float 1e-6))) "fundamentals" [ 1e3; 1e6 ] (Mna.fundamentals c)

let test_deck_error () =
  Alcotest.check_raises "bad card"
    (Deck.Parse_error (1, "unrecognized card: X1 a b c"))
    (fun () -> ignore (Deck.parse_string "X1 a b c"))

(* ----------------------------------------------------------------- Noise *)

let test_noise_sources_enumeration () =
  let nl = Netlist.create () in
  Netlist.resistor nl "R1" "a" "0" 1e3;
  Netlist.capacitor nl "C1" "a" "0" 1e-12;
  Netlist.diode nl "D1" "a" "0" ();
  let c = Mna.build nl in
  let srcs = Mna.noise_sources c in
  Alcotest.(check int) "two noisy devices" 2 (Array.length srcs);
  let x = Vec.create (Mna.size c) in
  let r_psd = srcs.(0).Device.psd_at x in
  check_float ~eps:1e-30 "resistor psd"
    (4.0 *. Device.boltzmann *. Device.room_temp /. 1e3)
    r_psd

(* ----------------------------------------------------------- two-port *)

let test_two_port_z_of_pi_network () =
  (* resistive pi network: Z matrix has a closed form.
     Shunt Ra at port1, series Rb, shunt Rc at port2. *)
  let ra = 100.0 and rb = 50.0 and rc = 200.0 in
  let nl = Netlist.create () in
  Netlist.isource nl "I1" "p1" "0" (Wave.Dc 0.0);
  Netlist.isource nl "I2" "p2" "0" (Wave.Dc 0.0);
  Netlist.resistor nl "RA" "p1" "0" ra;
  Netlist.resistor nl "RB" "p1" "p2" rb;
  Netlist.resistor nl "RC" "p2" "0" rc;
  let c = Mna.build nl in
  let z = Ac.two_port_z c ~port1:("p1", "I1") ~port2:("p2", "I2") ~freq:1e3 in
  (* analytic: Y = [[1/ra + 1/rb, -1/rb], [-1/rb, 1/rc + 1/rb]]; Z = Y^-1 *)
  let y11 = (1.0 /. ra) +. (1.0 /. rb) in
  let y22 = (1.0 /. rc) +. (1.0 /. rb) in
  let y12 = -1.0 /. rb in
  let det = (y11 *. y22) -. (y12 *. y12) in
  check_float ~eps:1e-9 "z11" (y22 /. det) (Cmat.get z 0 0).Cx.re;
  check_float ~eps:1e-9 "z12" (-.y12 /. det) (Cmat.get z 0 1).Cx.re;
  check_float ~eps:1e-9 "z21" (-.y12 /. det) (Cmat.get z 1 0).Cx.re;
  check_float ~eps:1e-9 "z22" (y11 /. det) (Cmat.get z 1 1).Cx.re;
  (* and through Sparams: passive network => |S| <= 1 *)
  let s = Rfkit_em.Sparams.s_of_z z in
  for i = 0 to 1 do
    for j = 0 to 1 do
      Alcotest.(check bool) "passive" true (Cx.abs (Cmat.get s i j) <= 1.0 +. 1e-12)
    done
  done

let test_deck_noise_current_card () =
  let text = "N1 a 0 WHITE=1e-20 FC=1e5\nR1 a 0 1k\nC1 a 0 1p\n" in
  let nl, _ = Deck.parse_string text in
  let c = Mna.build nl in
  let srcs = Mna.noise_sources c in
  Alcotest.(check int) "two sources" 2 (Array.length srcs);
  let excess =
    Array.to_list srcs
    |> List.find (fun (s : Device.noise_source) -> s.Device.label = "N1:excess")
  in
  check_float ~eps:1e-30 "white psd" 1e-20 (excess.Device.psd_at (Vec.create (Mna.size c)));
  check_float ~eps:1e-6 "flicker corner" 1e5 excess.Device.flicker_corner

(* ------------------------------------------------------------- failures *)

let test_floating_node_fails_gracefully () =
  (* a node with no DC path anywhere: the MNA matrix is singular and DC
     must report a typed failure instead of crashing or looping *)
  let nl = Netlist.create () in
  Netlist.capacitor nl "C1" "float" "a" 1e-12;
  Netlist.capacitor nl "C2" "a" "0" 1e-12;
  Netlist.isource nl "I1" "a" "0" (Wave.Dc 1e-3);
  let c = Mna.build nl in
  match Dc.solve_outcome c with
  | Rfkit_solve.Supervisor.Converged _ -> Alcotest.fail "floating node converged"
  | Rfkit_solve.Supervisor.Failed f ->
      Alcotest.(check string) "dc engine" "dc" f.Rfkit_solve.Supervisor.f_engine

let test_ground_is_not_an_unknown () =
  let nl = Netlist.create () in
  Netlist.resistor nl "R1" "a" "0" 1e3;
  let c = Mna.build nl in
  Alcotest.(check bool) "gnd lookup raises" true
    (try
       ignore (Mna.node c "gnd");
       false
     with Not_found -> true)

let test_unknown_node_is_not_created () =
  let nl = divider () in
  let c = Mna.build nl in
  let nodes = Netlist.node_count nl in
  Alcotest.(check bool) "unknown name raises" true
    (try
       ignore (Mna.node c "zzz");
       false
     with Not_found -> true);
  Alcotest.(check int) "netlist unchanged" nodes (Netlist.node_count nl);
  Alcotest.(check bool) "still unknown" true (Netlist.find_node nl "zzz" = None)

let test_deck_rejects_bad_directive () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Deck.parse_string "R1 a 0 1k\n.bogus 1 2\n");
       false
     with Deck.Parse_error _ -> true)

(* ------------------------------------------------------------ properties *)

let qcheck_suite =
  let open QCheck in
  let pos_values =
    make
      Gen.(list_size (int_range 2 6) (float_range 0.1 100.0))
      ~print:Print.(list float)
  in
  [
    Test.make ~name:"wave: Sum evaluates to the sum" ~count:50 pos_values
      (fun amps ->
        let waves = List.mapi (fun i a -> Wave.sine a (1e3 *. float_of_int (i + 1))) amps in
        let t = 1.234e-4 in
        Float.abs
          (Wave.eval (Wave.Sum waves) t
          -. List.fold_left (fun acc w -> acc +. Wave.eval w t) 0.0 waves)
        < 1e-9);
    Test.make ~name:"mna: linear circuit f is additive" ~count:50 pos_values
      (fun rs ->
        let nl = Netlist.create () in
        List.iteri
          (fun i r ->
            Netlist.resistor nl
              (Printf.sprintf "R%d" i)
              (Printf.sprintf "n%d" i)
              (Printf.sprintf "n%d" (i + 1))
              (r *. 100.0))
          rs;
        Netlist.resistor nl "RG" "n0" "0" 1e3;
        let c = Mna.build nl in
        let n = Mna.size c in
        let x = Vec.init n (fun i -> sin (float_of_int i)) in
        let y = Vec.init n (fun i -> cos (float_of_int (2 * i))) in
        let lhs = Mna.eval_f c (Vec.add x y) in
        let rhs = Vec.add (Mna.eval_f c x) (Mna.eval_f c y) in
        Vec.dist2 lhs rhs < 1e-9 *. (1.0 +. Vec.norm2 lhs));
    Test.make ~name:"mna: floating subnetwork conserves current" ~count:50
      pos_values (fun rs ->
        (* a resistor chain touching ground only at the last node: the sum
           of KCL rows equals the current into that grounded element *)
        let nl = Netlist.create () in
        List.iteri
          (fun i r ->
            Netlist.resistor nl
              (Printf.sprintf "R%d" i)
              (Printf.sprintf "n%d" i)
              (Printf.sprintf "n%d" (i + 1))
              (r *. 100.0))
          rs;
        let last = Printf.sprintf "n%d" (List.length rs) in
        Netlist.resistor nl "RG" last "0" 1e3;
        let c = Mna.build nl in
        let n = Mna.size c in
        let x = Vec.init n (fun i -> 0.3 *. float_of_int (i + 1)) in
        let f = Mna.eval_f c x in
        let total = Array.fold_left ( +. ) 0.0 f in
        let i_ground = Mna.voltage c x (Mna.node c last) /. 1e3 in
        Float.abs (total -. i_ground) < 1e-9 *. (1.0 +. Float.abs i_ground));
    Test.make ~name:"deck: engineering suffixes scale correctly" ~count:50
      (QCheck.make Gen.(pair (float_range 0.1 999.0) (int_range 0 6))
         ~print:Print.(pair float int))
      (fun (v, i) ->
        let suffixes = [| "f"; "p"; "n"; "u"; "m"; "k"; "meg" |] in
        let mults = [| 1e-15; 1e-12; 1e-9; 1e-6; 1e-3; 1e3; 1e6 |] in
        let s = Printf.sprintf "%.17g%s" v suffixes.(i) in
        let parsed = Deck.parse_value s in
        Float.abs (parsed -. (v *. mults.(i))) < 1e-9 *. Float.abs parsed);
  ]

let suite =
  let tc name f = Alcotest.test_case name `Quick f in
  [
    ( "circuit.wave",
      [
        tc "sine" test_wave_sine;
        tc "square" test_wave_square;
        tc "sum" test_wave_sum;
        tc "pwl" test_wave_pwl;
      ] );
    ( "circuit.dc",
      [
        tc "divider" test_dc_divider;
        tc "branch current" test_dc_branch_current;
        tc "diode clamp" test_dc_diode_clamp;
        tc "mosfet saturation" test_dc_mosfet_saturation;
        tc "vccs" test_dc_vccs;
        tc "dc_point re-raises an interrupt" test_dc_point_interrupt;
      ] );
    ( "circuit.tran",
      [
        tc "rc charge" test_tran_rc_charge;
        tc "lc oscillation" test_tran_lc_oscillation;
        tc "adaptive vs fixed" test_tran_adaptive_matches_fixed;
      ] );
    ( "circuit.ac",
      [
        tc "rc lowpass" test_ac_rc_lowpass;
        tc "rlc resonance" test_ac_rlc_resonance;
        tc "resistor noise" test_ac_output_noise_resistor;
      ] );
    ( "circuit.consistency",
      [
        tc "kcl assembly" test_kcl_conservation;
        tc "jacobian vs fd" test_jacobian_matches_fd;
        tc "mosfet jacobian" test_mosfet_jacobian_fd;
      ] );
    ( "circuit.deck",
      [
        tc "values" test_deck_values;
        tc "divider" test_deck_parse_divider;
        tc "sources" test_deck_sources;
        tc "parse error" test_deck_error;
      ] );
    ("circuit.noise", [ tc "enumeration" test_noise_sources_enumeration ]);
    ( "circuit.twoport",
      [
        tc "pi network z matrix" test_two_port_z_of_pi_network;
        tc "noise current card" test_deck_noise_current_card;
      ] );
    ( "circuit.failures",
      [
        tc "floating node" test_floating_node_fails_gracefully;
        tc "ground not unknown" test_ground_is_not_an_unknown;
        tc "unknown node not created" test_unknown_node_is_not_created;
        tc "bad directive" test_deck_rejects_bad_directive;
      ] );
    ("circuit.properties", List.map QCheck_alcotest.to_alcotest qcheck_suite);
  ]
