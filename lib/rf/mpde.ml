open Rfkit_la
open Rfkit_circuit

let is_multiple f base =
  if base <= 0.0 then false
  else begin
    let ratio = f /. base in
    Float.abs (ratio -. Float.round ratio) < 1e-6 && ratio > 0.5
  end

let rec split_wave_multi ~tones w =
  let d = Array.length tones in
  let zeroes () = Array.make d (Wave.Dc 0.0) in
  match w with
  | _ when d = 1 -> [| w |] (* one axis: nothing to split *)
  | Wave.Dc _ | Wave.Pwl _ ->
      let out = zeroes () in
      out.(0) <- w;
      out
  | Wave.Sine { freq; _ } | Wave.Square { freq; _ } | Wave.Pulse { freq; _ } ->
      (* choose the largest fundamental that divides freq *)
      let best = ref (-1) in
      Array.iteri
        (fun i f0 ->
          if is_multiple freq f0 && (!best < 0 || f0 > tones.(!best)) then best := i)
        tones;
      if !best < 0 then
        invalid_arg
          (Printf.sprintf "Mpde.split_wave_multi: frequency %g matches no tone" freq);
      let out = zeroes () in
      out.(!best) <- w;
      out
  | Wave.Sum ws ->
      let parts = List.map (split_wave_multi ~tones) ws in
      Array.init d (fun i -> Wave.Sum (List.map (fun p -> p.(i)) parts))

let eval_bn c ~tones ts =
  if Array.length tones <> Array.length ts then invalid_arg "Mpde.eval_bn";
  let nl = Mna.netlist c in
  let n = Mna.size c in
  let b = Vec.create n in
  let add idx v = if idx >= 0 then b.(idx) <- b.(idx) +. v in
  let value wave =
    let parts = split_wave_multi ~tones wave in
    let acc = ref 0.0 in
    Array.iteri (fun i p -> acc := !acc +. Wave.eval p ts.(i)) parts;
    !acc
  in
  List.iter
    (fun d ->
      match d with
      | Device.Vsource { name; wave; _ } -> begin
          match Mna.branch_index c name with
          | Some bi -> b.(bi) <- b.(bi) +. value wave
          | None -> ()
        end
      | Device.Isource { p; n = nn; wave; _ } ->
          let i = value wave in
          add p i;
          add nn (-.i)
      | _ -> ())
    (Netlist.devices nl);
  b

let off_tone_source c ~tones =
  match eval_bn c ~tones (Array.make (Array.length tones) 0.0) with
  | _ -> None
  | exception Invalid_argument msg -> Some msg

let node_grid c ~n1 ~n2 (grid : Vec.t) name =
  let n = Mna.size c and k = Mna.node c name in
  Mat.init n1 n2 (fun i1 i2 -> grid.((((i1 * n2) + i2) * n) + k))

let diagonal ~period1 ~period2 (grid : Mat.t) t =
  let n1 = grid.Mat.rows and n2 = grid.Mat.cols in
  let wrap x p = x -. (p *. Float.floor (x /. p)) in
  let u1 = wrap t period1 /. period1 *. float_of_int n1 in
  let u2 = wrap t period2 /. period2 *. float_of_int n2 in
  let i1 = int_of_float (Float.floor u1) mod n1 in
  let i2 = int_of_float (Float.floor u2) mod n2 in
  let a1 = u1 -. Float.floor u1 and a2 = u2 -. Float.floor u2 in
  let j1 = (i1 + 1) mod n1 and j2 = (i2 + 1) mod n2 in
  let g = Mat.get grid in
  ((1.0 -. a1) *. (1.0 -. a2) *. g i1 i2)
  +. (a1 *. (1.0 -. a2) *. g j1 i2)
  +. ((1.0 -. a1) *. a2 *. g i1 j2)
  +. (a1 *. a2 *. g j1 j2)

let diagonal_samples ~f1 ~f2 grid ~n =
  let period1 = 1.0 /. f1 and period2 = 1.0 /. f2 in
  Vec.init n (fun k ->
      let t = period1 *. float_of_int k /. float_of_int n in
      diagonal ~period1 ~period2 grid t)

module Cost = struct
  type t = {
    separation : float;
    univariate_samples : int;
    bivariate_samples : int;
  }

  let compare_representations ?(samples_per_pulse = 20) ?(n1 = 32) ~separation () =
    if separation < 1.0 then invalid_arg "Mpde.Cost: separation must be >= 1";
    (* slow period T1 = separation * T2; resolving each fast pulse over the
       common period needs separation * samples_per_pulse points *)
    let univariate = int_of_float (Float.round (separation *. float_of_int samples_per_pulse)) in
    let n2 = samples_per_pulse in
    { separation; univariate_samples = univariate; bivariate_samples = n1 * n2 }

  (* the paper's example: y(t) = sin(2 pi t) * pulse(t / T2) *)
  let example_pulse ~rise u =
    let u = u -. Float.floor u in
    if u < rise then u /. rise
    else if u < 0.5 then 1.0
    else if u < 0.5 +. rise then 1.0 -. ((u -. 0.5) /. rise)
    else 0.0

  let bivariate_reconstruction_error ~n1 ~n2 ~separation ~rise =
    let period1 = separation and period2 = 1.0 in
    let grid =
      Mat.init n1 n2 (fun i1 i2 ->
          let t1 = period1 *. float_of_int i1 /. float_of_int n1 in
          let t2 = period2 *. float_of_int i2 /. float_of_int n2 in
          sin (2.0 *. Float.pi *. t1 /. period1) *. example_pulse ~rise (t2 /. period2))
    in
    let exact t =
      sin (2.0 *. Float.pi *. t /. period1) *. example_pulse ~rise (t /. period2)
    in
    let probes = 1999 in
    let err = ref 0.0 in
    for k = 0 to probes - 1 do
      let t = period1 *. float_of_int k /. float_of_int probes in
      let approx = diagonal ~period1 ~period2 grid t in
      err := Float.max !err (Float.abs (approx -. exact t))
    done;
    !err
end
