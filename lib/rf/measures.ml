open Rfkit_la
open Rfkit_circuit
open Rfkit_solve

let ( let* ) = Result.bind

let outcome = function
  | Supervisor.Converged (res, _) -> Ok res
  | Supervisor.Failed f -> Error f

let fundamental_gain ~build ~node ~freq a =
  let* res = outcome (Hb.solve_outcome (build a) ~freq) in
  Ok (Hb.harmonic_amplitude res node 1 /. a)

let small_signal_gain ~build ~node ~freq = fundamental_gain ~build ~node ~freq 1e-3

let compression_point_1db ?(a_start = 1e-3) ?(a_stop = 10.0) ~build ~node ~freq () =
  let* g0 = fundamental_gain ~build ~node ~freq a_start in
  let target = g0 *. (10.0 ** (-1.0 /. 20.0)) in
  (* geometric scan for the bracketing pair *)
  let rec scan a =
    if a > a_stop then Ok None
    else
      let* g = fundamental_gain ~build ~node ~freq a in
      if g <= target then Ok (Some a) else scan (a *. 1.3)
  in
  (* bisection on log amplitude *)
  let rec refine lo hi k =
    if k = 0 then Ok (sqrt (lo *. hi))
    else begin
      let mid = sqrt (lo *. hi) in
      let* g = fundamental_gain ~build ~node ~freq mid in
      if g <= target then refine lo mid (k - 1) else refine mid hi (k - 1)
    end
  in
  match scan (a_start *. 1.3) with
  | Ok (Some hi) -> Result.map Option.some (refine (hi /. 1.3) hi 20)
  | other -> other

let iip3 ?(a_probe = 1e-3) ~build ~node ~f1 ~f2 () =
  let* res = outcome (Hb2.solve_outcome (build a_probe) ~f1 ~f2) in
  let a_fund = Hb2.mix_amplitude res node ~k1:1 ~k2:0 in
  let a_im3 = Hb2.mix_amplitude res node ~k1:(-1) ~k2:2 in
  if a_im3 <= 0.0 then Ok infinity
  else
    (* fundamental grows 1:1 with input, IM3 3:1; they intersect at
       a_probe * sqrt(A_fund / A_im3) *)
    Ok (a_probe *. sqrt (a_fund /. a_im3))

(* ----------------------------------------------------- sampled curves --

   Grid-based measures over already-computed analysis results (an AC
   magnitude sweep, an HB amplitude sweep). All of them interpolate
   linearly between the bracketing samples — in (log10 x, y) space,
   since the grids are log-spaced — instead of snapping to the nearest
   grid point, and return [None] when the target lies outside the
   sampled range: an out-of-range answer would be an extrapolation
   masquerading as a measurement. The grid must be strictly increasing
   and positive (log axes); violations raise [Invalid_argument]. *)

let check_grid ~what xs ys =
  let n = Array.length xs in
  if n = 0 || Array.length ys <> n then
    invalid_arg (what ^ ": grid and samples must be same nonzero length");
  for i = 0 to n - 1 do
    if not (xs.(i) > 0.0) then
      invalid_arg (what ^ ": grid points must be positive (log axis)");
    if i > 0 && not (xs.(i) > xs.(i - 1)) then
      invalid_arg (what ^ ": grid must be strictly increasing")
  done

(* y at x, linear in (log10 x, y); None outside [xs.(0), xs.(n-1)] *)
let interp_log ~xs ~ys x =
  let n = Array.length xs in
  if x < xs.(0) || x > xs.(n - 1) then None
  else begin
    (* binary search for the bracket [i, i+1] with xs.(i) <= x *)
    let lo = ref 0 and hi = ref (n - 1) in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if xs.(mid) <= x then lo := mid else hi := mid
    done;
    let i = !lo in
    if x = xs.(i) then Some ys.(i)
    else if x = xs.(i + 1) then Some ys.(i + 1)
    else
      let t = (log10 x -. log10 xs.(i)) /. (log10 xs.(i + 1) -. log10 xs.(i)) in
      Some (ys.(i) +. (t *. (ys.(i + 1) -. ys.(i))))
  end

(* first x (scanning left to right) where the piecewise-linear curve
   crosses [target] downward; linear interpolation inside the bracket *)
let first_downward_crossing ~xs ~ys ~target =
  let n = Array.length xs in
  if ys.(0) <= target then Some xs.(0)
  else begin
    let rec scan i =
      if i >= n then None
      else if ys.(i) <= target then begin
        let x0 = log10 xs.(i - 1) and x1 = log10 xs.(i) in
        let y0 = ys.(i - 1) and y1 = ys.(i) in
        let t = if y1 = y0 then 1.0 else (target -. y0) /. (y1 -. y0) in
        Some (10.0 ** (x0 +. (t *. (x1 -. x0))))
      end
      else scan (i + 1)
    in
    scan 1
  end

let gain_at ~freqs ~mags f =
  check_grid ~what:"Measures.gain_at" freqs mags;
  interp_log ~xs:freqs ~ys:mags f

let bandwidth_3db ~freqs ~mags =
  check_grid ~what:"Measures.bandwidth_3db" freqs mags;
  let reference = mags.(0) in
  if not (reference > 0.0) then None
  else
    let target = reference *. (10.0 ** (-3.0 /. 20.0)) in
    first_downward_crossing ~xs:freqs ~ys:mags ~target

(* band extrema of a piecewise-linear curve: attained at interior
   samples or at the (interpolated) band endpoints *)
let band_extrema ~what ~xs ~ys ~x_lo ~x_hi =
  check_grid ~what xs ys;
  if not (x_lo < x_hi) then invalid_arg (what ^ ": empty band");
  match (interp_log ~xs ~ys x_lo, interp_log ~xs ~ys x_hi) with
  | Some y_lo, Some y_hi ->
      let mn = ref (min y_lo y_hi) and mx = ref (max y_lo y_hi) in
      Array.iteri
        (fun i x ->
          if x >= x_lo && x <= x_hi then begin
            if ys.(i) < !mn then mn := ys.(i);
            if ys.(i) > !mx then mx := ys.(i)
          end)
        xs;
      Some (!mn, !mx)
  | _ -> None (* band extends past the sampled grid *)

let db20 x = 20.0 *. log10 x

let ripple_db ~freqs ~mags ~f_lo ~f_hi =
  match band_extrema ~what:"Measures.ripple_db" ~xs:freqs ~ys:mags ~x_lo:f_lo ~x_hi:f_hi with
  | Some (mn, mx) when mn > 0.0 -> Some (db20 mx -. db20 mn)
  | _ -> None

let band_attenuation_db ~freqs ~mags ~f_lo ~f_hi =
  check_grid ~what:"Measures.band_attenuation_db" freqs mags;
  let reference = mags.(0) in
  if not (reference > 0.0) then None
  else
    match
      band_extrema ~what:"Measures.band_attenuation_db" ~xs:freqs ~ys:mags
        ~x_lo:f_lo ~x_hi:f_hi
    with
    | Some (_, mx) when mx > 0.0 -> Some (db20 reference -. db20 mx)
    | _ -> None

let compression_from_curve ~amps ~gains =
  check_grid ~what:"Measures.compression_from_curve" amps gains;
  let g0 = gains.(0) in
  if not (g0 > 0.0) then None
  else
    let target = g0 *. (10.0 ** (-1.0 /. 20.0)) in
    match first_downward_crossing ~xs:amps ~ys:gains ~target with
    | Some a when a > amps.(0) -> Some a
    | Some _ -> None (* already compressed at the smallest drive: no small-signal reference *)
    | None -> None

let noise_figure c ~source_resistor ~node ~freq =
  let freqs = [| freq |] in
  let total = (Ac.output_noise c ~node ~freqs).(0) in
  (* the source resistor's own contribution through the same network *)
  let sources = Mna.noise_sources c in
  let x_op = Dc.dc_point c in
  let from_source =
    Array.fold_left
      (fun acc (src : Device.noise_source) ->
        if String.length src.Device.label >= String.length source_resistor
           && String.sub src.Device.label 0 (String.length source_resistor)
              = source_resistor
        then begin
          let h = Ac.solve_at ~x_op c ~rhs:(Mna.noise_pattern c src) ~freq in
          acc +. (Cx.abs2 h.(Mna.node c node) *. src.Device.psd_at x_op)
        end
        else acc)
      0.0 sources
  in
  if from_source <= 0.0 then invalid_arg "Measures.noise_figure: source has no noise";
  Stats.db10 (total /. from_source)
