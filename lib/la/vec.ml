type t = float array

let create n = Array.make n 0.0
let init = Array.init
let copy = Array.copy
let dim = Array.length
let of_list = Array.of_list
let to_list = Array.to_list
let fill v x = Array.fill v 0 (Array.length v) x

let check2 x y =
  if Array.length x <> Array.length y then
    invalid_arg "Vec: dimension mismatch"

let add x y = check2 x y; Array.mapi (fun i xi -> xi +. y.(i)) x
let sub x y = check2 x y; Array.mapi (fun i xi -> xi -. y.(i)) x
let neg x = Array.map (fun xi -> -.xi) x
let scale a x = Array.map (fun xi -> a *. xi) x
let mul_elt x y = check2 x y; Array.mapi (fun i xi -> xi *. y.(i)) x

let axpy a x y =
  check2 x y;
  for i = 0 to Array.length x - 1 do
    y.(i) <- y.(i) +. (a *. x.(i))
  done

let scale_inplace a x =
  for i = 0 to Array.length x - 1 do
    x.(i) <- a *. x.(i)
  done

let add_inplace x y =
  check2 x y;
  for i = 0 to Array.length x - 1 do
    y.(i) <- y.(i) +. x.(i)
  done

let dot x y =
  check2 x y;
  let s = ref 0.0 in
  for i = 0 to Array.length x - 1 do
    s := !s +. (x.(i) *. y.(i))
  done;
  !s

let norm2 x = sqrt (dot x x)

(* Loops over a local float ref, which the compiler keeps unboxed. Every
   |x_i| has a clear sign bit, so "take a when a > m or a is NaN" is
   [Float.max m a] bit for bit: once NaN, NaN. *)
let norm_inf x =
  let m = ref 0.0 in
  for i = 0 to Array.length x - 1 do
    let a = Float.abs x.(i) in
    if a > !m || Float.is_nan a then m := a
  done;
  !m

let norm1 x =
  let s = ref 0.0 in
  for i = 0 to Array.length x - 1 do
    s := !s +. Float.abs x.(i)
  done;
  !s

let dist2 x y =
  check2 x y;
  let s = ref 0.0 in
  for i = 0 to Array.length x - 1 do
    let d = x.(i) -. y.(i) in
    s := !s +. (d *. d)
  done;
  sqrt !s

let normalize x =
  let n = norm2 x in
  if n = 0.0 then copy x else scale (1.0 /. n) x

let map = Array.map
let map2 f x y = check2 x y; Array.mapi (fun i xi -> f xi y.(i)) x

let max_abs_index x =
  let best = ref 0 in
  for i = 1 to Array.length x - 1 do
    if Float.abs x.(i) > Float.abs x.(!best) then best := i
  done;
  !best

let linspace a b n =
  if n < 2 then invalid_arg "Vec.linspace: n must be >= 2";
  let h = (b -. a) /. float_of_int (n - 1) in
  Array.init n (fun i -> a +. (float_of_int i *. h))

let pp ppf v =
  Format.fprintf ppf "@[<hov 1>[%a]@]"
    (Format.pp_print_array
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ")
       (fun ppf x -> Format.fprintf ppf "%g" x))
    v
