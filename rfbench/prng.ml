(* SplitMix64 (Steele, Lea & Flood, OOPSLA 2014), written out in full so
   that one seed gives the same stream, and so the same deck bytes, on
   every OCaml version and platform: the stdlib [Random] algorithm is not
   part of the language contract. *)

type t = { mutable state : int64 }

let golden = 0x9E3779B97F4A7C15L

(* [stream] separates the independent input families drawn from one
   workload seed, so adding draws to one family never shifts another. *)
let make ~stream seed =
  { state = Int64.add (Int64.mul (Int64.of_int seed) golden) (Int64.of_int (stream * 7919)) }

let next t =
  t.state <- Int64.add t.state golden;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* uniform in [0, 1) from the top 53 bits *)
let float t = Int64.to_float (Int64.shift_right_logical (next t) 11) *. 0x1p-53

(* uniform in [0, n) for small n; the modulo bias is below 2^-31 *)
let int t n = Int64.to_int (Int64.shift_right_logical (next t) 33) mod n

(* [v] scaled by a factor uniform in [1 - frac, 1 + frac] *)
let jitter t ~frac v = v *. (1.0 +. (frac *. ((2.0 *. float t) -. 1.0)))

(* Fisher-Yates, in place *)
let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done
