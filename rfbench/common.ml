(* Shared vocabulary of the three operation groups. *)

(* Each workload runs every group: its own at [Large], the other two at
   [Small], so every end-to-end metric exists on every workload while one
   group dominates the run. *)
type scale = Large | Small

(* One timed end-to-end operation. A block runs [run] [reps] times back to
   back, each timed on its own; [value] turns one operation's seconds into
   the metric. *)
type op = {
  metric : string;
  reps : int;
  run : unit -> bool;  (** one operation; [false] when its output is wrong *)
  value : float -> float;
}

let seconds = Fun.id

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* per-layer metrics of the traced run, by name *)
let layer : (string, float) Hashtbl.t = Hashtbl.create 128
let set name v = Hashtbl.replace layer name v
let seti name v = set name (float_of_int v)

let add name v =
   set name (v +. Option.value (Hashtbl.find_opt layer name) ~default:0.0)

let seti_add name v = add name (float_of_int v)

(* certificate verdicts seen by the operations, Suspect ones counted *)
let suspects = ref 0

let certified cert =
  let ok = Rfkit_solve.Certify.is_certified cert in
  if not ok then incr suspects;
  ok

let mb bytes = bytes /. 1e6

(* bytes allocated by [f] on this domain *)
let allocated f =
  let a0 = Gc.allocated_bytes () in
  let r = f () in
  (r, Gc.allocated_bytes () -. a0)

(* median of [k] timings of [f] *)
let median_time k f =
  let ts = Array.init k (fun _ -> snd (timed f)) in
  Array.sort compare ts;
  ts.(k / 2)

let rel_close ~tol a b = Float.abs (a -. b) <= tol *. Float.max 1e-300 (Float.max (Float.abs a) (Float.abs b))

let finite x = Float.is_finite x
