(* In-memory span recorder for the traced run. Spans are opened in the
   benchmark's own code around calls into one layer's public functions;
   nothing inside the library is instrumented. With tracing off, [span]
   is a direct call. *)

let now = Unix.gettimeofday

type span = {
  id : int;
  parent : int;  (** -1 at top level *)
  name : string;
  layer : string;
  t0 : float;
  mutable t1 : float;
}

let enabled = ref false
let recorded : span list ref = ref []
let next_id = ref 0
let stack : int list ref = ref []

let span ~layer name f =
  if not !enabled then f ()
  else begin
    let s =
      {
        id = !next_id;
        parent = (match !stack with p :: _ -> p | [] -> -1);
        name;
        layer;
        t0 = now ();
        t1 = nan;
      }
    in
    incr next_id;
    recorded := s :: !recorded;
    stack := s.id :: !stack;
    Fun.protect
      ~finally:(fun () ->
        s.t1 <- now ();
        stack := List.tl !stack)
      f
  end

let spans () = List.rev !recorded

let duration s = s.t1 -. s.t0

(* self time: the span's duration minus the time its direct children
   cover (children never overlap: one domain records spans) *)
let self_times spans =
  let child = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (duration s +. Option.value (Hashtbl.find_opt child s.parent) ~default:0.0))
    spans;
  List.map (fun s -> (s, duration s -. Option.value (Hashtbl.find_opt child s.id) ~default:0.0)) spans

(* sum of self time per layer over the spans selected by [keep] *)
let layer_self ?(keep = fun _ -> true) spans =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      if keep s then
        Hashtbl.replace tbl s.layer
          (self +. Option.value (Hashtbl.find_opt tbl s.layer) ~default:0.0))
    (self_times spans);
  tbl

(* total time spent in spans named [name] *)
let total name spans =
  List.fold_left (fun acc s -> if s.name = name then acc +. duration s else acc) 0.0 spans

(* true when [s] lies under a span whose name satisfies [p] *)
let under spans p =
  let by_id = Hashtbl.create 256 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) spans;
  let rec go s =
    p s.name || (s.parent >= 0 && match Hashtbl.find_opt by_id s.parent with Some q -> go q | None -> false)
  in
  go

let write path spans =
  let oc = open_out path in
  List.iter
    (fun (s, self) ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"name\":%S,\"layer\":%S,\"start\":%.6f,\"dur\":%.6f,\"self\":%.6f}\n"
        s.id s.parent s.name s.layer s.t0 (duration s) self)
    (self_times spans);
  close_out oc
