open Rfkit_la
open Rfkit_circuit
open Rfkit_solve

type solution = {
  circuit : Mna.t;
  engine : string;
  f1 : float;
  f2 : float;
  mix : string -> k1:int -> k2:int -> float;
  finite_defects : float;
}

let count_non_finite acc (a : float array) =
  Array.fold_left (fun n v -> if Float.is_finite v then n else n +. 1.0) acc a

(* 2-D DFT line amplitude of a real bivariate grid: rows are the slow
   axis, columns the fast axis. Real data pairs (k1, k2) with
   (-k1, -k2), hence the factor 2 away from DC. Grids are small (tens
   per axis), so the direct sum beats setting up two FFT passes. *)
let grid_mix (g : Mat.t) ~k1 ~k2 =
  let n1 = g.Mat.rows and n2 = g.Mat.cols in
  let re = ref 0.0 and im = ref 0.0 in
  for i1 = 0 to n1 - 1 do
    for i2 = 0 to n2 - 1 do
      let ph =
        -2.0 *. Float.pi
        *. ((float_of_int k1 *. float_of_int i1 /. float_of_int n1)
           +. (float_of_int k2 *. float_of_int i2 /. float_of_int n2))
      in
      let v = Mat.get g i1 i2 in
      re := !re +. (v *. cos ph);
      im := !im +. (v *. sin ph)
    done
  done;
  let c = Float.hypot !re !im /. float_of_int (n1 * n2) in
  if k1 = 0 && k2 = 0 then c else 2.0 *. c

let of_hb2 (r : Hb2.result) =
  {
    circuit = r.Hb2.circuit;
    engine = "hb2";
    f1 = r.Hb2.f1;
    f2 = r.Hb2.f2;
    mix = (fun name ~k1 ~k2 -> Hb2.mix_amplitude r name ~k1 ~k2);
    finite_defects = count_non_finite 0.0 r.Hb2.grid;
  }

let of_mmft (r : Mmft.result) =
  {
    circuit = r.Mmft.circuit;
    engine = "mmft";
    f1 = r.Mmft.f1;
    f2 = r.Mmft.f2;
    mix = (fun name ~k1 ~k2 -> Mmft.mix_amplitude r name ~slow:k1 ~fast:k2);
    finite_defects =
      Array.fold_left (fun acc m -> count_non_finite acc m.Mat.a) 0.0 r.Mmft.slices;
  }

let of_mfdtd (r : Mfdtd.result) =
  {
    circuit = r.Mfdtd.circuit;
    engine = "mfdtd";
    f1 = r.Mfdtd.f1;
    f2 = r.Mfdtd.f2;
    mix = (fun name ~k1 ~k2 -> grid_mix (Mfdtd.node_grid r name) ~k1 ~k2);
    finite_defects = count_non_finite 0.0 r.Mfdtd.grid;
  }

let of_hs (r : Hs.result) =
  {
    circuit = r.Hs.circuit;
    engine = "hs";
    f1 = r.Hs.f1;
    f2 = r.Hs.f2;
    mix = (fun name ~k1 ~k2 -> grid_mix (Hs.node_grid r name) ~k1 ~k2);
    finite_defects =
      Array.fold_left (fun acc m -> count_non_finite acc m.Mat.a) 0.0 r.Hs.slices;
  }

(* The envelope march is a slow-axis transient; once it has settled into
   the quasi-periodic regime, any [slices-per-period] consecutive slices
   span one full slow period and a per-axis time shift only rotates the
   phase of each line, never its amplitude. We take the LAST full period
   of the marched span. *)
let of_envelope ~f1 ~periods (r : Envelope.result) =
  let total = Array.length r.Envelope.slices - 1 in
  if periods < 1 || total mod periods <> 0 then
    invalid_arg "Qpss.of_envelope: slice count not divisible by periods";
  let n1p = total / periods in
  let last = Array.sub r.Envelope.slices (total - n1p + 1) n1p in
  let mix name ~k1 ~k2 =
    let idx = Mna.node r.Envelope.circuit name in
    let n2 = last.(0).Mat.rows in
    let g =
      Mat.init n1p n2 (fun i1 i2 -> Mat.get last.(i1) i2 idx)
    in
    grid_mix g ~k1 ~k2
  in
  {
    circuit = r.Envelope.circuit;
    engine = "td-env";
    f1;
    f2 = r.Envelope.f2;
    mix;
    finite_defects =
      Array.fold_left (fun acc m -> count_non_finite acc m.Mat.a) 0.0 last;
  }

(* ------------------------------------------------------------- cascade -- *)

type stage_spec =
  | Hb2_stage of Hb2.options
  | Mmft_stage of Mmft.options
  | Mfdtd_stage of Mfdtd.options
  | Hs_stage of Hs.options
  | Env_stage of { options : Envelope.options; periods : int }

let stage_engine = function
  | Hb2_stage _ -> "hb2"
  | Mmft_stage _ -> "mmft"
  | Mfdtd_stage _ -> "mfdtd"
  | Hs_stage _ -> "hs"
  | Env_stage _ -> "td-env"

let default_chain () =
  [
    Mmft_stage Mmft.default_options;
    Mfdtd_stage Mfdtd.default_options;
    Env_stage { options = Envelope.default_options; periods = 2 };
  ]

(* Same budget convention as the PSS cascade: the wall clock is shared
   across every stage, while the envelope march — whose "iterations" are
   solved slices, not Newton steps — keeps its own iteration pool. *)
let to_stage c ~f1 ~f2 spec =
  Cascade.stage ~engine:(stage_engine spec) (fun ~budget () ->
      match spec with
      | Hb2_stage options ->
          Supervisor.map of_hb2 (Hb2.solve_outcome ~budget ~options c ~f1 ~f2)
      | Mmft_stage options ->
          Supervisor.map of_mmft (Mmft.solve_outcome ~budget ~options c ~f1 ~f2)
      | Mfdtd_stage options ->
          Supervisor.map of_mfdtd (Mfdtd.solve_outcome ~budget ~options c ~f1 ~f2)
      | Hs_stage options ->
          Supervisor.map of_hs (Hs.solve_outcome ~budget ~options c ~f1 ~f2)
      | Env_stage { options; periods } ->
          let t1_stop = float_of_int periods /. f1 in
          let budget =
            {
              Supervisor.default_budget with
              Supervisor.wall_clock = budget.Supervisor.wall_clock;
            }
          in
          Supervisor.map
            (of_envelope ~f1 ~periods)
            (Envelope.run_outcome ~budget ~options c ~f1 ~f2 ~t1_stop))

let solve_outcome ?budget ?chain c ~f1 ~f2 =
  let chain = match chain with Some l -> l | None -> default_chain () in
  Cascade.run ?budget (List.map (to_stage c ~f1 ~f2) chain)

(* ------------------------------------------------------- certification -- *)

let cross_mixes = 2

let cross_error ~nodes a b =
  let scale = ref 0.0 and dev = ref 0.0 in
  List.iter
    (fun name ->
      for k1 = -cross_mixes to cross_mixes do
        for k2 = 0 to cross_mixes do
          if k2 > 0 || k1 >= 0 then begin
            let x = a.mix name ~k1 ~k2 and y = b.mix name ~k1 ~k2 in
            scale := Float.max !scale (Float.max x y);
            dev := Float.max !dev (Float.abs (x -. y))
          end
        done
      done)
    nodes;
  if !scale > 0.0 then !dev /. !scale else 0.0

let certify ?(tol_scale = 1.0) ?cross ~nodes sol =
  let checks =
    [
      Certify.check ~name:"finite" ~measured:sol.finite_defects ~threshold:0.5;
    ]
  in
  let checks =
    match cross with
    | None -> checks
    | Some other ->
        checks
        @ [
            Certify.check
              ~name:(Printf.sprintf "cross-spectrum(%s)" other.engine)
              ~measured:(cross_error ~nodes sol other)
              ~threshold:(0.25 *. tol_scale);
          ]
  in
  Certify.assemble ~subject:("qpss:" ^ sol.engine) checks
