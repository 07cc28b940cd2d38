open Rfkit_la

type result = { freqs : float array; response : Cvec.t array }

let system_op c x_op freq =
  let g = Mna.jac_g_sparse c x_op and cm = Mna.jac_c_sparse c x_op in
  let w = 2.0 *. Float.pi *. freq in
  Cop.add (Cop.of_real g) (Cop.scale (Cx.im w) (Cop.of_real cm))

(* the same system as its CSR matrix: [system_op] adds two sparse
   operators, which fold to a sparse one, so the Option.get cannot fail *)
let system_sparse c x_op freq =
  Option.get (Cop.to_sparse_opt (system_op c x_op freq))

let system_at c x_op freq = Csparse.to_dense (system_sparse c x_op freq)

(* Every frequency of a sweep stamps the same structural pattern (only
   the j omega scaling of the C entries moves), so one symbolic analysis
   serves the whole sweep: the first point runs the pivoting pass, later
   points are KLU-style refactors. The circuit's fill-reducing ordering
   (pattern-only, hence shared with the real-valued engines) is folded
   into the cached plan. *)
let factor_at ?cache c x_op freq =
  let perm = Mna.ordering_perm c in
  let m = system_sparse c x_op freq in
  match cache with
  | Some cache -> Csparse_lu.factor_cached ?perm cache m
  | None -> Csparse_lu.factor ?perm m

module Supervisor = Rfkit_solve.Supervisor
module Deadline = Rfkit_solve.Deadline

(* The operating point the linearization is taken at, as a typed outcome
   of the DC supervisor. *)
let op_outcome ?x_op c =
  match x_op with
  | Some v -> Ok v
  | None -> (
      match Dc.solve_outcome c with
      | Supervisor.Converged (x, _) -> Ok x
      | Supervisor.Failed f -> Error f)

(* the raising entry points re-raise any typed failure *)
let get = function
  | Supervisor.Converged (v, _) -> v
  | Supervisor.Failed f -> Rfkit_solve.Error.raise_failure ~engine:f.Supervisor.f_engine f

let op ?x_op c =
  match op_outcome ?x_op c with
  | Ok x -> x
  | Error f -> Rfkit_solve.Error.raise_failure ~engine:"dc" f

let transfer c res name =
  let idx = Mna.node c name in
  Array.map (fun x -> x.(idx)) res.response

let solve_at ?x_op c ~rhs ~freq =
  let x0 = op ?x_op c in
  Csparse_lu.solve (factor_at c x0 freq) (Cvec.of_real rhs)

(* AC is a chain of direct linearized solves, so the only ladder rung is
   Base — but running under the supervisor gives typed outcomes for the
   ways a linear sweep can still die: a failed DC operating point
   (returned as the DC supervisor's own failure, cause and ladder
   intact), a singular linearized system and a SIGINT/deadline poll
   between frequencies. One poll per frequency bounds the abort latency
   at a single factor+solve. *)
let supervised ?x_op c ~engine ~freqs at =
  match op_outcome ?x_op c with
  | Error f -> Supervisor.Failed f
  | Ok x0 ->
      let at = at x0 and cache = ref None in
      Supervisor.run ~engine ~ladder:[ Supervisor.Base ]
        ~attempt:(fun _ ~iter_cap:_ ->
          match
            Array.map
              (fun f ->
                Deadline.check ();
                at (factor_at ~cache c x0 f) f)
              freqs
          with
          | values ->
              Ok
                ( values,
                  { Supervisor.iterations = Array.length freqs; residual = 0.0;
                    krylov_iterations = 0 } )
          | exception Clu.Singular ->
              Error (Supervisor.Singular_jacobian, Supervisor.no_stats)
          | exception Sparse_lu.Singular ->
              Error (Supervisor.Singular_jacobian, Supervisor.no_stats))
        ()

let sweep_outcome ?x_op c ~source ~freqs =
  let b = Cvec.of_real (Mna.source_pattern c source) in
  Supervisor.map
    (fun response -> { freqs; response })
    (supervised ?x_op c ~engine:"ac" ~freqs (fun _ lufact _ -> Csparse_lu.solve lufact b))

let output_noise_outcome ?x_op c ~node ~freqs =
  let idx = Mna.node c node in
  let sources = Mna.noise_sources c in
  supervised ?x_op c ~engine:"ac-noise" ~freqs (fun x0 lufact f ->
      Array.fold_left
        (fun acc src ->
          let h = Csparse_lu.solve lufact (Cvec.of_real (Mna.noise_pattern c src)) in
          let flicker =
            if src.Device.flicker_corner > 0.0 && f > 0.0 then
              1.0 +. (src.Device.flicker_corner /. f)
            else 1.0
          in
          acc +. (Cx.abs2 h.(idx) *. src.Device.psd_at x0 *. flicker))
        0.0 sources)

let sweep ?x_op c ~source ~freqs = get (sweep_outcome ?x_op c ~source ~freqs)
let output_noise ?x_op c ~node ~freqs = get (output_noise_outcome ?x_op c ~node ~freqs)

let two_port_z ?x_op c ~port1 ~port2 ~freq =
  let x0 = op ?x_op c in
  let lufact = factor_at c x0 freq in
  let node1, src1 = port1 and node2, src2 = port2 in
  let i1 = Mna.node c node1 and i2 = Mna.node c node2 in
  let z = Cmat.make 2 2 in
  List.iteri
    (fun col src ->
      let v = Csparse_lu.solve lufact (Cvec.of_real (Mna.source_pattern c src)) in
      Cmat.set z 0 col v.(i1);
      Cmat.set z 1 col v.(i2))
    [ src1; src2 ];
  z

let log_freqs ~f_start ~f_stop ~points_per_decade =
  if f_start <= 0.0 || f_stop <= f_start then invalid_arg "Ac.log_freqs";
  let decades = log10 (f_stop /. f_start) in
  let n = max 2 (1 + int_of_float (Float.ceil (decades *. float_of_int points_per_decade))) in
  Array.init n (fun i ->
      f_start *. (10.0 ** (decades *. float_of_int i /. float_of_int (n - 1))))
