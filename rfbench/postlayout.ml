(* The post-layout group: large seeded decks through tran, ac, noise and
   passive modelling (IES3 extraction and PRIMA/PVL reduction). The real
   and complex sparse LU, ordering, stamping and the lint pre-flight do
   nearly all of the work; the batch layer does none. *)

open Rfkit
open Rfkit_circuit
open Common
module Vec = La.Vec

type size = {
  stages : int;
  nx : int;
  plate : int;  (** panels per plate edge; two plates *)
  tran_steps : int;
  tran_reps : int;
  ac_reps : int;
  noise_reps : int;
  passive_reps : int;
}

let size = function
  | Large ->
      { stages = 3000; nx = 30; plate = 16; tran_steps = 75; tran_reps = 1; ac_reps = 1;
        noise_reps = 1; passive_reps = 1 }
  | Small ->
      { stages = 300; nx = 10; plate = 8; tran_steps = 75; tran_reps = 2; ac_reps = 7;
        noise_reps = 20; passive_reps = 1 }

let tran_stop = 1e-6
let ac_freqs = Ac.log_freqs ~f_start:1e5 ~f_stop:1e11 ~points_per_decade:10
let noise_freqs = [| 1e9 |]
let rom_q = 12
(* the band the order-12 models must match: 1 MHz to 1 GHz *)
let rom_freqs = Array.init 10 (fun k -> 1e6 *. (10.0 ** (float_of_int k /. 3.0)))

type loaded = { deck : Gen.deck; nl : Netlist.t; c : Mna.t; diagnostics : int }

(* parse -> lint -> MNA build -> ordering, as rfsim does before any
   analysis; a lint error here is a generator bug *)
let load_deck (d : Gen.deck) =
  let nl, located =
    Trace.span ~layer:"deck" "deck.parse_string_located" (fun () ->
        Deck.parse_string_located d.Gen.text)
  in
  let ds = Trace.span ~layer:"lint" "lint.run" (fun () -> Lint.run nl located) in
  if Lint.has_errors ds then failwith ("generated deck fails lint: " ^ Lint.summary ds);
  seti_add "lint.diagnostics" (List.length ds);
  let c = Trace.span ~layer:"circuit" "mna.build" (fun () -> Mna.build nl) in
  Mna.set_ordering c Rfkit_struct.Order.Btf_amd;
  ignore (Trace.span ~layer:"struct" "struct.order" (fun () -> Mna.ordering_perm c));
  { deck = d; nl; c; diagnostics = List.length ds }

type inputs = { ladder_deck : Gen.deck; mesh_deck : Gen.deck; plates : Em.Geo3.conductor array }

let generate ~seed scale =
  let s = size scale in
  let rng = Prng.make ~stream:1 seed in
  let ladder_deck = Gen.ladder rng ~stages:s.stages in
  let mesh_deck = Gen.mesh rng ~nx:s.nx ~ny:s.nx in
  let plates = Gen.conductors ~n:s.plate in
  { ladder_deck; mesh_deck; plates }

type t = { scale : scale; size : size; ladder : loaded; mesh : loaded; em : Em.Mom.problem }

let load scale inputs =
  let ladder = load_deck inputs.ladder_deck and mesh = load_deck inputs.mesh_deck in
  let em = Em.Mom.make Em.Kernel.free_space inputs.plates in
  { scale; size = size scale; ladder; mesh; em }

let dt t = tran_stop /. float_of_int t.size.tran_steps

(* ---- operations --------------------------------------------------------- *)

let tran t =
  match
    Trace.span ~layer:"circuit" "circuit.tran.run_outcome" (fun () ->
        Tran.run_outcome t.ladder.c ~t_stop:tran_stop ~dt:(dt t))
  with
  | Solve.Supervisor.Failed _ -> None
  | Solve.Supervisor.Converged (res, report) ->
      let cert =
        Trace.span ~layer:"solve" "solve.certify.tran" (fun () -> Tran.certify t.ladder.c res)
      in
      Some (res, report, cert)

let ac t =
  match
    Trace.span ~layer:"circuit" "circuit.ac.sweep_outcome" (fun () ->
        Ac.sweep_outcome t.mesh.c ~source:t.mesh.deck.Gen.source ~freqs:ac_freqs)
  with
  | Solve.Supervisor.Failed _ -> None
  | Solve.Supervisor.Converged (res, _) -> Some res

let noise ?x_op t =
  match
    Trace.span ~layer:"circuit" "circuit.ac.output_noise_outcome" (fun () ->
        Ac.output_noise_outcome ?x_op t.mesh.c ~node:t.mesh.deck.Gen.out ~freqs:noise_freqs)
  with
  | Solve.Supervisor.Failed _ -> None
  | Solve.Supervisor.Converged (psd, _) -> Some psd

(* linear descriptor of the mesh: its MNA pencil stamped at the origin
   (junctions at zero bias), driven by V1 and observed at the output *)
let descriptor t =
  let c = t.mesh.c in
  let g, cc = Mna.linear_gc_op c in
  let l = Vec.create (Mna.size c) in
  l.(Mna.node c t.mesh.deck.Gen.out) <- 1.0;
  { Rom.Descriptor.g; c = cc; b = Mna.source_pattern c t.mesh.deck.Gen.source; l }

type passive = {
  ies3 : Em.Ies3.t;
  cap : La.Mat.t;
  krylov : int;
  prima : Rom.Prima.rom;
  pvl : Rom.Pvl.rom;
  d : Rom.Descriptor.t;
  h_prima : La.Cx.t array;
  h_pvl : La.Cx.t array;
}

let s_of f = La.Cx.im (2.0 *. Float.pi *. f)

let passive t =
  let ies3 = Trace.span ~layer:"em" "em.ies3.build_mom" (fun () -> Em.Ies3.build_mom t.em) in
  match
    Trace.span ~layer:"em" "em.mom.solve_operator_outcome" (fun () ->
        Em.Mom.solve_operator_outcome t.em ~matvec:(Em.Ies3.matvec ies3)
          ~precond_diag:(Em.Ies3.diagonal ies3) ())
  with
  | Solve.Supervisor.Failed _ -> None
  | Solve.Supervisor.Converged (cap, report) ->
      let d = Trace.span ~layer:"rom" "rom.descriptor" (fun () -> descriptor t) in
      let prima, pvl =
        Trace.span ~layer:"rom" "rom.reduce" (fun () ->
            (Rom.Prima.reduce d ~s0:0.0 ~q:rom_q, Rom.Pvl.reduce d ~s0:0.0 ~q:rom_q))
      in
      let h_prima, h_pvl =
        Trace.span ~layer:"rom" "rom.transfer" (fun () ->
            ( Array.map (fun f -> Rom.Prima.transfer prima (s_of f)) rom_freqs,
              Array.map (fun f -> Rom.Pvl.transfer pvl (s_of f)) rom_freqs ))
      in
      Some
        { ies3; cap; krylov = report.Solve.Supervisor.stats.Solve.Supervisor.krylov_iterations;
          prima; pvl; d; h_prima; h_pvl }

let cx_finite z = finite z.Complex.re && finite z.Complex.im

let ops t =
  let s = t.size in
  [
    { metric = "tran_s"; reps = s.tran_reps; value = seconds;
      run =
        (fun () ->
          match tran t with
          | Some (res, _, cert) ->
              certified cert
              && Array.length res.Tran.times = s.tran_steps + 1
          | None -> false) };
    { metric = "ac_s"; reps = s.ac_reps; value = seconds;
      run =
        (fun () ->
          match ac t with
          | Some res ->
              Array.for_all cx_finite (Ac.transfer t.mesh.c res t.mesh.deck.Gen.out)
          | None -> false) };
    { metric = "noise_s"; reps = s.noise_reps; value = seconds;
      run =
        (fun () ->
          match noise t with
          | Some psd -> Array.for_all (fun v -> finite v && v > 0.0) psd
          | None -> false) };
    { metric = "passive_s"; reps = s.passive_reps; value = seconds;
      run =
        (fun () ->
          match passive t with
          | Some p ->
              La.Mat.max_abs p.cap > 0.0 && Array.for_all cx_finite p.h_prima
              && Array.for_all cx_finite p.h_pvl
          | None -> false) };
  ]

(* ---- correctness gates (outside the timings) ---------------------------- *)

let dc_exn c =
  match Dc.solve_outcome c with
  | Solve.Supervisor.Converged (x, _) -> x
  | Solve.Supervisor.Failed f -> failwith (Solve.Supervisor.failure_to_string f)

let max_rel_diff a b =
  let scale = Float.max 1e-12 (Vec.norm_inf a) in
  let m = ref 0.0 in
  Array.iteri (fun i v -> m := Float.max !m (Float.abs (v -. b.(i)))) a;
  !m /. scale

(* DC must not depend on the fill-reducing ordering *)
let gate_dc_ordering (l : loaded) =
  let natural = Mna.build l.nl in
  Mna.set_ordering natural Rfkit_struct.Order.Natural;
  max_rel_diff (dc_exn natural) (dc_exn l.c) <= 1e-9

let gate_freqs = [| 1e6; 1e9; 1e10 |]

(* AC at [gate_freqs] about the DC point, each solution handed to [check] *)
let ac_checked (l : loaded) check =
  let c = l.c in
  let x_op = dc_exn c in
  match Ac.sweep_outcome ~x_op c ~source:l.deck.Gen.source ~freqs:gate_freqs with
  | Solve.Supervisor.Failed _ -> false
  | Solve.Supervisor.Converged (res, _) ->
      let b = La.Cvec.of_real (Mna.source_pattern c l.deck.Gen.source) in
      Array.for_all Fun.id
        (Array.mapi (fun k f -> check ~x_op ~b f res.Ac.response.(k)) gate_freqs)

(* on a small deck of the same family, against a dense complex LU *)
let gate_ac_dense (small : loaded) =
  ac_checked small (fun ~x_op ~b f x ->
      let dense = La.Clu.lin_solve (Ac.system_at small.c x_op f) b in
      La.Cvec.norm_inf (La.Cvec.sub dense x) <= 1e-9 *. La.Cvec.norm_inf dense)

(* on the full deck, by its own residual |A x - b| / |b| *)
let gate_ac_residual (l : loaded) =
  ac_checked l (fun ~x_op ~b f x ->
      let r = La.Cvec.sub (La.Cop.matvec (Ac.system_op l.c x_op f) x) b in
      La.Cvec.norm_inf r <= 1e-9 *. La.Cvec.norm_inf b)

(* output noise against a dense adjoint solve: one transposed system per
   frequency gives every source's transfer to the output at once *)
let gate_noise_dense (small : loaded) =
  let c = small.c in
  let x_op = dc_exn c in
  match Ac.output_noise_outcome ~x_op c ~node:small.deck.Gen.out ~freqs:gate_freqs with
  | Solve.Supervisor.Failed _ -> false
  | Solve.Supervisor.Converged (psd, _) ->
      let n = Mna.size c and out = Mna.node c small.deck.Gen.out in
      let e = La.Cvec.init n (fun i -> if i = out then Complex.one else Complex.zero) in
      let sources = Mna.noise_sources c in
      Array.for_all Fun.id
        (Array.mapi
           (fun k f ->
             let y = La.Clu.lin_solve (La.Cmat.transpose (Ac.system_at c x_op f)) e in
             let oracle =
               Array.fold_left
                 (fun acc (src : Device.noise_source) ->
                   let h = La.Cvec.dot_u y (La.Cvec.of_real (Mna.noise_pattern c src)) in
                   let flicker =
                     if src.Device.flicker_corner > 0.0 then 1.0 +. (src.Device.flicker_corner /. f)
                     else 1.0
                   in
                   acc +. (Complex.norm2 h *. src.Device.psd_at x_op *. flicker))
                 0.0 sources
             in
             rel_close ~tol:1e-8 oracle psd.(k))
           gate_freqs)

(* IES3-compressed capacitance against the dense MoM reference *)
let gate_ies3 em =
  let dense = (Em.Mom.solve_dense em).Em.Mom.cap_matrix in
  let ies3 = Em.Ies3.build_mom em in
  let cap =
    Em.Mom.solve_operator em ~matvec:(Em.Ies3.matvec ies3) ~precond_diag:(Em.Ies3.diagonal ies3)
  in
  let scale = La.Mat.max_abs dense in
  La.Mat.max_abs (La.Mat.sub cap dense) <= 1e-2 *. scale

(* reduced models against the exact descriptor transfer at both ends of
   the matched band (one exact point costs ~0.5 s on the full mesh) *)
let gate_rom t =
  match passive t with
  | None -> false
  | Some p ->
      Array.for_all Fun.id
        (Array.mapi
           (fun k f ->
             k mod 9 <> 0
             ||
             let exact = Rom.Descriptor.transfer p.d (s_of f) in
             let close h = Complex.norm (Complex.sub h exact) <= 1e-6 *. Complex.norm exact in
             close p.h_prima.(k) && close p.h_pvl.(k))
           rom_freqs)

let gates ~seed t =
  let small = if t.scale = Small then t else load Small (generate ~seed Small) in
  [
    ("postlayout.dc_ordering.ladder", fun () -> gate_dc_ordering t.ladder);
    ("postlayout.dc_ordering.mesh", fun () -> gate_dc_ordering t.mesh);
    ("postlayout.ac_dense", fun () -> gate_ac_dense small.mesh && gate_ac_dense small.ladder);
    ("postlayout.ac_residual", fun () -> gate_ac_residual t.mesh);
    ("postlayout.noise_dense", fun () -> gate_noise_dense small.mesh);
    ("postlayout.ies3_dense", fun () -> gate_ies3 small.em);
    ("postlayout.rom_transfer", fun () -> gate_rom t);
  ]

(* ---- traced-run probes -------------------------------------------------- *)

(* Per-layer figures for layers the engines call internally: the
   process-global LU counters are read around single-domain engine calls,
   and the LU phases are re-timed through the public Sparse_lu/Csparse_lu
   entry points on the engine's own matrix. *)
let probe t =
  let lad = t.ladder.c and mesh = t.mesh.c in
  let zl = Vec.create (Mna.size lad) and zm = Vec.create (Mna.size mesh) in
  set "mna.stamp_s"
    (median_time 5 (fun () ->
         Trace.span ~layer:"circuit" "mna.stamp" (fun () ->
             ignore (Mna.jac_g_sparse lad zl, Mna.jac_c_sparse lad zl);
             ignore (Mna.jac_g_sparse mesh zm, Mna.jac_c_sparse mesh zm))));
  let nnz c z = La.Sparse.nnz (La.Sparse.add (Mna.jac_g_sparse c z) (Mna.jac_c_sparse c z)) in
  seti "mna.unknowns" (Mna.size lad + Mna.size mesh);
  seti "mna.nnz" (nnz lad zl + nnz mesh zm);
  (match Dc.solve_outcome lad with
  | Solve.Supervisor.Converged (_, r) ->
      seti "dc.newton_iters" r.Solve.Supervisor.total_iterations;
      seti "dc.attempts" (List.length r.Solve.Supervisor.attempts)
  | Solve.Supervisor.Failed _ -> ());
  (* real LU: counters around one transient, phases on G + C/dt *)
  La.Sparse_lu.reset_counts ();
  (match tran t with
  | None -> ()
  | Some (res, report, _) ->
      let refactors, full = La.Sparse_lu.counts () in
      seti "sparse_lu.full" full;
      seti "sparse_lu.refactors" refactors;
      set "sparse_lu.reuse_ratio" (float_of_int refactors /. float_of_int (max 1 (refactors + full)));
      seti "sparse_lu.fill_nnz" (La.Sparse_lu.fill_nnz ());
      (* one factorization per Newton iteration, the DC start included *)
      seti "tran.newton_iters" (refactors + full);
      seti "tran.steps" (Array.length res.Tran.times - 1);
      seti "tran.retries" (List.length report.Solve.Supervisor.attempts - 1);
      let x = res.Tran.states.(Array.length res.Tran.states - 1) in
      let a =
        La.Sparse.add (Mna.jac_g_sparse lad x)
          (La.Sparse.scale (1.0 /. dt t) (Mna.jac_c_sparse lad x))
      in
      let perm = Mna.ordering_perm lad in
      let (symb, lu), alloc = allocated (fun () -> La.Sparse_lu.analyze ?perm a) in
      set "sparse_lu.alloc_mb" (mb alloc);
      set "sparse_lu.analyze_s"
        (median_time 3 (fun () ->
             Trace.span ~layer:"la" "la.sparse_lu.analyze" (fun () -> La.Sparse_lu.analyze ?perm a)));
      set "sparse_lu.refactor_s"
        (median_time 5 (fun () ->
             Trace.span ~layer:"la" "la.sparse_lu.refactor" (fun () -> La.Sparse_lu.refactor symb a)));
      let b = Array.make (Mna.size lad) 1.0 in
      set "sparse_lu.solve_s"
        (median_time 9 (fun () ->
             Trace.span ~layer:"la" "la.sparse_lu.solve" (fun () -> La.Sparse_lu.solve lu b))));
  (* fill of the mesh's real pencil under its btf-amd ordering *)
  let am = La.Sparse.add (Mna.jac_g_sparse mesh zm) (Mna.jac_c_sparse mesh zm) in
  let lu = La.Sparse_lu.factor ?perm:(Mna.ordering_perm mesh) am in
  set "struct.fill_ratio" (float_of_int (La.Sparse_lu.nnz lu) /. float_of_int (La.Sparse.nnz am));
  (* complex LU: counters around one AC sweep, phases on G + jwC *)
  La.Csparse_lu.reset_counts ();
  (match ac t with
  | None -> ()
  | Some _ ->
      let refactors, full = La.Csparse_lu.counts () in
      seti "csparse_lu.full" full;
      seti "csparse_lu.refactors" refactors;
      set "csparse_lu.reuse_ratio" (float_of_int refactors /. float_of_int (max 1 (refactors + full)));
      seti "csparse_lu.fill_nnz" (La.Csparse_lu.fill_nnz ());
      seti "ac.points" (Array.length ac_freqs));
  let x_op = dc_exn mesh in
  (match La.Cop.to_sparse_opt (Ac.system_op mesh x_op 1e9) with
  | None -> ()
  | Some a ->
      let perm = Mna.ordering_perm mesh in
      let (symb, lu), alloc = allocated (fun () -> La.Csparse_lu.analyze ?perm a) in
      set "csparse_lu.alloc_mb" (mb alloc);
      set "csparse_lu.analyze_s"
        (median_time 3 (fun () ->
             Trace.span ~layer:"la" "la.csparse_lu.analyze" (fun () -> La.Csparse_lu.analyze ?perm a)));
      set "csparse_lu.refactor_s"
        (median_time 5 (fun () ->
             Trace.span ~layer:"la" "la.csparse_lu.refactor" (fun () -> La.Csparse_lu.refactor symb a)));
      let b = La.Cvec.init (Mna.size mesh) (fun _ -> Complex.one) in
      set "csparse_lu.solve_s"
        (median_time 9 (fun () ->
             Trace.span ~layer:"la" "la.csparse_lu.solve" (fun () -> La.Csparse_lu.solve lu b))));
  (* noise: one complex solve per source per frequency *)
  let sources = Array.length (Mna.noise_sources mesh) in
  let (_, t_noise), alloc = allocated (fun () -> timed (fun () -> noise ~x_op t)) in
  let solves = sources * Array.length noise_freqs in
  seti "noise.sources" sources;
  seti "noise.solves" solves;
  set "noise.s_per_solve" (t_noise /. float_of_int solves);
  set "noise.alloc_mb" (mb alloc);
  (* passive modelling *)
  seti "em.panels" (Em.Mom.n_panels t.em);
  let ies3, t_build = timed (fun () -> Em.Ies3.build_mom t.em) in
  set "em.ies3_build_s" t_build;
  let st = Em.Ies3.stats ies3 in
  set "em.compression_ratio" st.Em.Ies3.compression_ratio;
  let ones = Array.make st.Em.Ies3.n 1.0 in
  set "em.ies3_matvec_s"
    (median_time 9 (fun () ->
         Trace.span ~layer:"em" "em.ies3.matvec" (fun () -> Em.Ies3.matvec ies3 ones)));
  match passive t with
  | None -> ()
  | Some p ->
      seti "em.krylov_iters" p.krylov;
      set "rom.descriptor_s" (median_time 3 (fun () -> descriptor t));
      set "rom.reduce_s"
        (median_time 3 (fun () ->
             (Rom.Prima.reduce p.d ~s0:0.0 ~q:rom_q, Rom.Pvl.reduce p.d ~s0:0.0 ~q:rom_q)));
      seti "rom.order" p.prima.Rom.Prima.order;
      set "rom.transfer_s"
        (median_time 5 (fun () ->
             Array.map (fun f -> Rom.Prima.transfer p.prima (s_of f)) rom_freqs))
