open Rfkit_la

(* Structural sparsity pattern of a stamped matrix: CSR indices without
   values, computed once per circuit and shared across all Newton
   iterations (the values array is fresh per evaluation). *)
type pattern = { p_row_ptr : int array; p_col_idx : int array }

type t = {
  nl : Netlist.t;
  nn : int;  (* node unknowns *)
  total : int;
  branch_of : (string, int) Hashtbl.t;
      (* device name -> branch unknown; the first device of a name wins *)
  branch_names : string array;  (* branch unknown - nn -> device name *)
  devs : Device.t array;
  dev_branch : int array;  (* device index -> its branch unknown, -1 for none *)
  mutable origins : int option array option;  (* per unknown, lazily *)
  mutable g_pat : pattern option;  (* lazily built, state-independent *)
  mutable c_pat : pattern option;
  (* structural (0/1-valued, device-stamped-only — no forced diagonal)
     views of the same patterns, feeding the Rfkit_struct pre-analysis *)
  mutable sg : Rfkit_la.Sparse.t option;
  mutable sc : Rfkit_la.Sparse.t option;
  mutable sgc : Rfkit_la.Sparse.t option;
  mutable rank_g : int option;
  mutable rank_gc : int option;
  (* fill-reducing ordering for every sparse factorization of this
     circuit's Jacobians; the permutation is computed once per (circuit,
     mode) on the factored union pattern and shared by all engines *)
  mutable ord_mode : Rfkit_struct.Order.mode;
  mutable ord_perm : int array option option;
}

let build nl =
  let nn = Netlist.node_count nl in
  let devs = Array.of_list (Netlist.devices nl) in
  let branch_names =
    Array.of_list
      (List.filter_map
         (fun d -> if Device.has_branch_current d then Some (Device.name d) else None)
         (Array.to_list devs))
  in
  let branch_of = Hashtbl.create (Array.length branch_names) in
  Array.iteri
    (fun k name ->
      if not (Hashtbl.mem branch_of name) then Hashtbl.replace branch_of name (nn + k))
    branch_names;
  let dev_branch =
    Array.map
      (fun d ->
        if Device.has_branch_current d then Hashtbl.find branch_of (Device.name d) else -1)
      devs
  in
  {
    nl;
    nn;
    total = nn + Array.length branch_names;
    branch_of;
    branch_names;
    devs;
    dev_branch;
    origins = None;
    g_pat = None;
    c_pat = None;
    sg = None;
    sc = None;
    sgc = None;
    rank_g = None;
    rank_gc = None;
    ord_mode = Rfkit_struct.Order.Natural;
    ord_perm = None;
  }

let size c = c.total
let n_nodes c = c.nn
let netlist c = c.nl

let voltage _ (x : Vec.t) node = if node = Netlist.gnd then 0.0 else x.(node)

let node c name =
  match Netlist.find_node c.nl name with
  | Some idx when idx <> Netlist.gnd -> idx
  | _ -> raise Not_found

let branch_index c name = Hashtbl.find_opt c.branch_of name

let branch c name =
  match branch_index c name with
  | Some i -> i
  | None -> invalid_arg ("Mna: no branch for device " ^ name)

(* guarded exponential: linear continuation above the cutoff keeps Newton
   iterates finite for large forward bias *)
let exp_lim u = if u > 40.0 then Float.exp 40.0 *. (1.0 +. u -. 40.0) else Float.exp u
let dexp_lim u = if u > 40.0 then Float.exp 40.0 else Float.exp u

(* MOSFET large-signal current and small-signal (gm, gds) in the forward
   frame; symmetric operation handled by the caller via node exchange *)
let mos_curr ~kp ~vth ~lambda vgs vds =
  let vov = vgs -. vth in
  if vov <= 0.0 then (0.0, 0.0, 0.0)
  else if vds < vov then begin
    let id = kp *. ((vov *. vds) -. (0.5 *. vds *. vds)) *. (1.0 +. (lambda *. vds)) in
    let gm = kp *. vds *. (1.0 +. (lambda *. vds)) in
    let gds =
      (kp *. (vov -. vds) *. (1.0 +. (lambda *. vds)))
      +. (kp *. ((vov *. vds) -. (0.5 *. vds *. vds)) *. lambda)
    in
    (id, gm, gds)
  end
  else begin
    let id = 0.5 *. kp *. vov *. vov *. (1.0 +. (lambda *. vds)) in
    let gm = kp *. vov *. (1.0 +. (lambda *. vds)) in
    let gds = 0.5 *. kp *. vov *. vov *. lambda in
    (id, gm, gds)
  end

let eval_q c (x : Vec.t) =
  let q = Vec.create c.total in
  let v n = if n = Netlist.gnd then 0.0 else x.(n) in
  let addq n dv = if n <> Netlist.gnd then q.(n) <- q.(n) +. dv in
  Array.iteri
    (fun k d ->
      match d with
      | Device.Capacitor { p; n; c = cap; _ } ->
          let vc = v p -. v n in
          addq p (cap *. vc);
          addq n (-.(cap *. vc))
      | Device.Nl_capacitor { p; n; c0; c1; _ } ->
          let vc = v p -. v n in
          let qq = (c0 *. vc) +. (0.5 *. c1 *. vc *. vc) in
          addq p qq;
          addq n (-.qq)
      | Device.Diode { p; n; cj; _ } when cj > 0.0 ->
          let vc = v p -. v n in
          addq p (cj *. vc);
          addq n (-.(cj *. vc))
      | Device.Inductor { l; _ } ->
          let bi = c.dev_branch.(k) in
          q.(bi) <- q.(bi) +. (l *. x.(bi))
      | Device.Mosfet { name = _; d = nd; g; s; cgs; cgd; _ } ->
          let vgs = v g -. v s and vgd = v g -. v nd in
          addq g ((cgs *. vgs) +. (cgd *. vgd));
          addq s (-.(cgs *. vgs));
          addq nd (-.(cgd *. vgd))
      | Device.Resistor _ | Device.Vsource _ | Device.Isource _ | Device.Vccs _
      | Device.Tanh_gm _ | Device.Cubic_conductor _ | Device.Diode _
      | Device.Mult_vccs _ | Device.Noise_current _ -> ())
    c.devs;
  q

let eval_f c (x : Vec.t) =
  let f = Vec.create c.total in
  let v n = if n = Netlist.gnd then 0.0 else x.(n) in
  let addf n dv = if n <> Netlist.gnd then f.(n) <- f.(n) +. dv in
  Array.iteri
    (fun k d ->
      match d with
      | Device.Resistor { p; n; r; _ } ->
          let i = (v p -. v n) /. r in
          addf p i;
          addf n (-.i)
      | Device.Vccs { p; n; cp; cn; gm; _ } ->
          let i = gm *. (v cp -. v cn) in
          addf p i;
          addf n (-.i)
      | Device.Diode { p; n; is; nvt; _ } ->
          let i = is *. (exp_lim ((v p -. v n) /. nvt) -. 1.0) in
          addf p i;
          addf n (-.i)
      | Device.Tanh_gm { p; n; cp; cn; gm; vsat; _ } ->
          let i = gm *. vsat *. tanh ((v cp -. v cn) /. vsat) in
          addf p i;
          addf n (-.i)
      | Device.Cubic_conductor { p; n; g1; g3; _ } ->
          let vv = v p -. v n in
          let i = (g1 *. vv) +. (g3 *. vv *. vv *. vv) in
          addf p i;
          addf n (-.i)
      | Device.Mosfet { d = nd; g; s; kp; vth; lambda; _ } ->
          let vds = v nd -. v s in
          if vds >= 0.0 then begin
            let id, _, _ = mos_curr ~kp ~vth ~lambda (v g -. v s) vds in
            addf nd id;
            addf s (-.id)
          end
          else begin
            (* swapped frame: treat s as drain *)
            let id, _, _ = mos_curr ~kp ~vth ~lambda (v g -. v nd) (-.vds) in
            addf s id;
            addf nd (-.id)
          end
      | Device.Vsource { p; n; _ } ->
          let bi = c.dev_branch.(k) in
          addf p x.(bi);
          addf n (-.x.(bi));
          f.(bi) <- f.(bi) +. (v p -. v n)
      | Device.Inductor { p; n; _ } ->
          let bi = c.dev_branch.(k) in
          addf p x.(bi);
          addf n (-.x.(bi));
          f.(bi) <- f.(bi) -. (v p -. v n)
      | Device.Mult_vccs { p; n; a_p; a_n; b_p; b_n; k; _ } ->
          let i = k *. (v a_p -. v a_n) *. (v b_p -. v b_n) in
          addf p i;
          addf n (-.i)
      | Device.Isource _ | Device.Capacitor _ | Device.Nl_capacitor _
      | Device.Noise_current _ -> ())
    c.devs;
  f

let eval_b_with c value_of =
  let b = Vec.create c.total in
  let addb n dv = if n <> Netlist.gnd then b.(n) <- b.(n) +. dv in
  Array.iteri
    (fun k d ->
      match d with
      | Device.Vsource { wave; _ } ->
          let bi = c.dev_branch.(k) in
          b.(bi) <- b.(bi) +. value_of wave
      | Device.Isource { p; n; wave; _ } ->
          let i = value_of wave in
          addb p i;
          addb n (-.i)
      | _ -> ())
    c.devs;
  b

let eval_b c t = eval_b_with c (fun w -> Wave.eval w t)
let dc_b c = eval_b_with c Wave.dc_value

let jac_c c (x : Vec.t) =
  let m = Mat.make c.total c.total in
  let v n = if n = Netlist.gnd then 0.0 else x.(n) in
  let stamp i j dv =
    if i <> Netlist.gnd && j <> Netlist.gnd then Mat.update m i j (fun w -> w +. dv)
  in
  Array.iteri
    (fun k d ->
      match d with
      | Device.Capacitor { p; n; c = cap; _ } ->
          stamp p p cap;
          stamp p n (-.cap);
          stamp n p (-.cap);
          stamp n n cap
      | Device.Nl_capacitor { p; n; c0; c1; _ } ->
          let ceff = c0 +. (c1 *. (v p -. v n)) in
          stamp p p ceff;
          stamp p n (-.ceff);
          stamp n p (-.ceff);
          stamp n n ceff
      | Device.Diode { p; n; cj; _ } when cj > 0.0 ->
          stamp p p cj;
          stamp p n (-.cj);
          stamp n p (-.cj);
          stamp n n cj
      | Device.Inductor { l; _ } ->
          let bi = c.dev_branch.(k) in
          Mat.update m bi bi (fun w -> w +. l)
      | Device.Mosfet { g; s; d = nd; cgs; cgd; _ } ->
          stamp g g (cgs +. cgd);
          stamp g s (-.cgs);
          stamp g nd (-.cgd);
          stamp s g (-.cgs);
          stamp s s cgs;
          stamp nd g (-.cgd);
          stamp nd nd cgd
      | Device.Resistor _ | Device.Vsource _ | Device.Isource _ | Device.Vccs _
      | Device.Tanh_gm _ | Device.Cubic_conductor _ | Device.Diode _
      | Device.Mult_vccs _ | Device.Noise_current _ -> ())
    c.devs;
  m

let jac_g c (x : Vec.t) =
  let m = Mat.make c.total c.total in
  let v n = if n = Netlist.gnd then 0.0 else x.(n) in
  (* conductance between unknowns, ground rows/cols dropped *)
  let stamp i j dv =
    if i <> Netlist.gnd && j <> Netlist.gnd then Mat.update m i j (fun w -> w +. dv)
  in
  (* 2x2 conductance stamp of a current p->n controlled by (cp - cn) *)
  let stamp_gm p n cp cn g =
    stamp p cp g;
    stamp p cn (-.g);
    stamp n cp (-.g);
    stamp n cn g
  in
  Array.iteri
    (fun k d ->
      match d with
      | Device.Resistor { p; n; r; _ } -> stamp_gm p n p n (1.0 /. r)
      | Device.Vccs { p; n; cp; cn; gm; _ } -> stamp_gm p n cp cn gm
      | Device.Diode { p; n; is; nvt; _ } ->
          let g = is /. nvt *. dexp_lim ((v p -. v n) /. nvt) in
          stamp_gm p n p n g
      | Device.Tanh_gm { p; n; cp; cn; gm; vsat; _ } ->
          let th = tanh ((v cp -. v cn) /. vsat) in
          stamp_gm p n cp cn (gm *. (1.0 -. (th *. th)))
      | Device.Cubic_conductor { p; n; g1; g3; _ } ->
          let vv = v p -. v n in
          stamp_gm p n p n (g1 +. (3.0 *. g3 *. vv *. vv))
      | Device.Mosfet { d = nd; g; s; kp; vth; lambda; _ } ->
          let vds = v nd -. v s in
          if vds >= 0.0 then begin
            let _, gm, gds = mos_curr ~kp ~vth ~lambda (v g -. v s) vds in
            stamp_gm nd s g s gm;
            stamp_gm nd s nd s gds
          end
          else begin
            let _, gm, gds = mos_curr ~kp ~vth ~lambda (v g -. v nd) (-.vds) in
            stamp_gm s nd g nd gm;
            stamp_gm s nd s nd gds
          end
      | Device.Vsource { p; n; _ } ->
          let bi = c.dev_branch.(k) in
          stamp p bi 1.0;
          stamp n bi (-1.0);
          stamp bi p 1.0;
          stamp bi n (-1.0)
      | Device.Inductor { p; n; _ } ->
          let bi = c.dev_branch.(k) in
          stamp p bi 1.0;
          stamp n bi (-1.0);
          stamp bi p (-1.0);
          stamp bi n 1.0
      | Device.Mult_vccs { p; n; a_p; a_n; b_p; b_n; k; _ } ->
          let va = v a_p -. v a_n and vb = v b_p -. v b_n in
          stamp_gm p n a_p a_n (k *. vb);
          stamp_gm p n b_p b_n (k *. va)
      | Device.Isource _ | Device.Capacitor _ | Device.Nl_capacitor _
      | Device.Noise_current _ -> ())
    c.devs;
  m

(* ---- sparse stamping ----------------------------------------------------

   The index sets touched by [jac_g]/[jac_c] depend only on topology, not on
   the linearization point: the one state-dependent branch, the MOSFET's
   vds-sign frame swap, stamps a subset of the union of both frames, which
   is what the pattern enumerates. The G pattern additionally carries the
   full diagonal so gmin/shift stamping (via [Sparse.add]) and ILU(0) never
   meet a structurally missing slot. *)

(* growable (i, j) coordinate buffer of device-stamped index pairs;
   ground rows and columns are dropped on entry *)
type pairs = { mutable pi : int array; mutable pj : int array; mutable len : int }

let pairs () = { pi = Array.make 64 0; pj = Array.make 64 0; len = 0 }

let push b i j =
  if i <> Netlist.gnd && j <> Netlist.gnd then begin
    if b.len = Array.length b.pi then begin
      let grow a = Array.append a (Array.make (Array.length a) 0) in
      b.pi <- grow b.pi;
      b.pj <- grow b.pj
    end;
    b.pi.(b.len) <- i;
    b.pj.(b.len) <- j;
    b.len <- b.len + 1
  end

(* device-stamped (i, j) index pairs of G = df/dx, no forced diagonal *)
let g_pairs c b =
  let add = push b in
  let add_gm p n cp cn =
    add p cp;
    add p cn;
    add n cp;
    add n cn
  in
  Array.iteri
    (fun k d ->
      match d with
      | Device.Resistor { p; n; _ } -> add_gm p n p n
      | Device.Vccs { p; n; cp; cn; _ } -> add_gm p n cp cn
      | Device.Diode { p; n; _ } -> add_gm p n p n
      | Device.Tanh_gm { p; n; cp; cn; _ } -> add_gm p n cp cn
      | Device.Cubic_conductor { p; n; _ } -> add_gm p n p n
      | Device.Mosfet { d = nd; g; s; _ } ->
          (* union of both vds frames *)
          add_gm nd s g s;
          add_gm nd s nd s;
          add_gm s nd g nd;
          add_gm s nd s nd
      | Device.Vsource { p; n; _ } | Device.Inductor { p; n; _ } ->
          let bi = c.dev_branch.(k) in
          add p bi;
          add n bi;
          add bi p;
          add bi n
      | Device.Mult_vccs { p; n; a_p; a_n; b_p; b_n; _ } ->
          add_gm p n a_p a_n;
          add_gm p n b_p b_n
      | Device.Isource _ | Device.Capacitor _ | Device.Nl_capacitor _
      | Device.Noise_current _ -> ())
    c.devs

(* device-stamped (i, j) index pairs of C = dq/dx *)
let c_pairs c b =
  let add = push b in
  Array.iteri
    (fun k d ->
      match d with
      | Device.Capacitor { p; n; _ } | Device.Nl_capacitor { p; n; _ } ->
          add p p;
          add p n;
          add n p;
          add n n
      | Device.Diode { p; n; cj; _ } when cj > 0.0 ->
          add p p;
          add p n;
          add n p;
          add n n
      | Device.Inductor _ ->
          let bi = c.dev_branch.(k) in
          add bi bi
      | Device.Mosfet { g; s; d = nd; _ } ->
          add g g;
          add g s;
          add g nd;
          add s g;
          add s s;
          add nd g;
          add nd nd
      | Device.Resistor _ | Device.Vsource _ | Device.Isource _
      | Device.Vccs _ | Device.Tanh_gm _ | Device.Cubic_conductor _
      | Device.Diode _ | Device.Mult_vccs _ | Device.Noise_current _ -> ())
    c.devs

(* ---- structural pre-analysis ------------------------------------------

   The matching/DM machinery must see only what devices actually stamp:
   the forced diagonal of the factored G pattern would make every row
   trivially matchable and hide real deficiencies. These views are
   0/1-valued CSR matrices over the device-stamped pairs alone; the
   factored patterns and the ordering's union pattern are derived from
   them. *)

let ones_of c stamps =
  let b = pairs () in
  List.iter (fun stamp -> stamp c b) stamps;
  let row_ptr, col_idx =
    Csr.pattern_of_pairs "Mna" ~rows:c.total ~cols:c.total b.pi b.pj b.len
  in
  Sparse.of_csr ~rows:c.total ~cols:c.total ~row_ptr ~col_idx
    ~values:(Array.make (Array.length col_idx) 1.0)

let cached get set build =
  match get () with
  | Some s -> s
  | None ->
      let s = build () in
      set s;
      s

let structural_g c =
  cached (fun () -> c.sg) (fun s -> c.sg <- Some s) (fun () -> ones_of c [ g_pairs ])

let structural_c c =
  cached (fun () -> c.sc) (fun s -> c.sc <- Some s) (fun () -> ones_of c [ c_pairs ])

let structural_gc c =
  cached (fun () -> c.sgc) (fun s -> c.sgc <- Some s) (fun () ->
      ones_of c [ g_pairs; c_pairs ])

(* a structural view plus the full diagonal *)
let with_diagonal c s = Sparse.add s (Sparse.scaled_identity c.total 1.0)

let pattern_of s =
  let row_ptr, col_idx, _ = Sparse.csr s in
  { p_row_ptr = row_ptr; p_col_idx = col_idx }

(* the factored G pattern carries the full diagonal (explicit zeros) so
   gmin/shift stamping and ILU(0) never miss a slot *)
let g_pattern c =
  cached (fun () -> c.g_pat) (fun p -> c.g_pat <- Some p) (fun () ->
      pattern_of (with_diagonal c (structural_g c)))

let c_pattern c =
  cached (fun () -> c.c_pat) (fun p -> c.c_pat <- Some p) (fun () ->
      pattern_of (structural_c c))

let structural_rank_g c =
  cached (fun () -> c.rank_g) (fun r -> c.rank_g <- Some r) (fun () ->
      Rfkit_struct.Dm.structural_rank (structural_g c))

let structural_rank_gc c =
  cached (fun () -> c.rank_gc) (fun r -> c.rank_gc <- Some r) (fun () ->
      Rfkit_struct.Dm.structural_rank (structural_gc c))

let unknown_label c i =
  if i < c.nn then Printf.sprintf "v(%s)" (Netlist.node_name c.nl i)
  else if i < c.total then Printf.sprintf "i(%s)" c.branch_names.(i - c.nn)
  else Printf.sprintf "x[%d]" i

(* per unknown: the earliest origin among the devices touching a node,
   and for a branch the origin of the last device bearing its name *)
let origins c =
  cached (fun () -> c.origins) (fun o -> c.origins <- Some o) (fun () ->
      let o = Array.make c.total None in
      let last_of_name = Hashtbl.create (Array.length c.branch_names) in
      Array.iter
        (fun d ->
          Hashtbl.replace last_of_name (Device.name d) (Device.origin d);
          match Device.origin d with
          | None -> ()
          | Some l ->
              List.iter
                (fun (_, nd) ->
                  if nd >= 0 then
                    o.(nd) <- (match o.(nd) with Some a -> Some (min a l) | None -> Some l))
                (Device.terminals d))
        c.devs;
      Array.iteri
        (fun k name -> o.(c.nn + k) <- Hashtbl.find last_of_name name)
        c.branch_names;
      o)

let unknown_origin c i = if i >= 0 && i < c.total then (origins c).(i) else None

(* ---- fill-reducing ordering -------------------------------------------- *)

let set_ordering c mode =
  if mode <> c.ord_mode then begin
    c.ord_mode <- mode;
    c.ord_perm <- None
  end

let ordering c = c.ord_mode

let ordering_perm c =
  match c.ord_perm with
  | Some p -> p
  | None ->
      (* order on the union pattern actually factored by the engines:
         device pairs of G and C plus the forced diagonal, so the same
         permutation serves DC (G alone) and transient/HB (C/dt + aG) *)
      let u = with_diagonal c (structural_gc c) in
      let p = Rfkit_struct.Order.compute c.ord_mode u in
      c.ord_perm <- Some p;
      p

let slot pat i j =
  let lo = ref pat.p_row_ptr.(i) and hi = ref (pat.p_row_ptr.(i + 1) - 1) in
  let res = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let cm = pat.p_col_idx.(mid) in
    if cm = j then begin
      res := mid;
      lo := !hi + 1
    end
    else if cm < j then lo := mid + 1
    else hi := mid - 1
  done;
  if !res < 0 then invalid_arg "Mna: stamp outside cached pattern";
  !res

let jac_c_sparse c (x : Vec.t) =
  let pat = c_pattern c in
  let vals = Array.make (Array.length pat.p_col_idx) 0.0 in
  let v n = if n = Netlist.gnd then 0.0 else x.(n) in
  let stamp i j dv =
    if i <> Netlist.gnd && j <> Netlist.gnd then
      vals.(slot pat i j) <- vals.(slot pat i j) +. dv
  in
  Array.iteri
    (fun k d ->
      match d with
      | Device.Capacitor { p; n; c = cap; _ } ->
          stamp p p cap;
          stamp p n (-.cap);
          stamp n p (-.cap);
          stamp n n cap
      | Device.Nl_capacitor { p; n; c0; c1; _ } ->
          let ceff = c0 +. (c1 *. (v p -. v n)) in
          stamp p p ceff;
          stamp p n (-.ceff);
          stamp n p (-.ceff);
          stamp n n ceff
      | Device.Diode { p; n; cj; _ } when cj > 0.0 ->
          stamp p p cj;
          stamp p n (-.cj);
          stamp n p (-.cj);
          stamp n n cj
      | Device.Inductor { l; _ } ->
          let bi = c.dev_branch.(k) in
          vals.(slot pat bi bi) <- vals.(slot pat bi bi) +. l
      | Device.Mosfet { g; s; d = nd; cgs; cgd; _ } ->
          stamp g g (cgs +. cgd);
          stamp g s (-.cgs);
          stamp g nd (-.cgd);
          stamp s g (-.cgs);
          stamp s s cgs;
          stamp nd g (-.cgd);
          stamp nd nd cgd
      | Device.Resistor _ | Device.Vsource _ | Device.Isource _ | Device.Vccs _
      | Device.Tanh_gm _ | Device.Cubic_conductor _ | Device.Diode _
      | Device.Mult_vccs _ | Device.Noise_current _ -> ())
    c.devs;
  Sparse.of_csr ~rows:c.total ~cols:c.total ~row_ptr:pat.p_row_ptr
    ~col_idx:pat.p_col_idx ~values:vals

let jac_g_sparse c (x : Vec.t) =
  let pat = g_pattern c in
  let vals = Array.make (Array.length pat.p_col_idx) 0.0 in
  let v n = if n = Netlist.gnd then 0.0 else x.(n) in
  let stamp i j dv =
    if i <> Netlist.gnd && j <> Netlist.gnd then
      vals.(slot pat i j) <- vals.(slot pat i j) +. dv
  in
  let stamp_gm p n cp cn g =
    stamp p cp g;
    stamp p cn (-.g);
    stamp n cp (-.g);
    stamp n cn g
  in
  Array.iteri
    (fun k d ->
      match d with
      | Device.Resistor { p; n; r; _ } -> stamp_gm p n p n (1.0 /. r)
      | Device.Vccs { p; n; cp; cn; gm; _ } -> stamp_gm p n cp cn gm
      | Device.Diode { p; n; is; nvt; _ } ->
          let g = is /. nvt *. dexp_lim ((v p -. v n) /. nvt) in
          stamp_gm p n p n g
      | Device.Tanh_gm { p; n; cp; cn; gm; vsat; _ } ->
          let th = tanh ((v cp -. v cn) /. vsat) in
          stamp_gm p n cp cn (gm *. (1.0 -. (th *. th)))
      | Device.Cubic_conductor { p; n; g1; g3; _ } ->
          let vv = v p -. v n in
          stamp_gm p n p n (g1 +. (3.0 *. g3 *. vv *. vv))
      | Device.Mosfet { d = nd; g; s; kp; vth; lambda; _ } ->
          let vds = v nd -. v s in
          if vds >= 0.0 then begin
            let _, gm, gds = mos_curr ~kp ~vth ~lambda (v g -. v s) vds in
            stamp_gm nd s g s gm;
            stamp_gm nd s nd s gds
          end
          else begin
            let _, gm, gds = mos_curr ~kp ~vth ~lambda (v g -. v nd) (-.vds) in
            stamp_gm s nd g nd gm;
            stamp_gm s nd s nd gds
          end
      | Device.Vsource { p; n; _ } ->
          let bi = c.dev_branch.(k) in
          stamp p bi 1.0;
          stamp n bi (-1.0);
          stamp bi p 1.0;
          stamp bi n (-1.0)
      | Device.Inductor { p; n; _ } ->
          let bi = c.dev_branch.(k) in
          stamp p bi 1.0;
          stamp n bi (-1.0);
          stamp bi p (-1.0);
          stamp bi n 1.0
      | Device.Mult_vccs { p; n; a_p; a_n; b_p; b_n; k; _ } ->
          let va = v a_p -. v a_n and vb = v b_p -. v b_n in
          stamp_gm p n a_p a_n (k *. vb);
          stamp_gm p n b_p b_n (k *. va)
      | Device.Isource _ | Device.Capacitor _ | Device.Nl_capacitor _
      | Device.Noise_current _ -> ())
    c.devs;
  Sparse.of_csr ~rows:c.total ~cols:c.total ~row_ptr:pat.p_row_ptr
    ~col_idx:pat.p_col_idx ~values:vals

let linear_gc_op c =
  let origin = Vec.create c.total in
  (Op.sparse (jac_g_sparse c origin), Op.sparse (jac_c_sparse c origin))

let is_linear c = Array.for_all Device.is_linear c.devs

let fundamentals c =
  Array.to_list c.devs
  |> List.concat_map (fun d ->
         match d with
         | Device.Vsource { wave; _ } | Device.Isource { wave; _ } ->
             Wave.fundamentals wave
         | _ -> [])
  |> List.sort_uniq compare

let source_pattern c name =
  let b = Vec.create c.total in
  let found = ref false in
  Array.iter
    (fun d ->
      match d with
      | Device.Vsource { name = n'; _ } when n' = name ->
          b.(branch c name) <- 1.0;
          found := true
      | Device.Isource { name = n'; p; n; _ } when n' = name ->
          if p <> Netlist.gnd then b.(p) <- b.(p) +. 1.0;
          if n <> Netlist.gnd then b.(n) <- b.(n) -. 1.0;
          found := true
      | _ -> ())
    c.devs;
  if not !found then raise Not_found;
  b

let noise_sources c =
  let node_voltage x n = voltage c x n in
  Array.to_list c.devs
  |> List.concat_map (Device.noise_sources ~node_voltage)
  |> Array.of_list

let noise_pattern c (src : Device.noise_source) =
  let b = Vec.create c.total in
  if src.Device.np <> Netlist.gnd then b.(src.Device.np) <- 1.0;
  if src.Device.nn <> Netlist.gnd then b.(src.Device.nn) <- b.(src.Device.nn) -. 1.0;
  b
