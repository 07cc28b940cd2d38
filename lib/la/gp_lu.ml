(* Left-looking (Gilbert-Peierls) sparse LU with partial pivoting, written
   once for the real and the complex MNA systems.

   Factors L * U = P * A where P is the row permutation chosen greedily for
   the largest remaining pivot magnitude, exactly as in dense [Lu]/[Clu].
   L and U are stored column-compressed; L's unit diagonal is implicit,
   U's diagonal lives in a separate array. Row indices of L and U are in
   pivot coordinates after factorization (original rows are remapped
   through [pinv] once all pivots are known).

   Column k is eliminated by scattering A[:,k] into a dense work vector and
   applying every earlier L column whose pivot row it reaches, in
   increasing pivot order -- a valid topological order because an L column
   only ever updates rows pivoted later. The per-column scan over previous
   pivots costs O(n) tests, negligible against the factorization flops for
   the matrix sizes circuit decks produce.

   Everything here works on indices (values move only as whole arrays):
   the plan, the reach and pivot bookkeeping, the refactor replay, the
   ordering wrap and the ledger. Scalars are touched solely by the
   column-level kernels of [KERNELS],
   one instance per field ([Sparse_lu], [Csparse_lu]). The compiler runs
   without flambda, so a functor over scalar [add]/[mul] would box every
   float of the real hot loop; a kernel instead takes whole arrays and an
   index range and never returns a scalar, so the real instance keeps its
   unboxed float loops. *)

let pivot_decay = 1e-10

type 'v buf = { mutable idx : int array; mutable va : 'v array; mutable len : int }

let buf_make cap zero =
  { idx = Array.make (max cap 16) 0; va = Array.make (max cap 16) zero; len = 0 }

(* room for [extra] more entries; values move by block copy only *)
let reserve b extra =
  let cap = Array.length b.idx in
  if b.len + extra > cap then begin
    let cap' = max (2 * cap) (b.len + extra) in
    let idx = Array.make cap' 0 in
    Array.blit b.idx 0 idx 0 b.len;
    b.idx <- idx;
    b.va <- Array.append b.va (Array.make (cap' - cap) b.va.(0))
  end

(* first pivot position [kp] below [k] whose pivot row is [touched], else
   [k]; a call-free loop, so the scan over all earlier pivots stays in
   registers *)
let rec next_reached touched prow kp k =
  if kp < k && not touched.(prow.(kp)) then next_reached touched prow (kp + 1) k else kp

(* Index-only gather map of the columns of P A P^T: column k lists its
   entries as (row of P A P^T, slot in A's value array), rows increasing
   and duplicates in storage order -- the order a CSR transpose of the
   permuted matrix yields, on which pivot tie-breaks, the L/U emission
   order and hence the rounding of the transposed solve depend. Built once
   per analysis, it replaces the value copies of a permute-then-transpose
   on every factorization. *)
type gather = { g_ptr : int array; g_rows : int array; g_src : int array }

let gather ~name n perm row_ptr col_idx =
  let p, pinv =
    match perm with
    | None ->
        let id = Array.init n Fun.id in
        (id, id)
    | Some p ->
        if Array.length p <> n then invalid_arg (name ^ ": permutation length");
        let pinv = Array.make n (-1) in
        Array.iteri
          (fun k old ->
            if old < 0 || old >= n || pinv.(old) >= 0 then
              invalid_arg (name ^ ": not a permutation");
            pinv.(old) <- k)
          p;
        (p, pinv)
  in
  let g_ptr = Array.make (n + 1) 0 in
  Array.iter (fun j -> g_ptr.(pinv.(j) + 1) <- g_ptr.(pinv.(j) + 1) + 1) col_idx;
  for k = 0 to n - 1 do
    g_ptr.(k + 1) <- g_ptr.(k + 1) + g_ptr.(k)
  done;
  let g_rows = Array.make g_ptr.(n) 0 and g_src = Array.make g_ptr.(n) 0 in
  let next = Array.sub g_ptr 0 n in
  for i = 0 to n - 1 do
    for q = row_ptr.(p.(i)) to row_ptr.(p.(i) + 1) - 1 do
      let k = pinv.(col_idx.(q)) in
      g_rows.(next.(k)) <- i;
      g_src.(next.(k)) <- q;
      next.(k) <- next.(k) + 1
    done
  done;
  { g_ptr; g_rows; g_src }

(* ---- symbolic reuse across re-stamps of a fixed sparsity pattern ----

   A Newton loop refactors the same structural pattern dozens of times, an
   HB preconditioner one block per harmonic, an AC sweep one system per
   frequency; only the values change. [analyze] runs the full pivoting
   factorization once while recording, per column, (a) which earlier pivot
   columns structurally update it and (b) the structural L/U column
   patterns (original-row coordinates, explicit zeros kept so the closure
   is value-independent). [refactor] then replays that elimination with
   the pivot order frozen -- no pivot search, no per-column scan over all
   previous pivots -- and raises [Singular] when a frozen pivot has decayed
   below [pivot_decay] times its column magnitude, at which point the
   caller falls back to a fresh [analyze]. This is the KLU-style
   refactorization discipline. *)

type symbolic = {
  s_n : int;
  (* the analyzed pattern, compared before any reuse *)
  s_row_ptr : int array;
  s_col_idx : int array;
  s_gather : gather;
  s_prow : int array; (* pivot position -> original row *)
  s_pinv : int array; (* original row -> pivot position *)
  (* structural column patterns, original-row coordinates *)
  sl_colptr : int array;
  sl_rows : int array;
  su_colptr : int array;
  su_rows : int array;
  (* the same patterns in pivot coordinates, ready to share with [t] *)
  sl_prows : int array;
  su_prows : int array;
  (* columns kp < k whose L column structurally reaches column k *)
  s_dep_ptr : int array;
  s_deps : int array;
  s_qperm : int array option; (* ordering the analysis was run under *)
}

type 'v factor = {
  n : int;
  (* L: strictly lower triangular, unit diagonal implicit, CSC *)
  l_colptr : int array;
  l_rows : int array;
  l_vals : 'v array;
  (* U: strictly upper part, CSC; diagonal separate *)
  u_colptr : int array;
  u_rows : int array;
  u_vals : 'v array;
  udiag : 'v array;
  pinv : int array; (* original row -> pivot position *)
  qperm : int array option;
      (* fill-reducing symmetric order: the factored matrix was P A P^T
         with P taking [qperm.(k)] to [k]; solves wrap the permutation *)
}

(* Observability: how many factorizations reused a cached symbolic
   analysis vs. ran the full pivoting pass, and nnz(L+U) of the most
   recent one. The ledger is domain-local: a sweep or serve job runs on
   one domain, so its stats read its own factorizations, never those of
   a job running concurrently. *)
type ledger = { mutable refactors : int; mutable full : int; mutable fill : int }

module type KERNELS = sig
  type v
  type m

  exception Singular

  val name : string
  val zero : v
  val csr : m -> int array * int array * v array
  val rows : m -> int
  val cols : m -> int
  val scatter : v array -> bool array -> int array -> int -> gather -> v array -> int -> int

  val apply :
    v array -> int -> bool array -> int array -> int -> int array -> v array -> int -> int -> bool ->
    int

  val argmax : v array -> int array -> int -> int array -> int
  val emit :
    v array -> int array -> int -> int array -> int -> bool -> v buf -> v buf -> v array -> int ->
    unit

  val store :
    v array -> int -> int array -> int -> int -> v array -> int array -> int -> int -> v array ->
    v array -> int -> bool

  val sweep : v array -> int -> v array option -> int array -> v array -> int -> int -> unit
  val dot : v array -> int -> v array option -> int array -> v array -> int -> int -> unit
  val gather_perm : v array -> int array -> v array
  val scatter_perm : v array -> int array -> v array
end

module Make (K : KERNELS) = struct
  type t = K.v factor
  type nonrec symbolic = symbolic

  exception Singular = K.Singular

  let ledger = Domain.DLS.new_key (fun () -> { refactors = 0; full = 0; fill = 0 })

  let counts () =
    let l = Domain.DLS.get ledger in
    (l.refactors, l.full)

  let fill_nnz () = (Domain.DLS.get ledger).fill

  let reset_counts () =
    let l = Domain.DLS.get ledger in
    l.refactors <- 0;
    l.full <- 0;
    l.fill <- 0

  let record ~full fill =
    let l = Domain.DLS.get ledger in
    if full then l.full <- l.full + 1 else l.refactors <- l.refactors + 1;
    l.fill <- fill

  let dim f = f.n
  let nnz f = Array.length f.l_vals + Array.length f.u_vals + f.n

  (* One elimination for [factor] and [analyze]. Without [closure] an
     earlier column updates column k only while its pivot row holds a
     nonzero and numeric zeros are dropped from L and U. With [closure]
     every structurally reaching column participates and is recorded as a
     dependency, and zeros are kept, so the L/U patterns are the
     structural closure a later refactor can replay for any values. *)
  let eliminate ~closure ~what ?perm a =
    let n = K.rows a in
    if K.cols a <> n then invalid_arg (K.name ^ "." ^ what ^ ": matrix not square");
    let row_ptr, col_idx, av = K.csr a in
    let g = gather ~name:(K.name ^ "." ^ what) n perm row_ptr col_idx in
    let pinv = Array.make n (-1) in
    let prow = Array.make n (-1) in
    let x = Array.make n K.zero in
    let touched = Array.make n false in
    let touch_list = Array.make n 0 in
    let l = buf_make (4 * Array.length av) K.zero in
    let u = buf_make (4 * Array.length av) K.zero in
    let deps = ref [] and ndeps = ref 0 in
    let l_colptr = Array.make (n + 1) 0 in
    let u_colptr = Array.make (n + 1) 0 in
    let dep_ptr = Array.make (n + 1) 0 in
    let udiag = Array.make n K.zero in
    for k = 0 to n - 1 do
      let nt = ref (K.scatter x touched touch_list 0 g av k) in
      let kp = ref (next_reached touched prow 0 k) in
      while !kp < k do
        let nt' =
          K.apply x prow.(!kp) touched touch_list !nt l.idx l.va l_colptr.(!kp)
            l_colptr.(!kp + 1) (not closure)
        in
        if nt' >= 0 then begin
          nt := nt';
          if closure then begin
            deps := !kp :: !deps;
            incr ndeps
          end
        end;
        kp := next_reached touched prow (!kp + 1) k
      done;
      dep_ptr.(k + 1) <- !ndeps;
      let piv = K.argmax x touch_list !nt pinv in
      if piv < 0 then raise Singular;
      pinv.(piv) <- k;
      prow.(k) <- piv;
      reserve l !nt;
      reserve u !nt;
      K.emit x touch_list !nt pinv piv (not closure) l u udiag k;
      l_colptr.(k + 1) <- l.len;
      u_colptr.(k + 1) <- u.len;
      for t = 0 to !nt - 1 do
        touched.(touch_list.(t)) <- false
      done
    done;
    record ~full:true (l.len + u.len + n);
    let pivot_rows b = Array.init b.len (fun p -> pinv.(b.idx.(p))) in
    let f =
      {
        n;
        l_colptr;
        l_rows = pivot_rows l;
        l_vals = Array.sub l.va 0 l.len;
        u_colptr;
        u_rows = pivot_rows u;
        u_vals = Array.sub u.va 0 u.len;
        udiag;
        pinv;
        qperm = perm;
      }
    in
    let plan () =
      {
        s_n = n;
        s_row_ptr = row_ptr;
        s_col_idx = col_idx;
        s_gather = g;
        s_prow = prow;
        s_pinv = pinv;
        sl_colptr = l_colptr;
        sl_rows = Array.sub l.idx 0 l.len;
        su_colptr = u_colptr;
        su_rows = Array.sub u.idx 0 u.len;
        sl_prows = f.l_rows;
        su_prows = f.u_rows;
        s_dep_ptr = dep_ptr;
        s_deps = Array.of_list (List.rev !deps);
        s_qperm = perm;
      }
    in
    (plan, f)

  let factor ?perm a = snd (eliminate ~closure:false ~what:"factor" ?perm a)

  let analyze ?perm a =
    let plan, f = eliminate ~closure:true ~what:"analyze" ?perm a in
    (plan (), f)

  (* physical equality first: Newton loops re-stamp into shared index
     arrays, so the value comparison runs only on a fresh pattern *)
  let same_pattern s a =
    let row_ptr, col_idx, _ = K.csr a in
    K.rows a = s.s_n
    && K.cols a = s.s_n
    && (row_ptr == s.s_row_ptr || row_ptr = s.s_row_ptr)
    && (col_idx == s.s_col_idx || col_idx = s.s_col_idx)

  (* [refactor] on a pattern already known to match *)
  let replay s a =
    let _, _, av = K.csr a in
    let n = s.s_n in
    let x = Array.make n K.zero in
    let l_vals = Array.make (Array.length s.sl_rows) K.zero in
    let u_vals = Array.make (Array.length s.su_rows) K.zero in
    let udiag = Array.make n K.zero in
    (* every row of the recorded reach counts as touched: column k's rows
       are a subset of it, zeroed after the previous column, so the
       scatter only accumulates *)
    let live = Array.make n true in
    for k = 0 to n - 1 do
      ignore (K.scatter x live [||] 0 s.s_gather av k);
      for dp = s.s_dep_ptr.(k) to s.s_dep_ptr.(k + 1) - 1 do
        let kp = s.s_deps.(dp) in
        ignore
          (K.apply x s.s_prow.(kp) live [||] 0 s.sl_rows l_vals s.sl_colptr.(kp)
             s.sl_colptr.(kp + 1) true)
      done;
      if
        not
          (K.store x s.s_prow.(k) s.sl_rows s.sl_colptr.(k) s.sl_colptr.(k + 1) l_vals s.su_rows
             s.su_colptr.(k) s.su_colptr.(k + 1) u_vals udiag k)
      then raise Singular
    done;
    record ~full:false (Array.length l_vals + Array.length u_vals + n);
    {
      n;
      l_colptr = s.sl_colptr;
      l_rows = s.sl_prows;
      l_vals;
      u_colptr = s.su_colptr;
      u_rows = s.su_prows;
      u_vals;
      udiag;
      pinv = s.s_pinv;
      qperm = s.s_qperm;
    }

  let refactor s a =
    if not (same_pattern s a) then invalid_arg (K.name ^ ".refactor: pattern mismatch");
    replay s a

  let same_perm a b =
    match (a, b) with
    | None, None -> true
    | Some pa, Some pb -> pa == pb || pa = pb
    | _ -> false

  let factor_cached ?perm cache a =
    match !cache with
    | Some s when same_pattern s a && same_perm s.s_qperm perm -> begin
        try replay s a
        with Singular ->
          (* pivots drifted too far from the analyzed values: re-pivot *)
          let s', f = analyze ?perm a in
          cache := Some s';
          f
      end
    | _ ->
        let s, f = analyze ?perm a in
        cache := Some s;
        f

  (* Solves wrap the fill-reducing order transparently: the stored factor
     is of A' = P A P^T, so A x = b becomes A' (P x) = P b. *)
  let apply_qperm ~what f solve_core b =
    if Array.length b <> f.n then invalid_arg (K.name ^ "." ^ what);
    match f.qperm with
    | None -> solve_core b
    | Some p -> K.scatter_perm (solve_core (K.gather_perm b p)) p

  let solve f b =
    apply_qperm ~what:"solve" f
      (fun b ->
        (* y = P b, then L y' = y (unit diagonal), then U x = y' *)
        let y = K.scatter_perm b f.pinv and udiag = Some f.udiag in
        for k = 0 to f.n - 1 do
          K.sweep y k None f.l_rows f.l_vals f.l_colptr.(k) f.l_colptr.(k + 1)
        done;
        for k = f.n - 1 downto 0 do
          K.sweep y k udiag f.u_rows f.u_vals f.u_colptr.(k) f.u_colptr.(k + 1)
        done;
        y)
      b

  (* (P A P^T)^T = P A^T P^T: the same symmetric wrap applies *)
  let solve_transposed f b =
    apply_qperm ~what:"solve_transposed" f
      (fun b ->
        (* U^T z = b forward (row k of U^T is column k of U), then
           L^T w = z backward (unit diagonal), then x = P^T w *)
        let z = Array.copy b and udiag = Some f.udiag in
        for k = 0 to f.n - 1 do
          K.dot z k udiag f.u_rows f.u_vals f.u_colptr.(k) f.u_colptr.(k + 1)
        done;
        for k = f.n - 1 downto 0 do
          K.dot z k None f.l_rows f.l_vals f.l_colptr.(k) f.l_colptr.(k + 1)
        done;
        K.gather_perm z f.pinv)
      b
end
