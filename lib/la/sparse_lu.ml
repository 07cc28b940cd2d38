(* Left-looking (Gilbert-Peierls) sparse LU with partial pivoting.

   Factors L * U = P * A where P is the row permutation chosen greedily for
   the largest remaining pivot, exactly as in dense [Lu]. L and U are stored
   column-compressed; L's unit diagonal is implicit, U's diagonal lives in a
   separate array. Row indices of L and U are in pivot coordinates after
   factorization (original rows are remapped through [pinv] once all pivots
   are known).

   Column k is eliminated by scattering A[:,k] into a dense work vector and
   applying every earlier L column whose pivot row currently holds a nonzero,
   in increasing pivot order -- a valid topological order because an L column
   only ever updates rows pivoted later. The per-column scan over previous
   pivots costs O(n) tests, negligible against the factorization flops for
   the matrix sizes circuit decks produce, and avoids the DFS reach
   machinery of the fully sparse variant. *)

exception Singular = Lu.Singular

(* Observability: how many factorizations reused a cached symbolic
   analysis vs. ran the full pivoting pass, and nnz(L+U) of the most
   recent one. The ledger is domain-local: a sweep or serve job runs on
   one domain, so its stats read its own factorizations, never those of
   a job running concurrently. *)
type ledger = { mutable refactors : int; mutable full : int; mutable fill : int }

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

type t = {
  n : int;
  (* L: strictly lower triangular, unit diagonal implicit, CSC *)
  l_colptr : int array;
  l_rows : int array;
  l_vals : float array;
  (* U: strictly upper part, CSC; diagonal separate *)
  u_colptr : int array;
  u_rows : int array;
  u_vals : float array;
  udiag : float array;
  pinv : int array; (* original row -> pivot position *)
  qperm : int array option;
      (* fill-reducing symmetric order: the factored matrix was
         [Sparse.permute_sym qperm a]; solves wrap the permutation *)
}

(* growable parallel (int, float) arrays *)
type buf = { mutable idx : int array; mutable va : float array; mutable len : int }

let buf_make cap = { idx = Array.make (max cap 16) 0; va = Array.make (max cap 16) 0.0; len = 0 }

let buf_push b i v =
  if b.len = Array.length b.idx then begin
    let cap = 2 * b.len in
    let idx = Array.make cap 0 and va = Array.make cap 0.0 in
    Array.blit b.idx 0 idx 0 b.len;
    Array.blit b.va 0 va 0 b.len;
    b.idx <- idx;
    b.va <- va
  end;
  b.idx.(b.len) <- i;
  b.va.(b.len) <- v;
  b.len <- b.len + 1

let factor_core a =
  let n = Sparse.rows a in
  if Sparse.cols a <> n then invalid_arg "Sparse_lu.factor: matrix not square";
  (* CSR of a^T: row j holds column j of a *)
  let at = Sparse.transpose a in
  let at_ptr, at_rows, at_vals = Sparse.csr at in
  let pinv = Array.make n (-1) in
  let prow = Array.make n (-1) in
  (* pivot position -> original row *)
  let x = Array.make n 0.0 in
  let touched = Array.make n false in
  let touch_list = Array.make n 0 in
  let l = buf_make (4 * Sparse.nnz a) in
  let u = buf_make (4 * Sparse.nnz a) in
  let l_colptr = Array.make (n + 1) 0 in
  let u_colptr = Array.make (n + 1) 0 in
  let udiag = Array.make n 0.0 in
  for k = 0 to n - 1 do
    (* scatter A[:,k] *)
    let nt = ref 0 in
    for p = at_ptr.(k) to at_ptr.(k + 1) - 1 do
      let i = at_rows.(p) in
      if not touched.(i) then begin
        touched.(i) <- true;
        touch_list.(!nt) <- i;
        incr nt;
        x.(i) <- at_vals.(p)
      end
      else x.(i) <- x.(i) +. at_vals.(p)
    done;
    (* eliminate with previous columns in pivot order *)
    for kp = 0 to k - 1 do
      let piv_row = prow.(kp) in
      if touched.(piv_row) && x.(piv_row) <> 0.0 then begin
        let xv = x.(piv_row) in
        for p = l_colptr.(kp) to l_colptr.(kp + 1) - 1 do
          let r = l.idx.(p) in
          (* still original-row coordinates at this point *)
          if not touched.(r) then begin
            touched.(r) <- true;
            touch_list.(!nt) <- r;
            incr nt;
            x.(r) <- 0.0
          end;
          x.(r) <- x.(r) -. (l.va.(p) *. xv)
        done
      end
    done;
    (* partial pivot over unassigned rows *)
    let best = ref (-1) in
    let best_abs = ref 0.0 in
    for t = 0 to !nt - 1 do
      let i = touch_list.(t) in
      if pinv.(i) < 0 then begin
        let m = Float.abs x.(i) in
        if m > !best_abs then begin
          best_abs := m;
          best := i
        end
      end
    done;
    if !best < 0 || !best_abs = 0.0 then raise Singular;
    let piv = !best in
    let pv = x.(piv) in
    pinv.(piv) <- k;
    prow.(k) <- piv;
    udiag.(k) <- pv;
    (* emit U column k (assigned rows) and L column k (unassigned rows) *)
    for t = 0 to !nt - 1 do
      let i = touch_list.(t) in
      let v = x.(i) in
      if v <> 0.0 then
        if pinv.(i) >= 0 then begin
          if i <> piv then buf_push u pinv.(i) v
        end
        else buf_push l i (v /. pv)
    done;
    l_colptr.(k + 1) <- l.len;
    u_colptr.(k + 1) <- u.len;
    (* clear work vector *)
    for t = 0 to !nt - 1 do
      let i = touch_list.(t) in
      x.(i) <- 0.0;
      touched.(i) <- false
    done
  done;
  (* remap L row indices to pivot coordinates *)
  let l_rows = Array.sub l.idx 0 l.len in
  for p = 0 to l.len - 1 do
    l_rows.(p) <- pinv.(l_rows.(p))
  done;
  record ~full:true (l.len + u.len + n);
  {
    n;
    l_colptr;
    l_rows;
    l_vals = Array.sub l.va 0 l.len;
    u_colptr;
    u_rows = Array.sub u.idx 0 u.len;
    u_vals = Array.sub u.va 0 u.len;
    udiag;
    pinv;
    qperm = None;
  }

let factor ?perm a =
  match perm with
  | None -> factor_core a
  | Some p -> { (factor_core (Sparse.permute_sym p a)) with qperm = Some p }

let nnz f = Array.length f.l_vals + Array.length f.u_vals + f.n

(* ---- symbolic reuse across re-stamps of a fixed sparsity pattern ----

   A Newton loop refactors the same structural pattern dozens of times;
   only the values change. [analyze] runs the full pivoting factorization
   once while recording, per column, (a) which earlier pivot columns
   structurally update it and (b) the structural L/U column patterns
   (original-row coordinates, explicit zeros kept so the closure is
   value-independent). [refactor] then replays that elimination with the
   pivot order frozen — no pivot search, no per-column scan over all
   previous pivots — and raises [Singular] when a frozen pivot has decayed
   below [pivot_decay] times its column magnitude, at which point the
   caller falls back to a fresh [analyze]. This is the KLU-style
   refactorization discipline. *)

type symbolic = {
  s_n : int;
  s_nnz : int; (* nnz of the analyzed matrix: cheap same-pattern check *)
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

let pivot_decay = 1e-10

type ibuf = { mutable ib : int array; mutable ilen : int }

let ibuf_make cap = { ib = Array.make (max cap 16) 0; ilen = 0 }

let ibuf_push b i =
  if b.ilen = Array.length b.ib then begin
    let ib = Array.make (2 * b.ilen) 0 in
    Array.blit b.ib 0 ib 0 b.ilen;
    b.ib <- ib
  end;
  b.ib.(b.ilen) <- i;
  b.ilen <- b.ilen + 1

let analyze_core a =
  let n = Sparse.rows a in
  if Sparse.cols a <> n then invalid_arg "Sparse_lu.analyze: matrix not square";
  let at = Sparse.transpose a in
  let at_ptr, at_rows, at_vals = Sparse.csr at in
  let pinv = Array.make n (-1) in
  let prow = Array.make n (-1) in
  let x = Array.make n 0.0 in
  let touched = Array.make n false in
  let touch_list = Array.make n 0 in
  let l = buf_make (4 * Sparse.nnz a) in
  let u = buf_make (4 * Sparse.nnz a) in
  let deps = ibuf_make (4 * n) in
  let l_colptr = Array.make (n + 1) 0 in
  let u_colptr = Array.make (n + 1) 0 in
  let dep_ptr = Array.make (n + 1) 0 in
  let udiag = Array.make n 0.0 in
  for k = 0 to n - 1 do
    let nt = ref 0 in
    for p = at_ptr.(k) to at_ptr.(k + 1) - 1 do
      let i = at_rows.(p) in
      if not touched.(i) then begin
        touched.(i) <- true;
        touch_list.(!nt) <- i;
        incr nt;
        x.(i) <- at_vals.(p)
      end
      else x.(i) <- x.(i) +. at_vals.(p)
    done;
    (* structural elimination: a previous column participates whenever its
       pivot row is touched, value notwithstanding, so the recorded
       dependency set is independent of the stamped numbers *)
    for kp = 0 to k - 1 do
      let piv_row = prow.(kp) in
      if touched.(piv_row) then begin
        ibuf_push deps kp;
        let xv = x.(piv_row) in
        for p = l_colptr.(kp) to l_colptr.(kp + 1) - 1 do
          let r = l.idx.(p) in
          if not touched.(r) then begin
            touched.(r) <- true;
            touch_list.(!nt) <- r;
            incr nt;
            x.(r) <- 0.0
          end;
          x.(r) <- x.(r) -. (l.va.(p) *. xv)
        done
      end
    done;
    dep_ptr.(k + 1) <- deps.ilen;
    (* partial pivot over unassigned rows *)
    let best = ref (-1) in
    let best_abs = ref 0.0 in
    for t = 0 to !nt - 1 do
      let i = touch_list.(t) in
      if pinv.(i) < 0 then begin
        let m = Float.abs x.(i) in
        if m > !best_abs then begin
          best_abs := m;
          best := i
        end
      end
    done;
    if !best < 0 || !best_abs = 0.0 then raise Singular;
    let piv = !best in
    let pv = x.(piv) in
    pinv.(piv) <- k;
    prow.(k) <- piv;
    udiag.(k) <- pv;
    (* emit ALL touched rows (zeros included): the pattern must be the
       structural closure or a later refactor could miss fill-in *)
    for t = 0 to !nt - 1 do
      let i = touch_list.(t) in
      let v = x.(i) in
      if pinv.(i) >= 0 then begin
        if i <> piv then buf_push u i v (* original-row coords for now *)
      end
      else buf_push l i (v /. pv)
    done;
    l_colptr.(k + 1) <- l.len;
    u_colptr.(k + 1) <- u.len;
    for t = 0 to !nt - 1 do
      let i = touch_list.(t) in
      x.(i) <- 0.0;
      touched.(i) <- false
    done
  done;
  let sl_rows = Array.sub l.idx 0 l.len in
  let su_rows = Array.sub u.idx 0 u.len in
  let sl_prows = Array.map (fun i -> pinv.(i)) sl_rows in
  let su_prows = Array.map (fun i -> pinv.(i)) su_rows in
  let s =
    {
      s_n = n;
      s_nnz = Sparse.nnz a;
      s_prow = prow;
      s_pinv = pinv;
      sl_colptr = l_colptr;
      sl_rows;
      su_colptr = u_colptr;
      su_rows;
      sl_prows;
      su_prows;
      s_dep_ptr = dep_ptr;
      s_deps = Array.sub deps.ib 0 deps.ilen;
      s_qperm = None;
    }
  in
  record ~full:true (l.len + u.len + n);
  let f =
    {
      n;
      l_colptr;
      l_rows = sl_prows;
      l_vals = Array.sub l.va 0 l.len;
      u_colptr;
      u_rows = su_prows;
      u_vals = Array.sub u.va 0 u.len;
      udiag;
      pinv;
      qperm = None;
    }
  in
  (s, f)

let analyze ?perm a =
  match perm with
  | None -> analyze_core a
  | Some p ->
      let s, f = analyze_core (Sparse.permute_sym p a) in
      ({ s with s_qperm = Some p }, { f with qperm = Some p })

let refactor_core s a =
  let n = Sparse.rows a in
  if Sparse.cols a <> n || n <> s.s_n || Sparse.nnz a <> s.s_nnz then
    invalid_arg "Sparse_lu.refactor: pattern mismatch";
  let at = Sparse.transpose a in
  let at_ptr, at_rows, at_vals = Sparse.csr at in
  let x = Array.make n 0.0 in
  let l_vals = Array.make (Array.length s.sl_rows) 0.0 in
  let u_vals = Array.make (Array.length s.su_rows) 0.0 in
  let udiag = Array.make n 0.0 in
  for k = 0 to n - 1 do
    (* scatter A[:,k]; its rows are a subset of the recorded reach, which
       was zeroed after the previous column *)
    for p = at_ptr.(k) to at_ptr.(k + 1) - 1 do
      let i = at_rows.(p) in
      x.(i) <- x.(i) +. at_vals.(p)
    done;
    for dp = s.s_dep_ptr.(k) to s.s_dep_ptr.(k + 1) - 1 do
      let kp = s.s_deps.(dp) in
      let xv = x.(s.s_prow.(kp)) in
      if xv <> 0.0 then
        for p = s.sl_colptr.(kp) to s.sl_colptr.(kp + 1) - 1 do
          let r = s.sl_rows.(p) in
          x.(r) <- x.(r) -. (l_vals.(p) *. xv)
        done
    done;
    let piv_row = s.s_prow.(k) in
    let pv = x.(piv_row) in
    (* frozen-pivot health check against the column magnitude *)
    let colmax = ref (Float.abs pv) in
    for p = s.sl_colptr.(k) to s.sl_colptr.(k + 1) - 1 do
      let m = Float.abs x.(s.sl_rows.(p)) in
      if m > !colmax then colmax := m
    done;
    if pv = 0.0 || Float.abs pv < pivot_decay *. !colmax then raise Singular;
    udiag.(k) <- pv;
    for p = s.su_colptr.(k) to s.su_colptr.(k + 1) - 1 do
      let r = s.su_rows.(p) in
      u_vals.(p) <- x.(r);
      x.(r) <- 0.0
    done;
    for p = s.sl_colptr.(k) to s.sl_colptr.(k + 1) - 1 do
      let r = s.sl_rows.(p) in
      l_vals.(p) <- x.(r) /. pv;
      x.(r) <- 0.0
    done;
    x.(piv_row) <- 0.0
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
    qperm = None;
  }

let refactor s a =
  match s.s_qperm with
  | None -> refactor_core s a
  | Some p -> { (refactor_core s (Sparse.permute_sym p a)) with qperm = Some p }

let same_perm a b =
  match (a, b) with
  | None, None -> true
  | Some pa, Some pb -> pa == pb || pa = pb
  | _ -> false

let factor_cached ?perm cache a =
  match !cache with
  | Some s
    when s.s_n = Sparse.rows a && s.s_nnz = Sparse.nnz a
         && same_perm s.s_qperm perm -> begin
      try refactor s a
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

(* Solves wrap the fill-reducing order transparently: the stored factor is
   of A' = P A P^T, so A x = b becomes A' (P x) = P b. *)
let apply_qperm f solve_core b =
  match f.qperm with
  | None -> solve_core b
  | Some p ->
      let n = f.n in
      if Array.length b <> n then invalid_arg "Sparse_lu.solve";
      let pb = Array.init n (fun k -> b.(p.(k))) in
      let px = solve_core pb in
      let x = Array.make n 0.0 in
      for k = 0 to n - 1 do
        x.(p.(k)) <- px.(k)
      done;
      x

let solve_core f b =
  if Array.length b <> f.n then invalid_arg "Sparse_lu.solve";
  let n = f.n in
  (* y = P b *)
  let y = Array.make n 0.0 in
  for i = 0 to n - 1 do
    y.(f.pinv.(i)) <- b.(i)
  done;
  (* L y' = y, unit diagonal *)
  for k = 0 to n - 1 do
    let yk = y.(k) in
    if yk <> 0.0 then
      for p = f.l_colptr.(k) to f.l_colptr.(k + 1) - 1 do
        y.(f.l_rows.(p)) <- y.(f.l_rows.(p)) -. (f.l_vals.(p) *. yk)
      done
  done;
  (* U x = y' *)
  for k = n - 1 downto 0 do
    let xk = y.(k) /. f.udiag.(k) in
    y.(k) <- xk;
    if xk <> 0.0 then
      for p = f.u_colptr.(k) to f.u_colptr.(k + 1) - 1 do
        y.(f.u_rows.(p)) <- y.(f.u_rows.(p)) -. (f.u_vals.(p) *. xk)
      done
  done;
  y

let solve f b = apply_qperm f (solve_core f) b

let solve_transposed_core f b =
  if Array.length b <> f.n then invalid_arg "Sparse_lu.solve_transposed";
  let n = f.n in
  (* U^T z = b: forward, row k of U^T is column k of U *)
  let z = Array.make n 0.0 in
  for k = 0 to n - 1 do
    let s = ref b.(k) in
    for p = f.u_colptr.(k) to f.u_colptr.(k + 1) - 1 do
      s := !s -. (f.u_vals.(p) *. z.(f.u_rows.(p)))
    done;
    z.(k) <- !s /. f.udiag.(k)
  done;
  (* L^T w = z: backward, unit diagonal *)
  for k = n - 1 downto 0 do
    let s = ref z.(k) in
    for p = f.l_colptr.(k) to f.l_colptr.(k + 1) - 1 do
      s := !s -. (f.l_vals.(p) *. z.(f.l_rows.(p)))
    done;
    z.(k) <- !s
  done;
  (* x = P^T w *)
  Array.init n (fun i -> z.(f.pinv.(i)))

(* (P A P^T)^T = P A^T P^T: the same symmetric wrap applies *)
let solve_transposed f b = apply_qperm f (solve_transposed_core f) b

let solve_mat f m =
  if m.Mat.rows <> f.n then invalid_arg "Sparse_lu.solve_mat";
  let out = Mat.make m.Mat.rows m.Mat.cols in
  for j = 0 to m.Mat.cols - 1 do
    Mat.set_col out j (solve f (Mat.col m j))
  done;
  out

(* ---- ILU(0): incomplete factorization on the matrix's own pattern ---- *)

type ilu = {
  in_ : int;
  i_row_ptr : int array;
  i_col_idx : int array;
  i_lu : float array; (* merged L (unit diag implicit) and U factors *)
  i_dpos : int array; (* slot of the diagonal entry per row, -1 if absent *)
}

let find_slot row_ptr col_idx i j =
  (* binary search for column j within row i's sorted slots *)
  let lo = ref row_ptr.(i) and hi = ref (row_ptr.(i + 1) - 1) in
  let res = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let c = col_idx.(mid) in
    if c = j then begin
      res := mid;
      lo := !hi + 1
    end
    else if c < j then lo := mid + 1
    else hi := mid - 1
  done;
  !res

let diag_guard = 1e-300

let ilu0 a =
  let n = Sparse.rows a in
  if Sparse.cols a <> n then invalid_arg "Sparse_lu.ilu0: matrix not square";
  let row_ptr, col_idx, values = Sparse.csr a in
  let lu = Array.copy values in
  let dpos = Array.init n (fun i -> find_slot row_ptr col_idx i i) in
  let diag i =
    if dpos.(i) < 0 then 1.0
    else
      let d = lu.(dpos.(i)) in
      if Float.abs d < diag_guard then 1.0 else d
  in
  for i = 1 to n - 1 do
    for p = row_ptr.(i) to row_ptr.(i + 1) - 1 do
      let k = col_idx.(p) in
      if k < i then begin
        let mult = lu.(p) /. diag k in
        lu.(p) <- mult;
        for q = p + 1 to row_ptr.(i + 1) - 1 do
          let j = col_idx.(q) in
          let s = find_slot row_ptr col_idx k j in
          if s >= 0 then lu.(q) <- lu.(q) -. (mult *. lu.(s))
        done
      end
    done
  done;
  { in_ = n; i_row_ptr = row_ptr; i_col_idx = col_idx; i_lu = lu; i_dpos = dpos }

let ilu_apply f r =
  if Array.length r <> f.in_ then invalid_arg "Sparse_lu.ilu_apply";
  let n = f.in_ in
  let z = Array.copy r in
  (* unit-lower forward solve *)
  for i = 0 to n - 1 do
    let s = ref z.(i) in
    for p = f.i_row_ptr.(i) to f.i_row_ptr.(i + 1) - 1 do
      let j = f.i_col_idx.(p) in
      if j < i then s := !s -. (f.i_lu.(p) *. z.(j))
    done;
    z.(i) <- !s
  done;
  (* upper backward solve *)
  for i = n - 1 downto 0 do
    let s = ref z.(i) in
    for p = f.i_row_ptr.(i) to f.i_row_ptr.(i + 1) - 1 do
      let j = f.i_col_idx.(p) in
      if j > i then s := !s -. (f.i_lu.(p) *. z.(j))
    done;
    let d =
      if f.i_dpos.(i) < 0 then 1.0
      else
        let d = f.i_lu.(f.i_dpos.(i)) in
        if Float.abs d < diag_guard then 1.0 else d
    in
    z.(i) <- !s /. d
  done;
  z
