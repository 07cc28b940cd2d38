(* Real sparse LU: the float kernels of the shared Gilbert-Peierls
   factorization in [Gp_lu], plus the real-only ILU(0) preconditioner. *)

module Kernels = struct
  type v = float
  type m = Sparse.t

  exception Singular = Lu.Singular

  let name = "Sparse_lu"
  let zero = 0.0
  let csr = Sparse.csr
  let rows = Sparse.rows
  let cols = Sparse.cols

  let scatter x touched list nt (g : Gp_lu.gather) a k =
    let nt = ref nt in
    for p = g.g_ptr.(k) to g.g_ptr.(k + 1) - 1 do
      let i = g.g_rows.(p) and v = a.(g.g_src.(p)) in
      if touched.(i) then x.(i) <- x.(i) +. v
      else begin
        touched.(i) <- true;
        list.(!nt) <- i;
        incr nt;
        x.(i) <- v
      end
    done;
    !nt

  let apply x piv touched list nt rows vals lo hi prune =
    let xv = x.(piv) in
    if prune && xv = 0.0 then -1
    else begin
      let nt = ref nt in
      for p = lo to hi - 1 do
        let r = rows.(p) in
        if not touched.(r) then begin
          touched.(r) <- true;
          list.(!nt) <- r;
          incr nt
        end;
        x.(r) <- x.(r) -. (vals.(p) *. xv)
      done;
      !nt
    end

  let argmax x touch nt pinv =
    let best = ref (-1) in
    let best_abs = ref 0.0 in
    for t = 0 to nt - 1 do
      let i = touch.(t) in
      if pinv.(i) < 0 then begin
        let m = Float.abs x.(i) in
        if m > !best_abs then begin
          best_abs := m;
          best := i
        end
      end
    done;
    !best

  let put (b : float Gp_lu.buf) i v =
    b.idx.(b.len) <- i;
    b.va.(b.len) <- v;
    b.len <- b.len + 1

  let emit x touch nt pinv piv prune l u udiag k =
    let pv = x.(piv) in
    udiag.(k) <- pv;
    for t = 0 to nt - 1 do
      let i = touch.(t) in
      let v = x.(i) in
      if (not prune) || v <> 0.0 then begin
        if pinv.(i) < 0 then put l i (v /. pv) else if i <> piv then put u i v
      end;
      x.(i) <- 0.0
    done

  let store x piv lrows l0 l1 l_vals urows u0 u1 u_vals udiag k =
    let pv = x.(piv) in
    let colmax = ref (Float.abs pv) in
    for p = l0 to l1 - 1 do
      let m = Float.abs x.(lrows.(p)) in
      if m > !colmax then colmax := m
    done;
    if pv = 0.0 || Float.abs pv < Gp_lu.pivot_decay *. !colmax then false
    else begin
      udiag.(k) <- pv;
      for p = u0 to u1 - 1 do
        let r = urows.(p) in
        u_vals.(p) <- x.(r);
        x.(r) <- 0.0
      done;
      for p = l0 to l1 - 1 do
        let r = lrows.(p) in
        l_vals.(p) <- x.(r) /. pv;
        x.(r) <- 0.0
      done;
      x.(piv) <- 0.0;
      true
    end

  let sweep y k diag rows vals lo hi =
    (match diag with Some d -> y.(k) <- y.(k) /. d.(k) | None -> ());
    let yk = y.(k) in
    if yk <> 0.0 then
      for p = lo to hi - 1 do
        let r = rows.(p) in
        y.(r) <- y.(r) -. (vals.(p) *. yk)
      done

  let dot z k diag rows vals lo hi =
    let s = ref z.(k) in
    for p = lo to hi - 1 do
      s := !s -. (vals.(p) *. z.(rows.(p)))
    done;
    z.(k) <- (match diag with Some d -> !s /. d.(k) | None -> !s)

  let gather_perm src idx =
    let dst = Array.make (Array.length idx) 0.0 in
    for i = 0 to Array.length idx - 1 do
      dst.(i) <- src.(idx.(i))
    done;
    dst

  let scatter_perm src idx =
    let dst = Array.make (Array.length idx) 0.0 in
    for i = 0 to Array.length idx - 1 do
      dst.(idx.(i)) <- src.(i)
    done;
    dst
end

include Gp_lu.Make (Kernels)

let solve_mat f m =
  if m.Mat.rows <> dim f then invalid_arg "Sparse_lu.solve_mat";
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
