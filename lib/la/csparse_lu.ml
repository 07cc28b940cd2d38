(* Complex sparse LU for (G + j omega C) systems: the [Cx.t] kernels of
   the shared Gilbert-Peierls factorization in [Gp_lu]. Magnitudes are
   [Cx.abs], so pivots match dense [Clu]. *)

open Cx

module Kernels = struct
  type v = Cx.t
  type m = Csparse.t

  exception Singular = Clu.Singular

  let name = "Csparse_lu"
  let zero = Cx.zero
  let csr = Csparse.csr
  let rows = Csparse.rows
  let cols = Csparse.cols

  let is_zero z = z.re = 0.0 && z.im = 0.0

  let scatter x touched list nt (g : Gp_lu.gather) a k =
    let nt = ref nt in
    for p = g.g_ptr.(k) to g.g_ptr.(k + 1) - 1 do
      let i = g.g_rows.(p) and v = a.(g.g_src.(p)) in
      if touched.(i) then x.(i) <- x.(i) +: v
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
    if prune && is_zero xv then -1
    else begin
      let nt = ref nt in
      for p = lo to hi - 1 do
        let r = rows.(p) in
        if not touched.(r) then begin
          touched.(r) <- true;
          list.(!nt) <- r;
          incr nt
        end;
        x.(r) <- x.(r) -: (vals.(p) *: xv)
      done;
      !nt
    end

  let argmax x touch nt pinv =
    let best = ref (-1) in
    let best_abs = ref 0.0 in
    for t = 0 to nt - 1 do
      let i = touch.(t) in
      if pinv.(i) < 0 then begin
        let m = Cx.abs x.(i) in
        if m > !best_abs then begin
          best_abs := m;
          best := i
        end
      end
    done;
    !best

  let put (b : Cx.t Gp_lu.buf) i v =
    b.idx.(b.len) <- i;
    b.va.(b.len) <- v;
    b.len <- b.len + 1

  let emit x touch nt pinv piv prune l u udiag k =
    let pv = x.(piv) in
    udiag.(k) <- pv;
    for t = 0 to nt - 1 do
      let i = touch.(t) in
      let v = x.(i) in
      if (not prune) || not (is_zero v) then begin
        if pinv.(i) < 0 then put l i (v /: pv) else if i <> piv then put u i v
      end;
      x.(i) <- Cx.zero
    done

  let store x piv lrows l0 l1 l_vals urows u0 u1 u_vals udiag k =
    let pv = x.(piv) in
    let colmax = ref (Cx.abs pv) in
    for p = l0 to l1 - 1 do
      let m = Cx.abs x.(lrows.(p)) in
      if m > !colmax then colmax := m
    done;
    if is_zero pv || Cx.abs pv < Gp_lu.pivot_decay *. !colmax then false
    else begin
      udiag.(k) <- pv;
      for p = u0 to u1 - 1 do
        let r = urows.(p) in
        u_vals.(p) <- x.(r);
        x.(r) <- Cx.zero
      done;
      for p = l0 to l1 - 1 do
        let r = lrows.(p) in
        l_vals.(p) <- x.(r) /: pv;
        x.(r) <- Cx.zero
      done;
      x.(piv) <- Cx.zero;
      true
    end

  let sweep y k diag rows vals lo hi =
    (match diag with Some d -> y.(k) <- y.(k) /: d.(k) | None -> ());
    let yk = y.(k) in
    if not (is_zero yk) then
      for p = lo to hi - 1 do
        let r = rows.(p) in
        y.(r) <- y.(r) -: (vals.(p) *: yk)
      done

  let dot z k diag rows vals lo hi =
    let s = ref z.(k) in
    for p = lo to hi - 1 do
      s := !s -: (vals.(p) *: z.(rows.(p)))
    done;
    z.(k) <- (match diag with Some d -> !s /: d.(k) | None -> !s)

  let gather_perm src idx = Array.map (fun i -> src.(i)) idx

  let scatter_perm src idx =
    let dst = Array.make (Array.length idx) Cx.zero in
    Array.iteri (fun i j -> dst.(j) <- src.(i)) idx;
    dst
end

include Gp_lu.Make (Kernels)

let solve_mat f (m : Cmat.t) =
  if m.Cmat.rows <> dim f then invalid_arg "Csparse_lu.solve_mat";
  let out = Cmat.make m.Cmat.rows m.Cmat.cols in
  for j = 0 to m.Cmat.cols - 1 do
    let bj = Array.init m.Cmat.rows (fun i -> Cmat.get m i j) in
    let xj = solve f bj in
    for i = 0 to m.Cmat.rows - 1 do
      Cmat.set out i j xj.(i)
    done
  done;
  out
