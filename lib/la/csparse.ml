open Csr

type t = Cx.t Csr.t

(* New value arrays start as [unset], a record private to this module: a
   slot reached once takes its operand itself (no allocation), a slot
   reached again adds. *)
let unset = Cx.make Float.nan Float.nan

let accumulate values p v =
  let u = values.(p) in
  values.(p) <- (if u == unset then v else Cx.( +: ) u v)

let of_triplets ~rows ~cols triplets =
  let arr = Array.of_list triplets in
  let row_ptr, col_idx, slot = sort_triplets "Csparse.of_triplets" ~rows ~cols arr in
  let values = Array.make (Array.length col_idx) unset in
  Array.iteri (fun k (_, _, v) -> accumulate values slot.(k) v) arr;
  { nrows = rows; ncols = cols; row_ptr; col_idx; values }

let of_csr = Csr.of_csr "Csparse.of_csr"
let csr m = (m.row_ptr, m.col_idx, m.values)

let of_real s =
  let row_ptr, col_idx, values = Sparse.csr s in
  {
    nrows = Sparse.rows s;
    ncols = Sparse.cols s;
    row_ptr = Array.copy row_ptr;
    col_idx = Array.copy col_idx;
    values = Array.map Cx.re values;
  }

let rows m = m.nrows
let cols m = m.ncols
let nnz m = Array.length m.values
let scale a m = { m with values = Array.map (fun v -> Cx.( *: ) a v) m.values }

let matvec m x =
  if Array.length x <> m.ncols then invalid_arg "Csparse.matvec";
  Array.init m.nrows (fun i ->
      let s = ref Cx.zero in
      for k = m.row_ptr.(i) to m.row_ptr.(i + 1) - 1 do
        s := Cx.( +: ) !s (Cx.( *: ) m.values.(k) x.(m.col_idx.(k)))
      done;
      !s)

let to_dense m =
  let d = Cmat.make m.nrows m.ncols in
  for i = 0 to m.nrows - 1 do
    for k = m.row_ptr.(i) to m.row_ptr.(i + 1) - 1 do
      Cmat.update d i m.col_idx.(k) (fun v -> Cx.( +: ) v m.values.(k))
    done
  done;
  d

let add a b =
  let row_ptr, col_idx, slot_a, slot_b = merge "Csparse.add" a b in
  let values = Array.make (Array.length col_idx) unset in
  let scatter slot src =
    for k = 0 to Array.length slot - 1 do
      accumulate values slot.(k) src.(k)
    done
  in
  scatter slot_a a.values;
  scatter slot_b b.values;
  { nrows = a.nrows; ncols = a.ncols; row_ptr; col_idx; values }
