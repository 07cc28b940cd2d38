open Csr

type t = float Csr.t

(* New value arrays start at negative zero, the identity of IEEE addition:
   a slot reached once holds its operand bit for bit, a slot reached again
   sums in order. *)
let of_triplets ~rows ~cols triplets =
  let arr = Array.of_list triplets in
  let row_ptr, col_idx, slot = sort_triplets "Sparse.of_triplets" ~rows ~cols arr in
  let values = Array.make (Array.length col_idx) (-0.0) in
  Array.iteri
    (fun k (_, _, v) ->
      let p = slot.(k) in
      values.(p) <- values.(p) +. v)
    arr;
  { nrows = rows; ncols = cols; row_ptr; col_idx; values }

let of_csr = Csr.of_csr "Sparse.of_csr"
let csr m = (m.row_ptr, m.col_idx, m.values)
let rows m = m.nrows
let cols m = m.ncols
let nnz m = Array.length m.values

let density m =
  if m.nrows = 0 || m.ncols = 0 then 0.0
  else float_of_int (nnz m) /. (float_of_int m.nrows *. float_of_int m.ncols)

let matvec m x =
  if Array.length x <> m.ncols then invalid_arg "Sparse.matvec";
  Array.init m.nrows (fun i ->
      let s = ref 0.0 in
      for k = m.row_ptr.(i) to m.row_ptr.(i + 1) - 1 do
        s := !s +. (m.values.(k) *. x.(m.col_idx.(k)))
      done;
      !s)

let matvec_t m x =
  if Array.length x <> m.nrows then invalid_arg "Sparse.matvec_t";
  let y = Array.make m.ncols 0.0 in
  for i = 0 to m.nrows - 1 do
    let xi = x.(i) in
    if xi <> 0.0 then
      for k = m.row_ptr.(i) to m.row_ptr.(i + 1) - 1 do
        y.(m.col_idx.(k)) <- y.(m.col_idx.(k)) +. (m.values.(k) *. xi)
      done
  done;
  y

let to_dense m =
  let d = Mat.make m.nrows m.ncols in
  for i = 0 to m.nrows - 1 do
    for k = m.row_ptr.(i) to m.row_ptr.(i + 1) - 1 do
      Mat.update d i m.col_idx.(k) (fun v -> v +. m.values.(k))
    done
  done;
  d

let of_dense ?(drop_tol = 0.0) d =
  let rows = d.Mat.rows and cols = d.Mat.cols in
  let row_ptr = Array.make (rows + 1) 0 in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      if Float.abs (Mat.get d i j) > drop_tol then
        row_ptr.(i + 1) <- row_ptr.(i + 1) + 1
    done
  done;
  for i = 0 to rows - 1 do
    row_ptr.(i + 1) <- row_ptr.(i + 1) + row_ptr.(i)
  done;
  let n = row_ptr.(rows) in
  let col_idx = Array.make n 0 in
  let values = Array.make n 0.0 in
  let pos = ref 0 in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      let v = Mat.get d i j in
      if Float.abs v > drop_tol then begin
        col_idx.(!pos) <- j;
        values.(!pos) <- v;
        incr pos
      end
    done
  done;
  { nrows = rows; ncols = cols; row_ptr; col_idx; values }

let scale a m = { m with values = Array.map (fun v -> a *. v) m.values }

let add a b =
  let row_ptr, col_idx, slot_a, slot_b = merge "Sparse.add" a b in
  let values = Array.make (Array.length col_idx) (-0.0) in
  let scatter slot (src : float array) =
    for k = 0 to Array.length slot - 1 do
      let p = slot.(k) in
      values.(p) <- values.(p) +. src.(k)
    done
  in
  scatter slot_a a.values;
  scatter slot_b b.values;
  { nrows = a.nrows; ncols = a.ncols; row_ptr; col_idx; values }

let of_diag d =
  let n = Array.length d in
  {
    nrows = n;
    ncols = n;
    row_ptr = Array.init (n + 1) (fun i -> i);
    col_idx = Array.init n (fun i -> i);
    values = Array.copy d;
  }

let scaled_identity n a = of_diag (Array.make n a)

let matmat m d =
  if d.Mat.rows <> m.ncols then invalid_arg "Sparse.matmat: dims";
  let out = Mat.make m.nrows d.Mat.cols in
  let dc = d.Mat.cols in
  for i = 0 to m.nrows - 1 do
    for k = m.row_ptr.(i) to m.row_ptr.(i + 1) - 1 do
      let v = m.values.(k) and j = m.col_idx.(k) in
      let src = j * dc and dst = i * dc in
      for c = 0 to dc - 1 do
        out.Mat.a.(dst + c) <- out.Mat.a.(dst + c) +. (v *. d.Mat.a.(src + c))
      done
    done
  done;
  out

let iter f m =
  for i = 0 to m.nrows - 1 do
    for k = m.row_ptr.(i) to m.row_ptr.(i + 1) - 1 do
      f i m.col_idx.(k) m.values.(k)
    done
  done

let memory_bytes m = (8 * nnz m) + (8 * nnz m) + (8 * (m.nrows + 1))
