type t = {
  nrows : int;
  ncols : int;
  row_ptr : int array; (* length nrows+1 *)
  col_idx : int array;
  values : float array;
}

let of_triplets ~rows ~cols triplets =
  let arr = Array.of_list triplets in
  Array.iter
    (fun (i, j, _) ->
      if i < 0 || i >= rows || j < 0 || j >= cols then
        invalid_arg "Sparse.of_triplets: index out of range")
    arr;
  Array.sort
    (fun (i1, j1, _) (i2, j2, _) -> if i1 <> i2 then compare i1 i2 else compare j1 j2)
    arr;
  let m = Array.length arr in
  (* pass 1: count distinct (i,j) runs *)
  let distinct = ref 0 in
  for k = 0 to m - 1 do
    let i, j, _ = arr.(k) in
    if k = 0 then incr distinct
    else
      let i', j', _ = arr.(k - 1) in
      if i <> i' || j <> j' then incr distinct
  done;
  let n = !distinct in
  let row_ptr = Array.make (rows + 1) 0 in
  let col_idx = Array.make n 0 in
  let values = Array.make n 0.0 in
  (* pass 2: fill, summing duplicates in place *)
  let pos = ref (-1) in
  for k = 0 to m - 1 do
    let i, j, v = arr.(k) in
    let fresh =
      k = 0
      ||
      let i', j', _ = arr.(k - 1) in
      i <> i' || j <> j'
    in
    if fresh then begin
      incr pos;
      col_idx.(!pos) <- j;
      values.(!pos) <- v;
      row_ptr.(i + 1) <- row_ptr.(i + 1) + 1
    end
    else values.(!pos) <- values.(!pos) +. v
  done;
  for i = 0 to rows - 1 do
    row_ptr.(i + 1) <- row_ptr.(i + 1) + row_ptr.(i)
  done;
  { nrows = rows; ncols = cols; row_ptr; col_idx; values }

let of_csr ~rows ~cols ~row_ptr ~col_idx ~values =
  if Array.length row_ptr <> rows + 1 then invalid_arg "Sparse.of_csr: row_ptr length";
  if Array.length col_idx <> Array.length values then
    invalid_arg "Sparse.of_csr: col_idx/values length mismatch";
  if row_ptr.(rows) <> Array.length values then invalid_arg "Sparse.of_csr: row_ptr total";
  { nrows = rows; ncols = cols; row_ptr; col_idx; values }

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

let diagonal m =
  Array.init (min m.nrows m.ncols) (fun i ->
      let d = ref 0.0 in
      for k = m.row_ptr.(i) to m.row_ptr.(i + 1) - 1 do
        if m.col_idx.(k) = i then d := m.values.(k)
      done;
      !d)

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
  if a.nrows <> b.nrows || a.ncols <> b.ncols then invalid_arg "Sparse.add: dims";
  let rows = a.nrows in
  let row_ptr = Array.make (rows + 1) 0 in
  (* pass 1: count merged entries per row (both inputs have sorted columns) *)
  for i = 0 to rows - 1 do
    let ka = ref a.row_ptr.(i) and kb = ref b.row_ptr.(i) in
    let ea = a.row_ptr.(i + 1) and eb = b.row_ptr.(i + 1) in
    let c = ref 0 in
    while !ka < ea || !kb < eb do
      if !ka < ea && (!kb >= eb || a.col_idx.(!ka) <= b.col_idx.(!kb)) then begin
        if !kb < eb && a.col_idx.(!ka) = b.col_idx.(!kb) then incr kb;
        incr ka
      end
      else incr kb;
      incr c
    done;
    row_ptr.(i + 1) <- !c
  done;
  for i = 0 to rows - 1 do
    row_ptr.(i + 1) <- row_ptr.(i + 1) + row_ptr.(i)
  done;
  let n = row_ptr.(rows) in
  let col_idx = Array.make n 0 in
  let values = Array.make n 0.0 in
  let pos = ref 0 in
  for i = 0 to rows - 1 do
    let ka = ref a.row_ptr.(i) and kb = ref b.row_ptr.(i) in
    let ea = a.row_ptr.(i + 1) and eb = b.row_ptr.(i + 1) in
    while !ka < ea || !kb < eb do
      (if !ka < ea && (!kb >= eb || a.col_idx.(!ka) < b.col_idx.(!kb)) then begin
         col_idx.(!pos) <- a.col_idx.(!ka);
         values.(!pos) <- a.values.(!ka);
         incr ka
       end
       else if !kb < eb && (!ka >= ea || b.col_idx.(!kb) < a.col_idx.(!ka)) then begin
         col_idx.(!pos) <- b.col_idx.(!kb);
         values.(!pos) <- b.values.(!kb);
         incr kb
       end
       else begin
         col_idx.(!pos) <- a.col_idx.(!ka);
         values.(!pos) <- a.values.(!ka) +. b.values.(!kb);
         incr ka;
         incr kb
       end);
      incr pos
    done
  done;
  { nrows = rows; ncols = a.ncols; row_ptr; col_idx; values }

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
