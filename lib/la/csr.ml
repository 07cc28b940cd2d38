type 'v t = {
  nrows : int;
  ncols : int;
  row_ptr : int array;
  col_idx : int array;
  values : 'v array;
}

let of_csr who ~rows ~cols ~row_ptr ~col_idx ~values =
  if Array.length row_ptr <> rows + 1 then invalid_arg (who ^ ": row_ptr length");
  if Array.length col_idx <> Array.length values then
    invalid_arg (who ^ ": col_idx/values length mismatch");
  if row_ptr.(rows) <> Array.length values then invalid_arg (who ^ ": row_ptr total");
  { nrows = rows; ncols = cols; row_ptr; col_idx; values }

let sort_triplets who ~rows ~cols (arr : (int * int * _) array) =
  Array.iter
    (fun (i, j, _) ->
      if i < 0 || i >= rows || j < 0 || j >= cols then
        invalid_arg (who ^ ": index out of range"))
    arr;
  Array.sort
    (fun (i1, j1, _) (i2, j2, _) -> if i1 <> i2 then compare i1 i2 else compare j1 j2)
    arr;
  let m = Array.length arr in
  let slot = Array.make m 0 in
  let row_ptr = Array.make (rows + 1) 0 in
  (* a triplet opens a new slot unless it repeats its predecessor's
     coordinate *)
  let pos = ref (-1) in
  for k = 0 to m - 1 do
    let i, j, _ = arr.(k) in
    let fresh =
      k = 0
      ||
      let i', j', _ = arr.(k - 1) in
      i <> i' || j <> j'
    in
    if fresh then begin
      incr pos;
      row_ptr.(i + 1) <- row_ptr.(i + 1) + 1
    end;
    slot.(k) <- !pos
  done;
  let col_idx = Array.make (!pos + 1) 0 in
  Array.iteri (fun k (_, j, _) -> col_idx.(slot.(k)) <- j) arr;
  for i = 0 to rows - 1 do
    row_ptr.(i + 1) <- row_ptr.(i + 1) + row_ptr.(i)
  done;
  (row_ptr, col_idx, slot)

let merge who a b =
  if a.nrows <> b.nrows || a.ncols <> b.ncols then invalid_arg (who ^ ": dims");
  let row_ptr = Array.make (a.nrows + 1) 0 in
  let slot_a = Array.make (Array.length a.col_idx) 0
  and slot_b = Array.make (Array.length b.col_idx) 0 in
  let pos = ref 0 in
  for i = 0 to a.nrows - 1 do
    let ka = ref a.row_ptr.(i) and kb = ref b.row_ptr.(i) in
    let ea = a.row_ptr.(i + 1) and eb = b.row_ptr.(i + 1) in
    while !ka < ea || !kb < eb do
      (if !ka < ea && (!kb >= eb || a.col_idx.(!ka) < b.col_idx.(!kb)) then begin
         slot_a.(!ka) <- !pos;
         incr ka
       end
       else if !kb < eb && (!ka >= ea || b.col_idx.(!kb) < a.col_idx.(!ka)) then begin
         slot_b.(!kb) <- !pos;
         incr kb
       end
       else begin
         slot_a.(!ka) <- !pos;
         slot_b.(!kb) <- !pos;
         incr ka;
         incr kb
       end);
      incr pos
    done;
    row_ptr.(i + 1) <- !pos
  done;
  let col_idx = Array.make !pos 0 in
  Array.iteri (fun k p -> col_idx.(p) <- a.col_idx.(k)) slot_a;
  Array.iteri (fun k p -> col_idx.(p) <- b.col_idx.(k)) slot_b;
  (row_ptr, col_idx, slot_a, slot_b)

let pattern_of_pairs who ~rows ~cols (pi : int array) (pj : int array) len =
  for k = 0 to len - 1 do
    if pi.(k) < 0 || pi.(k) >= rows || pj.(k) < 0 || pj.(k) >= cols then
      invalid_arg (who ^ ": index out of range")
  done;
  (* counting sort by column: col_end.(j) ends up one past column j's
     bucket of row indices in [by_col] *)
  let col_end = Array.make (cols + 1) 0 in
  for k = 0 to len - 1 do
    col_end.(pj.(k) + 1) <- col_end.(pj.(k) + 1) + 1
  done;
  for j = 0 to cols - 1 do
    col_end.(j + 1) <- col_end.(j + 1) + col_end.(j)
  done;
  let by_col = Array.make len 0 in
  for k = 0 to len - 1 do
    let j = pj.(k) in
    by_col.(col_end.(j)) <- pi.(k);
    col_end.(j) <- col_end.(j) + 1
  done;
  (* distributing the buckets to rows in ascending column order leaves
     every row sorted, so a repeat is a row seeing its last column again;
     [f i j] runs once per distinct (i, j), the second pass fills *)
  let last = Array.make rows (-1) in
  let each_distinct f =
    Array.fill last 0 rows (-1);
    for j = 0 to cols - 1 do
      for k = (if j = 0 then 0 else col_end.(j - 1)) to col_end.(j) - 1 do
        let i = by_col.(k) in
        if last.(i) <> j then begin
          last.(i) <- j;
          f i j
        end
      done
    done
  in
  let row_ptr = Array.make (rows + 1) 0 in
  each_distinct (fun i _ -> row_ptr.(i + 1) <- row_ptr.(i + 1) + 1);
  for i = 0 to rows - 1 do
    row_ptr.(i + 1) <- row_ptr.(i + 1) + row_ptr.(i)
  done;
  let col_idx = Array.make row_ptr.(rows) 0 in
  let next = Array.sub row_ptr 0 rows in
  each_distinct (fun i j ->
      col_idx.(next.(i)) <- j;
      next.(i) <- next.(i) + 1);
  (row_ptr, col_idx)
