open Rfkit_la

(* Maximum bipartite matching between the rows and columns of a sparsity
   pattern, and the coarse Dulmage-Mendelsohn decomposition built on top
   of it.

   The matching runs in two passes, as in Duff's MC21 (ACM TOMS 1981): a
   greedy pass gives each row, in order, its lowest-numbered free column,
   then Kuhn's augmenting-path DFS runs only from the rows the greedy pass
   left unmatched. On circuit patterns the greedy pass already matches
   nearly every row, so the DFS, O(rank * nnz) in the worst case, touches
   only a handful of short paths and the matching is linear in practice.

   Only the pattern matters: a stored entry is an edge row i -- col j
   whatever its value. |matching| is the structural rank -- the largest
   numeric rank any matrix with this pattern can attain. A deficiency
   therefore proves det == 0 for EVERY value assignment, which is exactly
   the class of failures worth rejecting before any arithmetic runs.

   The alternating-reach sets are canonical (independent of which maximum
   matching Kuhn happens to find), so diagnostics built on them are
   deterministic: [over_rows] is the set of rows reachable from some
   unmatched row by alternating paths (row -> any column -> its matched
   row), [under_cols] the mirror image from unmatched columns. Unmatched
   rows always lie in [over_rows] and unmatched columns in [under_cols]. *)

type matching = {
  row_match : int array;  (* row -> matched column, -1 if unmatched *)
  col_match : int array;  (* column -> matched row, -1 if unmatched *)
  size : int;  (* |matching| = structural rank *)
}

type coarse = {
  m : matching;
  rank : int;
  over_rows : int list;  (* ascending; rows of the overdetermined block *)
  under_cols : int list;  (* ascending; columns of the underdetermined block *)
}

let max_matching a =
  let nr = Sparse.rows a and nc = Sparse.cols a in
  let row_ptr, col_idx, _ = Sparse.csr a in
  let row_match = Array.make nr (-1) in
  let col_match = Array.make nc (-1) in
  let stamp = Array.make nc (-1) in
  (* epoch-stamped "visited" avoids an O(nc) clear per augmentation *)
  let size = ref 0 in
  let rec augment epoch i =
    let found = ref false in
    let k = ref row_ptr.(i) in
    while (not !found) && !k < row_ptr.(i + 1) do
      let j = col_idx.(!k) in
      incr k;
      if stamp.(j) <> epoch then begin
        stamp.(j) <- epoch;
        if col_match.(j) < 0 || augment epoch col_match.(j) then begin
          row_match.(i) <- j;
          col_match.(j) <- i;
          found := true
        end
      end
    done;
    !found
  in
  for i = 0 to nr - 1 do
    let k = ref row_ptr.(i) in
    while row_match.(i) < 0 && !k < row_ptr.(i + 1) do
      let j = col_idx.(!k) in
      if col_match.(j) < 0 then begin
        row_match.(i) <- j;
        col_match.(j) <- i;
        incr size
      end;
      incr k
    done
  done;
  for i = 0 to nr - 1 do
    if row_match.(i) < 0 && augment i i then incr size
  done;
  { row_match; col_match; size = !size }

let structural_rank a = (max_matching a).size

let decompose a =
  let nr = Sparse.rows a and nc = Sparse.cols a in
  let row_ptr, col_idx, _ = Sparse.csr a in
  let m = max_matching a in
  (* alternating BFS from unmatched rows: row -> every column it touches
     -> that column's matched row *)
  let row_seen = Array.make nr false in
  let col_seen = Array.make nc false in
  let queue = Queue.create () in
  for i = 0 to nr - 1 do
    if m.row_match.(i) < 0 then begin
      row_seen.(i) <- true;
      Queue.add i queue
    end
  done;
  while not (Queue.is_empty queue) do
    let i = Queue.pop queue in
    for k = row_ptr.(i) to row_ptr.(i + 1) - 1 do
      let j = col_idx.(k) in
      if not col_seen.(j) then begin
        col_seen.(j) <- true;
        let i' = m.col_match.(j) in
        if i' >= 0 && not row_seen.(i') then begin
          row_seen.(i') <- true;
          Queue.add i' queue
        end
      end
    done
  done;
  let over_rows =
    List.filter (fun i -> row_seen.(i)) (List.init nr Fun.id)
  in
  (* mirror image over the transposed pattern, from unmatched columns *)
  let cols_of_row = Array.make nc [] in
  for i = nr - 1 downto 0 do
    for k = row_ptr.(i) to row_ptr.(i + 1) - 1 do
      cols_of_row.(col_idx.(k)) <- i :: cols_of_row.(col_idx.(k))
    done
  done;
  let rows_of_col = cols_of_row in
  (* rows_of_col.(j) = rows with an entry in column j, ascending *)
  let col_seen2 = Array.make nc false in
  let row_seen2 = Array.make nr false in
  for j = 0 to nc - 1 do
    if m.col_match.(j) < 0 then begin
      col_seen2.(j) <- true;
      Queue.add j queue
    end
  done;
  while not (Queue.is_empty queue) do
    let j = Queue.pop queue in
    List.iter
      (fun i ->
        if not row_seen2.(i) then begin
          row_seen2.(i) <- true;
          let j' = m.row_match.(i) in
          if j' >= 0 && not col_seen2.(j') then begin
            col_seen2.(j') <- true;
            Queue.add j' queue
          end
        end)
      rows_of_col.(j)
  done;
  let under_cols =
    List.filter (fun j -> col_seen2.(j)) (List.init nc Fun.id)
  in
  { m; rank = m.size; over_rows; under_cols }
