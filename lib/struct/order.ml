open Rfkit_la

(* Fill-reducing symmetric orderings for the MNA Jacobian pattern.

   [Btf_amd] first permutes to block-triangular form: a maximum matching
   pairs each equation with an unknown, Tarjan SCCs of the matched column
   digraph (j -> k when the row matched to j has an entry in column k)
   give the diagonal blocks, and AMD runs independently inside each
   block. Fill is then confined to the diagonal blocks plus the
   off-diagonal triangle that existed already. When the pattern has no
   perfect matching (structurally singular — the lint layer reports it
   separately) BTF is undefined and the mode degrades to plain AMD.

   All orderings are applied symmetrically (A' = A[p, p]); Sparse_lu's
   partial pivoting supplies the row exchanges that keep the
   factorization numerically sound, so an ordering can only change fill,
   never correctness. *)

type mode = Natural | Amd_only | Btf_amd

let mode_to_string = function
  | Natural -> "natural"
  | Amd_only -> "amd"
  | Btf_amd -> "btf-amd"

let mode_of_string = function
  | "natural" -> Some Natural
  | "amd" -> Some Amd_only
  | "btf-amd" -> Some Btf_amd
  | _ -> None

type info = {
  perm : int array option;  (* None: keep the natural order *)
  blocks : int list;  (* BTF diagonal block sizes, [] unless Btf_amd ran *)
}

let is_identity p =
  let n = Array.length p in
  let rec go k = k >= n || (p.(k) = k && go (k + 1)) in
  go 0

let btf_blocks a =
  let n = Sparse.rows a in
  let m = Dm.max_matching a in
  if m.Dm.size < n then None
  else begin
    let row_ptr, col_idx, _ = Sparse.csr a in
    (* successor array of column j: the columns of the row matched to j *)
    let succ j =
      let i = m.Dm.col_match.(j) in
      let lo = row_ptr.(i) and hi = row_ptr.(i + 1) in
      let out = Array.make (hi - lo) 0 in
      let len = ref 0 in
      for k = lo to hi - 1 do
        if col_idx.(k) <> j then begin
          out.(!len) <- col_idx.(k);
          incr len
        end
      done;
      Array.sub out 0 !len
    in
    (* Scc asks for a vertex's successors each time it resumes it *)
    let succs = Array.init n succ in
    Some (Scc.components ~n ~succ:(Array.get succs))
  end

let amd_within_blocks a blocks =
  let n = Sparse.rows a in
  let adj = Amd.adjacency_of_pattern a in
  (* restrict the symmetrized adjacency to each block and order it there;
     cross-block edges do not create diagonal-block fill, so they are
     simply dropped from the local elimination graph *)
  let perm = Array.make n 0 in
  let local = Array.make n (-1) in
  let pos = ref 0 in
  List.iter
    (fun members ->
      (* ascending members make AMD's lowest-index tie-break agree with
         plain AMD on a single-block pattern (Tarjan's emission order
         within a component is otherwise arbitrary) *)
      let members = Array.of_list (List.sort compare members) in
      let bn = Array.length members in
      Array.iteri (fun li v -> local.(v) <- li) members;
      let sub =
        Array.map
          (fun v ->
            Array.of_list
              (Array.fold_right
                 (fun u acc -> if local.(u) >= 0 then local.(u) :: acc else acc)
                 adj.(v) []))
          members
      in
      let local_perm = Amd.order_graph bn sub in
      Array.iter
        (fun li ->
          perm.(!pos) <- members.(li);
          incr pos)
        local_perm;
      (* reset the scatter map for the next block *)
      Array.iter (fun v -> local.(v) <- -1) members)
    blocks;
  assert (!pos = n);
  perm

let compute_info mode a =
  let n = Sparse.rows a in
  if n <> Sparse.cols a then invalid_arg "Order.compute: pattern not square";
  match mode with
  | Natural -> { perm = None; blocks = [] }
  | Amd_only ->
      let p = Amd.order a in
      { perm = (if is_identity p then None else Some p); blocks = [] }
  | Btf_amd -> (
      match btf_blocks a with
      | None ->
          let p = Amd.order a in
          { perm = (if is_identity p then None else Some p); blocks = [] }
      | Some blocks ->
          let p = amd_within_blocks a blocks in
          {
            perm = (if is_identity p then None else Some p);
            blocks = List.map List.length blocks;
          })

let compute mode a = (compute_info mode a).perm
