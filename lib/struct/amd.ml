open Rfkit_la

(* Minimum-degree fill-reducing ordering on the symmetrized pattern
   A + A^T (diagonal ignored), with approximate degree bookkeeping in the
   spirit of AMD: degrees are recomputed only for the neighbours of the
   vertex just eliminated, everything else keeps its last known value.

   The elimination graph is kept explicitly, one growable neighbour array
   per vertex holding only uneliminated vertices, which sidesteps the
   supervariable/element machinery of production AMD (Amestoy, Davis &
   Duff, SIMAX 1996). The pivot comes from a binary min-heap of
   (degree, vertex) keys with lazy deletion: a degree change pushes a
   fresh key, and a popped key whose vertex is eliminated or whose degree
   has moved on is skipped. A step costs O(log n) plus the clique update
   around the pivot, so a sparse pattern orders in O(nnz log n). *)

(* growable binary min-heap of ints on one flat array *)
type heap = { mutable keys : int array; mutable size : int }

let heap_push h key =
  if h.size = Array.length h.keys then begin
    let grown = Array.make (2 * h.size) 0 in
    Array.blit h.keys 0 grown 0 h.size;
    h.keys <- grown
  end;
  let a = h.keys in
  let k = ref h.size in
  h.size <- h.size + 1;
  while !k > 0 && a.((!k - 1) / 2) > key do
    a.(!k) <- a.((!k - 1) / 2);
    k := (!k - 1) / 2
  done;
  a.(!k) <- key

let heap_pop h =
  let a = h.keys in
  let top = a.(0) in
  h.size <- h.size - 1;
  let key = a.(h.size) in
  let k = ref 0 and settled = ref false in
  while not !settled do
    let l = (2 * !k) + 1 in
    if l >= h.size then settled := true
    else begin
      let c = if l + 1 < h.size && a.(l + 1) < a.(l) then l + 1 else l in
      if a.(c) < key then begin
        a.(!k) <- a.(c);
        k := c
      end
      else settled := true
    end
  done;
  a.(!k) <- key;
  top

let order_graph n adj =
  (* adj.(v): the live neighbours of v in adj.(v).(0 .. degree.(v) - 1);
     the arrays are reused and regrown in place *)
  let degree = Array.map Array.length adj in
  let eliminated = Array.make n false in
  (* key = degree * n + v orders by degree, then toward the lowest index,
     so the order is deterministic *)
  let heap = { keys = Array.make (max 1 n) 0; size = 0 } in
  for v = 0 to n - 1 do
    heap_push heap ((degree.(v) * n) + v)
  done;
  let rec pivot () =
    let key = heap_pop heap in
    let v = key mod n in
    if eliminated.(v) || key / n <> degree.(v) then pivot () else v
  in
  (* mark.(w) = tag: w is already a neighbour of the vertex being updated *)
  let mark = Array.make n (-1) in
  let tag = ref 0 in
  let perm = Array.make n 0 in
  for step = 0 to n - 1 do
    let v = pivot () in
    eliminated.(v) <- true;
    perm.(step) <- v;
    (* eliminating v turns its neighbourhood into a clique *)
    let clique = Array.sub adj.(v) 0 degree.(v) in
    Array.iter
      (fun u ->
        incr tag;
        (* drop v from u's neighbours and mark the rest *)
        let nb = adj.(u) in
        let d = ref 0 in
        for k = 0 to degree.(u) - 1 do
          let w = nb.(k) in
          if w <> v then begin
            nb.(!d) <- w;
            mark.(w) <- !tag;
            incr d
          end
        done;
        let nb = ref nb in
        Array.iter
          (fun w ->
            if w <> u && mark.(w) <> !tag then begin
              if !d = Array.length !nb then begin
                let grown = Array.make (max 4 (2 * !d)) 0 in
                Array.blit !nb 0 grown 0 !d;
                nb := grown
              end;
              !nb.(!d) <- w;
              incr d
            end)
          clique;
        adj.(u) <- !nb;
        degree.(u) <- !d)
      clique;
    Array.iter (fun u -> heap_push heap ((degree.(u) * n) + u)) clique
  done;
  perm

let adjacency_of_pattern a =
  let n = Sparse.rows a in
  let m = Sparse.nnz a in
  let pi = Array.make (2 * m) 0 and pj = Array.make (2 * m) 0 in
  let len = ref 0 in
  Sparse.iter
    (fun i j _ ->
      if i <> j && i < n && j < n then begin
        pi.(!len) <- i;
        pj.(!len) <- j;
        pi.(!len + 1) <- j;
        pj.(!len + 1) <- i;
        len := !len + 2
      end)
    a;
  let row_ptr, col_idx = Csr.pattern_of_pairs "Amd" ~rows:n ~cols:n pi pj !len in
  Array.init n (fun v -> Array.sub col_idx row_ptr.(v) (row_ptr.(v + 1) - row_ptr.(v)))

let order a =
  if Sparse.rows a <> Sparse.cols a then
    invalid_arg "Amd.order: pattern not square";
  order_graph (Sparse.rows a) (adjacency_of_pattern a)
