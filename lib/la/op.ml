type t = Dense of Mat.t | Sparse of Sparse.t

let dense m = Dense m
let sparse s = Sparse s
let to_dense = function Dense m -> Mat.copy m | Sparse s -> Sparse.to_dense s

let scale a = function
  | Dense m -> Dense (Mat.scale a m)
  | Sparse s -> Sparse (Sparse.scale a s)

let add a b =
  match (a, b) with
  | Sparse sa, Sparse sb -> Sparse (Sparse.add sa sb)
  | _ -> Dense (Mat.add (to_dense a) (to_dense b))

let matvec op x =
  match op with Dense m -> Mat.matvec m x | Sparse s -> Sparse.matvec s x

let matvec_t op x =
  match op with Dense m -> Mat.matvec_t m x | Sparse s -> Sparse.matvec_t s x

type factor = { solve : Vec.t -> Vec.t; solve_t : Vec.t -> Vec.t }

let factorize = function
  | Sparse s ->
      let f = Sparse_lu.factor s in
      { solve = Sparse_lu.solve f; solve_t = Sparse_lu.solve_transposed f }
  | Dense m ->
      let f = Lu.factor m in
      { solve = Lu.solve f; solve_t = Lu.solve_transposed f }
