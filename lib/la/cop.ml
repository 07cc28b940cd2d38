type t = Dense of Cmat.t | Sparse of Csparse.t

let dense m = Dense m
let of_real s = Sparse (Csparse.of_real s)
let to_sparse_opt = function Sparse s -> Some s | Dense _ -> None
let to_dense = function Dense m -> Cmat.copy m | Sparse s -> Csparse.to_dense s

let scale a = function
  | Dense m -> Dense (Cmat.scale a m)
  | Sparse s -> Sparse (Csparse.scale a s)

let add a b =
  match (a, b) with
  | Sparse sa, Sparse sb -> Sparse (Csparse.add sa sb)
  | _ -> Dense (Cmat.add (to_dense a) (to_dense b))

let matvec op x =
  match op with Dense m -> Cmat.matvec m x | Sparse s -> Csparse.matvec s x

let factorize = function
  | Sparse s -> Csparse_lu.solve (Csparse_lu.factor s)
  | Dense m -> Clu.solve (Clu.factor m)
