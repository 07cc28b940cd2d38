type stats = { iterations : int; residual : float; converged : bool }

exception Non_finite of int

let id_precond v = v

(* NaN/Inf guard on a candidate basis vector: one poisoned entry turns
   every later Givens rotation and axpy into NaN soup, so fail fast with
   the offending unknown index. [norm] is a cheap pre-check — only when
   it is non-finite do we pay for the scan. *)
let guard norm (w : Vec.t) =
  if not (Float.is_finite norm) then begin
    let n = Array.length w in
    let idx = ref 0 in
    (try
       for i = 0 to n - 1 do
         if not (Float.is_finite w.(i)) then begin
           idx := i;
           raise Exit
         end
       done
     with Exit -> ());
    raise (Non_finite !idx)
  end

(* One GMRES(m) cycle from initial guess x0. Returns (x, residual_norm,
   iterations_done, converged). Arnoldi with modified Gram-Schmidt and
   Givens rotations applied to the Hessenberg matrix on the fly. *)
let gmres_cycle ~m ~tol ~bnorm precond a b x0 =
  let n = Array.length b in
  let ax0 = a x0 in
  let r0 = precond (Vec.sub b ax0) in
  let beta = Vec.norm2 r0 in
  guard beta r0;
  if beta <= tol *. bnorm then (x0, beta, 0, true)
  else begin
    let v = Array.make (m + 1) [||] in
    v.(0) <- Vec.scale (1.0 /. beta) r0;
    let h = Mat.make (m + 1) m in
    let cs = Array.make m 0.0 and sn = Array.make m 0.0 in
    let g = Array.make (m + 1) 0.0 in
    g.(0) <- beta;
    let k_done = ref 0 in
    let converged = ref false in
    (try
       for k = 0 to m - 1 do
         let w = precond (a v.(k)) in
         (* modified Gram-Schmidt *)
         for i = 0 to k do
           let hik = Vec.dot v.(i) w in
           Mat.set h i k hik;
           Vec.axpy (-.hik) v.(i) w
         done;
         let hk1 = Vec.norm2 w in
         guard hk1 w;
         Mat.set h (k + 1) k hk1;
         if hk1 > 1e-300 then v.(k + 1) <- Vec.scale (1.0 /. hk1) w
         else v.(k + 1) <- Vec.create n;
         (* apply previous Givens rotations to the new column *)
         for i = 0 to k - 1 do
           let t = (cs.(i) *. Mat.get h i k) +. (sn.(i) *. Mat.get h (i + 1) k) in
           Mat.set h (i + 1) k
             ((-.sn.(i) *. Mat.get h i k) +. (cs.(i) *. Mat.get h (i + 1) k));
           Mat.set h i k t
         done;
         (* new rotation to annihilate h(k+1,k) *)
         let hkk = Mat.get h k k and hk1k = Mat.get h (k + 1) k in
         let d = Float.sqrt ((hkk *. hkk) +. (hk1k *. hk1k)) in
         if d = 0.0 then begin
           cs.(k) <- 1.0;
           sn.(k) <- 0.0
         end
         else begin
           cs.(k) <- hkk /. d;
           sn.(k) <- hk1k /. d
         end;
         Mat.set h k k d;
         Mat.set h (k + 1) k 0.0;
         g.(k + 1) <- -.sn.(k) *. g.(k);
         g.(k) <- cs.(k) *. g.(k);
         k_done := k + 1;
         if Float.abs g.(k + 1) <= tol *. bnorm then begin
           converged := true;
           raise Exit
         end
       done
     with Exit -> ());
    let k = !k_done in
    (* back-substitute for the Krylov coefficients *)
    let y = Array.make k 0.0 in
    for i = k - 1 downto 0 do
      let s = ref g.(i) in
      for j = i + 1 to k - 1 do
        s := !s -. (Mat.get h i j *. y.(j))
      done;
      y.(i) <- !s /. Mat.get h i i
    done;
    let x = Vec.copy x0 in
    for i = 0 to k - 1 do
      Vec.axpy y.(i) v.(i) x
    done;
    (x, Float.abs g.(k), k, !converged)
  end

let gmres ?(m = 30) ?(tol = 1e-10) ?(max_iter = 2000) ?(precond = id_precond) a b =
  let bnorm =
    let nb = Vec.norm2 (precond b) in
    if nb = 0.0 then 1.0 else nb
  in
  let x = ref (Vec.create (Array.length b)) in
  let total = ref 0 in
  let res = ref infinity in
  let converged = ref false in
  while (not !converged) && !total < max_iter do
    let m_eff = min m (max_iter - !total) in
    let x', r, k, ok = gmres_cycle ~m:m_eff ~tol ~bnorm precond a b !x in
    x := x';
    res := r;
    total := !total + max 1 k;
    converged := ok
  done;
  (!x, { iterations = !total; residual = !res; converged = !converged })

let cg ?(tol = 1e-10) ?(max_iter = 2000) ?(precond = id_precond) a b =
  let x = Vec.create (Array.length b) in
  let r = Vec.copy b in
  let z = precond r in
  let p = Vec.copy z in
  let rz = ref (Vec.dot r z) in
  let bnorm =
    let nb = Vec.norm2 b in
    if nb = 0.0 then 1.0 else nb
  in
  let iter = ref 0 in
  let converged = ref (Vec.norm2 r <= tol *. bnorm) in
  while (not !converged) && !iter < max_iter do
    incr iter;
    let ap = a p in
    let alpha = !rz /. Vec.dot p ap in
    Vec.axpy alpha p x;
    Vec.axpy (-.alpha) ap r;
    if Vec.norm2 r <= tol *. bnorm then converged := true
    else begin
      let z = precond r in
      let rz' = Vec.dot r z in
      let beta = rz' /. !rz in
      rz := rz';
      for i = 0 to Array.length p - 1 do
        p.(i) <- z.(i) +. (beta *. p.(i))
      done
    end
  done;
  (x, { iterations = !iter; residual = Vec.norm2 r; converged = !converged })

let bicgstab ?(tol = 1e-10) ?(max_iter = 2000) ?(precond = id_precond) a b =
  let n = Array.length b in
  let x = Vec.create n in
  let r = Vec.copy b in
  let r_hat = Vec.copy b in
  let bnorm =
    let nb = Vec.norm2 b in
    if nb = 0.0 then 1.0 else nb
  in
  let rho = ref 1.0 and alpha = ref 1.0 and omega = ref 1.0 in
  let v = Vec.create n and p = Vec.create n in
  let iter = ref 0 in
  let converged = ref (Vec.norm2 r <= tol *. bnorm) in
  let broke = ref false in
  while (not !converged) && (not !broke) && !iter < max_iter do
    incr iter;
    let rho' = Vec.dot r_hat r in
    if Float.abs rho' < 1e-300 then broke := true
    else begin
      let beta = rho' /. !rho *. (!alpha /. !omega) in
      rho := rho';
      for i = 0 to n - 1 do
        p.(i) <- r.(i) +. (beta *. (p.(i) -. (!omega *. v.(i))))
      done;
      let ph = precond p in
      let v' = a ph in
      Array.blit v' 0 v 0 n;
      alpha := !rho /. Vec.dot r_hat v;
      let s = Vec.copy r in
      Vec.axpy (-. !alpha) v s;
      if Vec.norm2 s <= tol *. bnorm then begin
        Vec.axpy !alpha ph x;
        Array.blit s 0 r 0 n;
        converged := true
      end
      else begin
        let sh = precond s in
        let t = a sh in
        let tt = Vec.dot t t in
        if tt < 1e-300 then broke := true
        else begin
          omega := Vec.dot t s /. tt;
          Vec.axpy !alpha ph x;
          Vec.axpy !omega sh x;
          for i = 0 to n - 1 do
            r.(i) <- s.(i) -. (!omega *. t.(i))
          done;
          if Vec.norm2 r <= tol *. bnorm then converged := true
        end
      end
    end
  done;
  (x, { iterations = !iter; residual = Vec.norm2 r; converged = !converged })
