(* Deterministic gradient-free minimizers over a box.

   Two classics that need nothing but function values — the right tools
   when every evaluation is a circuit simulation and the penalty surface
   has constraint kinks: Nelder-Mead (simplex reflection/expansion/
   contraction/shrink) and compass pattern search (axis polls with
   geometric step halving). Both are pure float arithmetic over a fixed
   visit order — no RNG, no wall clock — so the sequence of evaluated
   points, and therefore the optimize trace and the sweep-cache keys it
   produces, is byte-reproducible run over run.

   Outcomes are typed in the Supervisor style: [Converged] (the
   termination tolerance was genuinely met, or [stop_when] declared the
   goal attained), [Stalled] (the search collapsed without a finite or
   settled objective — e.g. every point infeasible), [Budget_exhausted]
   (the evaluation budget ran out first). Infinite objective values are
   legal and ordered normally; the trackers never let one overwrite a
   finite best. *)

type reason = Converged | Stalled | Budget_exhausted

let reason_to_string = function
  | Converged -> "converged"
  | Stalled -> "stalled"
  | Budget_exhausted -> "budget-exhausted"

type options = {
  max_evals : int;  (** hard evaluation budget *)
  tol_x : float;  (** relative (to box width) size tolerance *)
  tol_f : float;  (** relative objective-spread tolerance *)
  init_step : float;  (** initial simplex/pattern step, fraction of box *)
}

let default_options =
  { max_evals = 200; tol_x = 1e-3; tol_f = 1e-9; init_step = 0.25 }

type result = {
  best_x : float array;
  best_f : float;
  evaluations : int;
  iterations : int;
  reason : reason;
}

exception Budget
exception Attained
exception Settled of reason

type 'a tracker = {
  mutable count : int;
  mutable best_f : float;
  mutable best_x : float array;
  mutable iters : int;
}

let clip ~lo ~hi x =
  Array.mapi (fun i v -> Float.min hi.(i) (Float.max lo.(i) v)) x

let check_box ~lo ~hi x0 =
  let n = Array.length lo in
  if n = 0 || Array.length hi <> n || Array.length x0 <> n then
    invalid_arg "Optim: lo/hi/x0 must be same nonzero length";
  Array.iteri
    (fun i l -> if not (l < hi.(i)) then invalid_arg "Optim: requires lo < hi")
    lo

(* wrap the raw objective with budget accounting, best tracking and the
   goal-attained early stop; NaN (never a meaningful penalty) is mapped
   to +inf so comparisons stay total *)
let make_eval ~options ~stop_when ~f t x =
  if t.count >= options.max_evals then raise Budget;
  t.count <- t.count + 1;
  let v = f x in
  let v = if Float.is_nan v then infinity else v in
  if v < t.best_f then begin
    t.best_f <- v;
    t.best_x <- Array.copy x;
    if stop_when v then raise Attained
  end;
  v

let finish t reason =
  {
    best_x = t.best_x;
    best_f = t.best_f;
    evaluations = t.count;
    iterations = t.iters;
    reason;
  }

(* --------------------------------------------------------- Nelder-Mead -- *)

let nelder_mead ?(options = default_options) ?(stop_when = fun _ -> false)
    ~lo ~hi ~f x0 =
  check_box ~lo ~hi x0;
  let n = Array.length x0 in
  let t = { count = 0; best_f = infinity; best_x = Array.copy x0; iters = 0 } in
  let eval = make_eval ~options ~stop_when ~f t in
  let width i = hi.(i) -. lo.(i) in
  try
    (* a simplex around [x]: one axis step per dimension, stepping away
       from the nearer box wall so clipping cannot collapse it *)
    let vertex x i =
      let x = Array.copy x in
      let s = options.init_step *. width i in
      x.(i) <- (if x.(i) +. s <= hi.(i) then x.(i) +. s else x.(i) -. s);
      x
    in
    let x0 = clip ~lo ~hi x0 in
    let simplex =
      Array.init (n + 1) (fun k ->
          let x = if k = 0 then x0 else vertex x0 (k - 1) in
          (eval x, x))
    in
    let order () =
      (* stable: equal objectives keep their current order, so the walk
         is independent of unspecified sort behavior *)
      let l = List.stable_sort (fun (a, _) (b, _) -> compare a b) (Array.to_list simplex) in
      List.iteri (fun i v -> simplex.(i) <- v) l
    in
    let diameter () =
      let _, best = simplex.(0) in
      Array.fold_left
        (fun acc (_, x) ->
          let d = ref acc in
          for i = 0 to n - 1 do
            d := Float.max !d (Float.abs (x.(i) -. best.(i)) /. width i)
          done;
          !d)
        0.0 simplex
    in
    let rec iterate () =
      order ();
      let f_best, x_best = simplex.(0) and f_worst, _ = simplex.(n) in
      ignore x_best;
      (* two independent termination triggers (simplex collapsed in x,
         or the objective spread settled); which outcome they mean is
         decided by whether a finite best was ever seen — a search that
         collapsed on all-infinite (infeasible) points stalled, it did
         not converge *)
      if
        diameter () <= options.tol_x
        || Float.is_finite f_best
           && f_worst -. f_best <= options.tol_f *. (1.0 +. Float.abs f_best)
      then
        raise_notrace
          (Settled (if Float.is_finite t.best_f then Converged else Stalled));
      t.iters <- t.iters + 1;
      (* centroid of all but the worst *)
      let c = Array.make n 0.0 in
      for k = 0 to n - 1 do
        let _, x = simplex.(k) in
        for i = 0 to n - 1 do
          c.(i) <- c.(i) +. (x.(i) /. float_of_int n)
        done
      done;
      let _, xw = simplex.(n) in
      let combine a =
        clip ~lo ~hi (Array.init n (fun i -> c.(i) +. (a *. (c.(i) -. xw.(i)))))
      in
      let xr = combine 1.0 in
      let fr = eval xr in
      let f1, _ = simplex.(0) and fn, _ = simplex.(n - 1) in
      if fr < f1 then begin
        (* expand *)
        let xe = combine 2.0 in
        let fe = eval xe in
        simplex.(n) <- (if fe < fr then (fe, xe) else (fr, xr))
      end
      else if fr < fn then simplex.(n) <- (fr, xr)
      else begin
        (* contract (outside if the reflection helped, inside otherwise) *)
        let xc = combine (if fr < f_worst then 0.5 else -0.5) in
        let fc = eval xc in
        if fc < Float.min fr f_worst then simplex.(n) <- (fc, xc)
        else begin
          (* shrink toward the best vertex *)
          let _, x1 = simplex.(0) in
          for k = 1 to n do
            let _, xk = simplex.(k) in
            let xs =
              clip ~lo ~hi
                (Array.init n (fun i -> x1.(i) +. (0.5 *. (xk.(i) -. x1.(i)))))
            in
            simplex.(k) <- (eval xs, xs)
          done
        end
      end;
      iterate ()
    in
    (* clipped reflections can flatten the simplex against a box wall,
       where it settles short of the minimum; so before convergence is
       declared, the best vertex is polled one step (the simplex diameter,
       at least tol_x) either way along each axis, and the first
       improvement restarts a full-size simplex there *)
    let restarted () =
      let f_best, x_best = simplex.(0) in
      let h = Float.max (diameter ()) options.tol_x in
      let rec poll i dir =
        if i = n then false
        else begin
          let next () = if dir > 0.0 then poll i (-1.0) else poll (i + 1) 1.0 in
          let x = Array.copy x_best in
          x.(i) <- x.(i) +. (dir *. h *. width i);
          let x = clip ~lo ~hi x in
          if x.(i) = x_best.(i) then next ()
          else
            let fx = eval x in
            if fx >= f_best then next ()
            else begin
              simplex.(0) <- (fx, x);
              for k = 1 to n do
                let v = vertex x (k - 1) in
                simplex.(k) <- (eval v, v)
              done;
              true
            end
        end
      in
      poll 0 1.0
    in
    let rec run () = try iterate () with Settled Converged when restarted () -> run () in
    run ()
  with
  | Settled reason -> finish t reason
  | Budget -> finish t Budget_exhausted
  | Attained -> finish t Converged

(* ------------------------------------------------------ pattern search -- *)

let pattern_search ?(options = default_options) ?(stop_when = fun _ -> false)
    ~lo ~hi ~f x0 =
  check_box ~lo ~hi x0;
  let n = Array.length x0 in
  let t = { count = 0; best_f = infinity; best_x = Array.copy x0; iters = 0 } in
  let eval = make_eval ~options ~stop_when ~f t in
  let width i = hi.(i) -. lo.(i) in
  try
    let x = clip ~lo ~hi x0 in
    let fx = ref (eval x) in
    let x = ref x in
    let step = Array.init n (fun i -> options.init_step *. width i) in
    let max_rel_step () =
      let m = ref 0.0 in
      for i = 0 to n - 1 do
        m := Float.max !m (step.(i) /. width i)
      done;
      !m
    in
    while max_rel_step () > options.tol_x do
      t.iters <- t.iters + 1;
      (* one poll: axes in order, +step then -step, first improvement
         moves the pattern center; a full poll without improvement
         halves every step *)
      let improved = ref false in
      let axis = ref 0 in
      while (not !improved) && !axis < n do
        let dir = ref 1.0 in
        let tries = ref 0 in
        while (not !improved) && !tries < 2 do
          let cand = Array.copy !x in
          cand.(!axis) <- cand.(!axis) +. (!dir *. step.(!axis));
          let cand = clip ~lo ~hi cand in
          if cand.(!axis) <> !x.(!axis) then begin
            let fc = eval cand in
            if fc < !fx then begin
              fx := fc;
              x := cand;
              improved := true
            end
          end;
          dir := -. !dir;
          incr tries
        done;
        incr axis
      done;
      if not !improved then
        for i = 0 to n - 1 do
          step.(i) <- step.(i) /. 2.0
        done
    done;
    finish t (if Float.is_finite t.best_f then Converged else Stalled)
  with
  | Budget -> finish t Budget_exhausted
  | Attained -> finish t Converged
