(* The declarative spec language: what "the design meets spec" means.

   A spec is at most one goal (minimize / maximize / target-with-
   tolerance over a measure) plus any number of mask constraints
   (measure >= bound, measure <= bound). Scoring a candidate point
   aggregates everything into one scalar penalty for the gradient-free
   optimizer — and, separately, into a typed per-clause scorecard so
   "why is this point infeasible" is always answerable.

   Penalty shape: [objective + weight * sum(normalized violations)].
   Constraint violations are normalized by max(1, |bound|) so a 40 dB
   mask and a 1e-3 W power cap pull with comparable strength; a point
   whose required measure cannot be evaluated at all (failed job,
   off-grid target) scores infinity — the optimizer walks away from it.
   Everything here is pure float arithmetic: scoring is deterministic
   and wall-clock-free by construction. *)

type goal =
  | Minimize of Measure.t
  | Maximize of Measure.t
  | Target of { measure : Measure.t; value : float; tol : float }

type bound = Ge | Le
type constr = { c_measure : Measure.t; c_bound : bound; c_limit : float }
type clause = Goal of goal | Constraint of constr
type t = { goal : goal option; constraints : constr list }

exception Parse_error = Measure.Parse_error

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

let number = Measure.number

(* find a top-level [>=] or [<=]; measure arguments never contain them *)
let split_op s =
  let n = String.length s in
  let rec at i =
    if i + 1 >= n then None
    else if s.[i + 1] = '=' && (s.[i] = '>' || s.[i] = '<') then
      Some (String.sub s 0 i, s.[i], String.sub s (i + 2) (n - i - 2))
    else at (i + 1)
  in
  at 0

let parse_clause s =
  let s = String.trim s in
  let prefixed p =
    String.length s > String.length p
    && String.lowercase_ascii (String.sub s 0 (String.length p)) = p
  in
  let rest p = String.sub s (String.length p) (String.length s - String.length p) in
  if prefixed "minimize:" then Goal (Minimize (Measure.parse (rest "minimize:")))
  else if prefixed "maximize:" then Goal (Maximize (Measure.parse (rest "maximize:")))
  else if prefixed "target:" then begin
    let body = rest "target:" in
    match String.index_opt body '=' with
    | None -> fail "target: expected MEASURE=VALUE~TOL (got %S)" body
    | Some i -> (
        let m = Measure.parse (String.sub body 0 i) in
        let rhs = String.sub body (i + 1) (String.length body - i - 1) in
        match String.index_opt rhs '~' with
        | None -> fail "target: expected VALUE~TOL after '=' (got %S)" rhs
        | Some j ->
            let value = number ~what:"target value" (String.sub rhs 0 j)
            and tol =
              number ~what:"target tolerance"
                (String.sub rhs (j + 1) (String.length rhs - j - 1))
            in
            if not (tol > 0.0) then fail "target: tolerance must be positive";
            Goal (Target { measure = m; value; tol }))
  end
  else
    match split_op s with
    | Some (lhs, op, rhs) ->
        Constraint
          {
            c_measure = Measure.parse lhs;
            c_bound = (if op = '>' then Ge else Le);
            c_limit = number ~what:"constraint bound" rhs;
          }
    | None ->
        fail
          "spec clause %S: expected minimize:M, maximize:M, \
           target:M=VALUE~TOL, M>=BOUND or M<=BOUND"
          s

let make clauses =
  let goal, constraints =
    List.fold_left
      (fun (g, cs) -> function
        | Goal g' ->
            if g <> None then fail "spec has more than one goal clause";
            (Some g', cs)
        | Constraint c -> (g, c :: cs))
      (None, []) clauses
  in
  if goal = None && constraints = [] then fail "empty spec";
  { goal; constraints = List.rev constraints }

let of_strings ss = make (List.map parse_clause ss)

let goal_to_string = function
  | Minimize m -> Printf.sprintf "minimize:%s" (Measure.to_string m)
  | Maximize m -> Printf.sprintf "maximize:%s" (Measure.to_string m)
  | Target { measure; value; tol } ->
      Printf.sprintf "target:%s=%.9g~%.9g" (Measure.to_string measure) value tol

let constr_to_string c =
  Printf.sprintf "%s%s%.9g"
    (Measure.to_string c.c_measure)
    (match c.c_bound with Ge -> ">=" | Le -> "<=")
    c.c_limit

let clause_to_string = function
  | Goal g -> goal_to_string g
  | Constraint c -> constr_to_string c

let clauses t =
  (match t.goal with None -> [] | Some g -> [ Goal g ])
  @ List.map (fun c -> Constraint c) t.constraints

let to_strings t = List.map clause_to_string (clauses t)

(* the distinct measures the spec needs, in first-mention order *)
let measures t =
  let all =
    (match t.goal with
    | None -> []
    | Some (Minimize m | Maximize m) -> [ m ]
    | Some (Target { measure; _ }) -> [ measure ])
    @ List.map (fun c -> c.c_measure) t.constraints
  in
  List.fold_left (fun acc m -> if List.mem m acc then acc else acc @ [ m ]) [] all

(* ---------------------------------------------------------- scoring -- *)

type verdict = {
  v_clause : string;  (** canonical clause text *)
  v_value : float option;  (** the measured value, if evaluable *)
  v_pass : bool;
  v_margin : float option;
      (** distance to the bound (positive = slack) for constraints;
          [tol - |value - target|] for a target goal; [None] for
          minimize/maximize goals and unevaluable measures *)
}

type score = {
  penalty : float;  (** the optimizer's scalar objective *)
  objective : float option;  (** goal contribution before constraints *)
  verdicts : verdict list;  (** goal first (if any), then constraints *)
  feasible : bool;  (** every constraint evaluable and satisfied *)
  met : bool;
      (** the spec is met: feasible, and a target goal (if any) is
          within tolerance — the [rfsim optimize] exit-0 criterion *)
}

let default_weight = 1000.0

let score ?(weight = default_weight) t lookup =
  let goal_verdict, objective, goal_met =
    match t.goal with
    | None -> (None, None, true)
    | Some g -> (
        let m =
          match g with Minimize m | Maximize m -> m | Target { measure; _ } -> measure
        in
        match lookup m with
        | None ->
            (Some { v_clause = goal_to_string g; v_value = None; v_pass = false; v_margin = None },
             Some infinity, false)
        | Some v -> (
            match g with
            | Minimize _ ->
                (Some { v_clause = goal_to_string g; v_value = Some v; v_pass = true; v_margin = None },
                 Some v, true)
            | Maximize _ ->
                (Some { v_clause = goal_to_string g; v_value = Some v; v_pass = true; v_margin = None },
                 Some (-.v), true)
            | Target { value; tol; _ } ->
                let miss = Float.abs (v -. value) in
                ( Some
                    {
                      v_clause = goal_to_string g;
                      v_value = Some v;
                      v_pass = miss <= tol;
                      v_margin = Some (tol -. miss);
                    },
                  Some (miss /. tol),
                  miss <= tol )))
  in
  let constraint_verdicts =
    List.map
      (fun c ->
        match lookup c.c_measure with
        | None ->
            ({ v_clause = constr_to_string c; v_value = None; v_pass = false; v_margin = None },
             infinity)
        | Some v ->
            let margin =
              match c.c_bound with Ge -> v -. c.c_limit | Le -> c.c_limit -. v
            in
            let violation =
              Float.max 0.0 (-.margin) /. Float.max 1.0 (Float.abs c.c_limit)
            in
            ( {
                v_clause = constr_to_string c;
                v_value = Some v;
                v_pass = margin >= 0.0;
                v_margin = Some margin;
              },
              violation ))
      t.constraints
  in
  let violations = List.fold_left (fun a (_, v) -> a +. v) 0.0 constraint_verdicts in
  let feasible = List.for_all (fun (v, _) -> v.v_pass) constraint_verdicts in
  let penalty = Option.value objective ~default:0.0 +. (weight *. violations) in
  {
    penalty;
    objective;
    verdicts =
      (match goal_verdict with None -> [] | Some v -> [ v ])
      @ List.map fst constraint_verdicts;
    feasible;
    met = feasible && goal_met;
  }
