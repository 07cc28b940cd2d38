type budget_axis = Iterations | Wall_clock

type cause =
  | Singular_jacobian
  | Newton_stall of { iterations : int; residual : float }
  | Krylov_stall of { iterations : int; residual : float }
  | Non_finite of { iter : int; index : int }
  | Budget_exhausted of budget_axis
  | Unsupported of string
  | Structurally_singular of { rank : int; size : int }
  | Deadline_exceeded of { seconds : float }
  | Interrupted

type strategy =
  | Base
  | Tighten_damping of float
  | Gmin_stepping of int
  | Source_ramping of int
  | Warm_start of int
  | Escalate_samples of int
  | Refine_timestep of int
  | Enlarge_krylov of int

let strategy_name = function
  | Base -> "base"
  | Tighten_damping d -> Printf.sprintf "damping(%g)" d
  | Gmin_stepping k -> Printf.sprintf "gmin-stepping(%d)" k
  | Source_ramping k -> Printf.sprintf "source-ramping(%d)" k
  | Warm_start p -> Printf.sprintf "warm-start(%d)" p
  | Escalate_samples f -> Printf.sprintf "oversample(x%d)" f
  | Refine_timestep f -> Printf.sprintf "substep(/%d)" f
  | Enlarge_krylov f -> Printf.sprintf "krylov-basis(x%d)" f

let cause_to_string = function
  | Singular_jacobian -> "singular Jacobian"
  | Newton_stall { iterations; residual } ->
      Printf.sprintf "Newton stall (residual %.3e after %d iterations)" residual
        iterations
  | Krylov_stall { iterations; residual } ->
      Printf.sprintf "Krylov stall (residual %.3e after %d iterations)" residual
        iterations
  | Non_finite { iter; index } ->
      Printf.sprintf "non-finite value in unknown %d at iteration %d" index iter
  | Budget_exhausted Iterations -> "iteration budget exhausted"
  | Budget_exhausted Wall_clock -> "wall-clock budget exhausted"
  | Unsupported msg -> msg
  | Structurally_singular { rank; size } ->
      Printf.sprintf
        "structurally singular system (structural rank %d of %d): singular for \
         every value assignment — run `rfsim analyze` for the deck-line diagnosis"
        rank size
  | Deadline_exceeded { seconds } ->
      (* the allotted budget, not the measured overrun: reports carrying
         this cause must render identically across runs *)
      Printf.sprintf "deadline exceeded (%gs budget)" seconds
  | Interrupted -> "interrupted (SIGINT/SIGTERM)"

(* fail-fast causes abort the ladder: more attempts cannot change the answer *)
let fail_fast = function
  | Non_finite _ | Unsupported _ | Structurally_singular _ | Deadline_exceeded _
  | Interrupted ->
      true
  | Singular_jacobian | Newton_stall _ | Krylov_stall _ | Budget_exhausted _ ->
      false

type stats = { iterations : int; residual : float; krylov_iterations : int }

let no_stats = { iterations = 0; residual = infinity; krylov_iterations = 0 }

type attempt = { strategy : strategy; stats : stats; cause : cause option }

type budget = {
  attempt_iterations : int;
  total_iterations : int;
  wall_clock : float;
}

let default_budget =
  { attempt_iterations = 400; total_iterations = 4000; wall_clock = 300.0 }

type report = {
  engine : string;
  strategy : strategy;
  stats : stats;
  attempts : attempt list;
  total_iterations : int;
  elapsed : float;
}

type failure = {
  f_engine : string;
  cause : cause;
  f_attempts : attempt list;
  f_elapsed : float;
}

type 'a outcome = Converged of 'a * report | Failed of failure

let map f = function Converged (x, r) -> Converged (f x, r) | Failed g -> Failed g

(* zero-attempt failure for structural prechecks: the engine refused to
   run any ladder rung because the pattern proves the system singular *)
let structural_failure ~engine ~rank ~size =
  {
    f_engine = engine;
    cause = Structurally_singular { rank; size };
    f_attempts = [];
    f_elapsed = 0.0;
  }

let reraise_abort f =
  match f.cause with
  | Interrupted -> raise Deadline.Interrupted
  | Deadline_exceeded { seconds } -> raise (Deadline.Expired seconds)
  | _ -> ()

let run ?(budget = default_budget) ~engine ~ladder ~attempt () =
  let t0 = Unix.gettimeofday () in
  let elapsed () = Unix.gettimeofday () -. t0 in
  let total_iters = ref 0 in
  let trail = ref [] in
  let fail cause =
    Failed
      {
        f_engine = engine;
        cause;
        f_attempts = List.rev !trail;
        f_elapsed = elapsed ();
      }
  in
  let rec step = function
    | [] ->
        let cause =
          match !trail with
          | { cause = Some c; _ } :: _ -> c
          | _ -> Newton_stall { iterations = !total_iters; residual = infinity }
        in
        fail cause
    | strategy :: rest ->
        if elapsed () > budget.wall_clock then fail (Budget_exhausted Wall_clock)
        else if !total_iters >= budget.total_iterations then
          fail (Budget_exhausted Iterations)
        else begin
          let iter_cap =
            min budget.attempt_iterations (budget.total_iterations - !total_iters)
          in
          Faults.begin_attempt ~engine;
          (* engines poll Deadline.check from their inner loops (via
             Guard.check); the exceptions surface here, between whatever
             bookkeeping the engine abandoned and the typed outcome the
             caller sees. Iteration counts of the aborted attempt are
             lost — the abort path must not depend on engine cooperation
             beyond the poll itself. *)
          match attempt strategy ~iter_cap with
          | exception Deadline.Expired seconds ->
              let cause = Deadline_exceeded { seconds } in
              trail := { strategy; stats = no_stats; cause = Some cause } :: !trail;
              fail cause
          | exception Deadline.Interrupted ->
              trail :=
                { strategy; stats = no_stats; cause = Some Interrupted } :: !trail;
              fail Interrupted
          | Ok (x, stats) ->
              total_iters := !total_iters + stats.iterations;
              trail := { strategy; stats; cause = None } :: !trail;
              Converged
                ( x,
                  {
                    engine;
                    strategy;
                    stats;
                    attempts = List.rev !trail;
                    total_iterations = !total_iters;
                    elapsed = elapsed ();
                  } )
          | Error (cause, stats) ->
              total_iters := !total_iters + stats.iterations;
              trail := { strategy; stats; cause = Some cause } :: !trail;
              if fail_fast cause then fail cause else step rest
        end
  in
  step ladder

let pp_attempts ppf attempts =
  List.iteri
    (fun i { strategy; stats; cause } ->
      Format.fprintf ppf "@,  attempt %d: %-20s newton=%-4d krylov=%-5d %s" (i + 1)
        (strategy_name strategy) stats.iterations stats.krylov_iterations
        (match cause with
        | None -> Printf.sprintf "converged (residual %.3e)" stats.residual
        | Some c -> cause_to_string c))
    attempts

let pp_report ppf (r : report) =
  Format.fprintf ppf
    "@[<v>%s converged via %s (%d Newton + %d Krylov iterations, %.3fs)%a@]"
    r.engine (strategy_name r.strategy) r.total_iterations
    r.stats.krylov_iterations r.elapsed pp_attempts r.attempts

let pp_failure ppf (f : failure) =
  Format.fprintf ppf "@[<v>%s failed: %s (%.3fs)%a@]" f.f_engine
    (cause_to_string f.cause) f.f_elapsed pp_attempts f.f_attempts

let report_to_string r = Format.asprintf "%a" pp_report r
let failure_to_string f = Format.asprintf "%a" pp_failure f
