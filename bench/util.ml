(* Shared helpers for the reproduction benches. *)

let section title =
  let bar = String.make 74 '=' in
  Printf.printf "\n%s\n%s\n%s\n" bar title bar

let subsection title = Printf.printf "\n--- %s ---\n" title

let row3 a b c = Printf.printf "  %-34s %-18s %-18s\n" a b c
let row2 a b = Printf.printf "  %-34s %s\n" a b

let timed f =
  let t0 = Unix.gettimeofday () in
  let result = f () in
  (result, Unix.gettimeofday () -. t0)

(* the converged value of a supervised solve; a failure aborts the
   experiment with the rendered attempt ladder *)
let converged = function
  | Rfkit.Solve.Supervisor.Converged (r, _) -> r
  | Rfkit.Solve.Supervisor.Failed f ->
      failwith (Rfkit.Solve.Supervisor.failure_to_string f)

let verdict ~label ~paper ~measured ~ok =
  Printf.printf "  %-38s paper: %-14s measured: %-14s %s\n" label paper measured
    (if ok then "[ok]" else "[MISMATCH]")
