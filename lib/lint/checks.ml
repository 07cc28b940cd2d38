open Rfkit_circuit
module D = Diagnostic

(* ------------------------------------------------------------- helpers -- *)

let devices_touching nl =
  (* node index -> devices attached to one of its terminals, deck order *)
  let n = Netlist.node_count nl in
  let table = Array.make n [] in
  List.iter
    (fun dev ->
      let seen = ref [] in
      List.iter
        (fun (_, nd) ->
          if nd >= 0 && not (List.memq nd !seen) then begin
            seen := nd :: !seen;
            table.(nd) <- dev :: table.(nd)
          end)
        (Device.terminals dev))
    (Netlist.devices nl);
  Array.map List.rev table

let earliest_origin devs =
  List.fold_left
    (fun acc dev ->
      match (acc, Device.origin dev) with
      | None, o -> o
      | Some a, Some b -> Some (min a b)
      | Some _, None -> acc)
    None devs

let name_list nl nodes =
  String.concat ", " (List.map (Netlist.node_name nl) nodes)

(* group the nodes failing [reached] into islands by union-find root;
   islands come out ordered by their lowest member, members ascending *)
let islands_of nl graph ~reached =
  let members = Hashtbl.create 8 in
  let roots = ref [] in
  for nd = 0 to Netlist.node_count nl - 1 do
    if not (reached nd) then begin
      let r = Graph.root graph nd in
      match Hashtbl.find_opt members r with
      | Some nodes -> Hashtbl.replace members r (nd :: nodes)
      | None ->
          Hashtbl.replace members r [ nd ];
          roots := r :: !roots
    end
  done;
  List.rev_map (fun r -> List.rev (Hashtbl.find members r)) !roots

(* ------------------------------------------------- L001 floating nodes -- *)

let floating_nodes nl =
  let touching = devices_touching nl in
  let g = Graph.of_netlist ~edges_of:Graph.galvanic_edges nl in
  islands_of nl g ~reached:(Graph.reaches_ground g)
  |> List.map (fun nodes ->
         let devs = List.concat_map (fun nd -> touching.(nd)) nodes in
         let msg =
           match nodes with
           | [ _ ] ->
               Printf.sprintf "node %s has no electrical path to ground (floating)"
                 (name_list nl nodes)
           | _ ->
               Printf.sprintf
                 "nodes %s form a connectivity island with no path to ground"
                 (name_list nl nodes)
         in
         D.error ?line:(earliest_origin devs) ~subject:(name_list nl nodes) "L001" msg)

(* --------------------------------------- L002 voltage-source / L loops -- *)

let source_loops nl =
  let g = Graph.create ~node_count:(Netlist.node_count nl) in
  List.filter_map
    (fun dev ->
      let loop_edge kind p n =
        if p = n then None (* self-shorts are L004's business *)
        else if Graph.adds_cycle g p n then
          Some
            (D.error ?line:(Device.origin dev) ~subject:(Device.name dev) "L002"
               (Printf.sprintf
                  "%s %s closes a loop of voltage sources/inductors: branch currents \
                   are underdetermined and the MNA matrix is singular"
                  kind (Device.name dev)))
        else None
      in
      match dev with
      | Device.Vsource { p; n; _ } -> loop_edge "voltage source" p n
      | Device.Inductor { p; n; _ } -> loop_edge "inductor" p n
      | _ -> None)
    (Netlist.devices nl)

(* ------------------------------------ L003 C / I-source cutsets (no DC) -- *)

let dc_path_cutsets nl =
  let touching = devices_touching nl in
  let galvanic = Graph.of_netlist ~edges_of:Graph.galvanic_edges nl in
  let conductive = Graph.of_netlist ~edges_of:Graph.dc_path_edges nl in
  (* only nodes that L001 does NOT already flag: wired up, but isolated at DC *)
  islands_of nl conductive ~reached:(fun nd ->
      Graph.reaches_ground conductive nd || not (Graph.reaches_ground galvanic nd))
  |> List.map (fun nodes ->
         let devs = List.concat_map (fun nd -> touching.(nd)) nodes in
         let what =
           match nodes with
           | [ _ ] -> Printf.sprintf "node %s has" (name_list nl nodes)
           | _ -> Printf.sprintf "nodes %s have" (name_list nl nodes)
         in
         D.error ?line:(earliest_origin devs) ~subject:(name_list nl nodes) "L003"
           (Printf.sprintf
              "%s no DC path to ground (capacitor/current-source cutset): the DC \
               conductance matrix is singular"
              what))

(* -------------------------------------- L004 dangling / shorted pins -- *)

let terminal_sanity nl =
  let touching = devices_touching nl in
  let shorts =
    List.filter_map
      (fun dev ->
        let line = Device.origin dev and subject = Device.name dev in
        match dev with
        | Device.Vsource { p; n; _ } when p = n ->
            Some
              (D.error ?line ~subject "L004"
                 (Printf.sprintf
                    "voltage source %s has both terminals on node %s: a nonzero EMF \
                     across a short is contradictory"
                    subject (Netlist.node_name nl p)))
        | Device.Resistor { p; n; _ }
        | Device.Capacitor { p; n; _ }
        | Device.Inductor { p; n; _ }
        | Device.Isource { p; n; _ }
        | Device.Diode { p; n; _ }
        | Device.Cubic_conductor { p; n; _ }
        | Device.Nl_capacitor { p; n; _ }
        | Device.Noise_current { p; n; _ }
          when p = n ->
            Some
              (D.warning ?line ~subject "L004"
                 (Printf.sprintf "%s is shorted to itself on node %s (no effect)"
                    subject (Netlist.node_name nl p)))
        | Device.Vccs { p = _; n = _; cp; cn; _ } | Device.Tanh_gm { cp; cn; _ }
          when cp = cn ->
            Some
              (D.warning ?line ~subject "L004"
                 (Printf.sprintf
                    "%s senses v(%s,%s) = 0: the controlled source never turns on"
                    subject (Netlist.node_name nl cp) (Netlist.node_name nl cn)))
        | Device.Mosfet { d; s; _ } when d = s ->
            Some
              (D.warning ?line ~subject "L004"
                 (Printf.sprintf "%s has drain and source on node %s" subject
                    (Netlist.node_name nl d)))
        | _ -> None)
      (Netlist.devices nl)
  in
  let dangling =
    Array.to_list touching
    |> List.mapi (fun nd devs -> (nd, devs))
    |> List.filter_map (fun (nd, devs) ->
           match devs with
           | [ dev ] ->
               (* a single attachment can still be legitimate (a probe hung on a
                  source), so this is a warning, not an error *)
               let uses = List.filter (fun (_, n) -> n = nd) (Device.terminals dev) in
               if List.length uses = 1 then
                 Some
                   (D.warning
                      ?line:(Device.origin dev)
                      ~subject:(Netlist.node_name nl nd) "L004"
                      (Printf.sprintf
                         "node %s connects to a single device terminal (%s): dangling?"
                         (Netlist.node_name nl nd) (Device.name dev)))
               else None
           | _ -> None)
  in
  shorts @ dangling

(* --------------------------------------------- L005 element values -- *)

let wave_params = function
  | Wave.Dc v -> [ ("dc", v) ]
  | Wave.Sine { ampl; freq; phase; offset } ->
      [ ("ampl", ampl); ("freq", freq); ("phase", phase); ("offset", offset) ]
  | Wave.Square { ampl; freq; rise; offset } ->
      [ ("ampl", ampl); ("freq", freq); ("rise", rise); ("offset", offset) ]
  | Wave.Pulse { low; high; freq; duty; rise } ->
      [ ("low", low); ("high", high); ("freq", freq); ("duty", duty); ("rise", rise) ]
  | Wave.Pwl pts ->
      Array.to_list pts
      |> List.concat_map (fun (t, v) -> [ ("t", t); ("v", v) ])
  | Wave.Sum _ -> []

let rec wave_all_params w =
  match w with
  | Wave.Sum ws -> List.concat_map wave_all_params ws
  | w -> wave_params w

let element_values nl =
  let finite v = Float.is_finite v && not (Float.is_nan v) in
  List.concat_map
    (fun dev ->
      let line = Device.origin dev and subject = Device.name dev in
      let err fmt = Printf.ksprintf (fun m -> D.error ?line ~subject "L005" m) fmt in
      let warn fmt = Printf.ksprintf (fun m -> D.warning ?line ~subject "L005" m) fmt in
      let hint fmt = Printf.ksprintf (fun m -> D.hint ?line ~subject "L005" m) fmt in
      let nonfinite what v =
        if finite v then [] else [ err "%s of %s is %g (not finite)" what subject v ]
      in
      match dev with
      | Device.Resistor { r; _ } ->
          if not (finite r) then [ err "resistance of %s is not finite" subject ]
          else if r = 0.0 then
            [ err "%s has zero resistance: use a voltage source or merge the nodes" subject ]
          else if r < 0.0 then
            [ warn "%s has negative resistance %g ohm (intentional macromodel?)" subject r ]
          else if r > 1e12 then
            [ hint "%s = %g ohm is suspiciously large: check the unit suffix" subject r ]
          else if r < 1e-6 then
            [ hint "%s = %g ohm is suspiciously small: check the unit suffix" subject r ]
          else []
      | Device.Capacitor { c; _ } ->
          if not (finite c) then [ err "capacitance of %s is not finite" subject ]
          else if c <= 0.0 then [ warn "%s has non-positive capacitance %g F" subject c ]
          else if c >= 1.0 then
            [ hint "%s = %g F is suspiciously large: check the unit suffix" subject c ]
          else []
      | Device.Inductor { l; _ } ->
          if not (finite l) then [ err "inductance of %s is not finite" subject ]
          else if l <= 0.0 then [ warn "%s has non-positive inductance %g H" subject l ]
          else if l >= 1.0 then
            [ hint "%s = %g H is suspiciously large: check the unit suffix" subject l ]
          else []
      | Device.Vsource { wave; _ } | Device.Isource { wave; _ } ->
          List.concat_map
            (fun (what, v) ->
              if not (finite v) then [ err "%s of %s is not finite" what subject ]
              else if what = "freq" && v < 0.0 then
                [ err "%s of %s is negative (%g Hz)" what subject v ]
              else if what = "freq" && v = 0.0 then
                [ warn "%s drives a periodic wave at 0 Hz" subject ]
              else [])
            (wave_all_params wave)
      | Device.Vccs { gm; _ } -> nonfinite "transconductance" gm
      | Device.Diode { is; nvt; cj; _ } ->
          (if is <= 0.0 then [ err "%s has non-positive saturation current IS=%g" subject is ]
           else [])
          @ (if nvt <= 0.0 then [ err "%s has non-positive thermal voltage NVT=%g" subject nvt ]
             else [])
          @ (if cj < 0.0 then [ warn "%s has negative junction capacitance CJ=%g" subject cj ]
             else [])
      | Device.Tanh_gm { gm; vsat; _ } ->
          nonfinite "transconductance" gm
          @ if vsat <= 0.0 then [ err "%s has non-positive saturation voltage" subject ] else []
      | Device.Cubic_conductor { g1; g3; _ } ->
          nonfinite "linear conductance" g1 @ nonfinite "cubic coefficient" g3
      | Device.Nl_capacitor { c0; _ } ->
          if c0 <= 0.0 then [ warn "%s has non-positive base capacitance %g F" subject c0 ]
          else []
      | Device.Mult_vccs { k; _ } -> nonfinite "gain" k
      | Device.Mosfet { kp; cgs; cgd; _ } ->
          (if kp <= 0.0 then [ warn "%s has non-positive KP=%g: the device never conducts" subject kp ]
           else [])
          @ (if cgs < 0.0 || cgd < 0.0 then [ warn "%s has negative gate capacitance" subject ]
             else [])
      | Device.Noise_current { white; _ } ->
          if white < 0.0 then [ err "%s has negative noise PSD %g" subject white ] else []
      )
    (Netlist.devices nl)

(* ------------------------------------------- L010..L013 directive sanity -- *)

let source_fundamentals nl =
  List.concat_map
    (fun dev ->
      match dev with
      | Device.Vsource { wave; _ } | Device.Isource { wave; _ } -> Wave.fundamentals wave
      | _ -> [])
    (Netlist.devices nl)
  |> List.sort_uniq compare

let directive_sanity nl located =
  let has_nonlinear = List.exists (fun d -> not (Device.is_linear d)) (Netlist.devices nl) in
  let fundamentals = source_fundamentals nl in
  List.concat_map
    (fun (line, dir) ->
      match dir with
      | Deck.Tran { t_stop; dt } ->
          let err m = D.error ~line ~subject:".tran" "L010" m in
          let warn m = D.warning ~line ~subject:".tran" "L010" m in
          if dt <= 0.0 then [ err (Printf.sprintf "time step dt = %g must be positive" dt) ]
          else if t_stop <= 0.0 then
            [ err (Printf.sprintf "stop time %g must be positive" t_stop) ]
          else if dt > t_stop then
            [ err (Printf.sprintf "time step %g exceeds stop time %g" dt t_stop) ]
          else begin
            let steps = t_stop /. dt in
            (if steps > 1e7 then
               [ warn
                   (Printf.sprintf
                      "t_stop/dt = %.3g time steps: this transient will be very slow"
                      steps) ]
             else if steps < 10.0 then
               [ warn (Printf.sprintf "only %.0f time steps: nothing will be resolved" steps) ]
             else [])
            @
            match fundamentals with
            | [] -> []
            | fs ->
                let fmax = List.fold_left max 0.0 fs in
                if fmax > 0.0 && dt *. fmax > 0.2 then
                  [ warn
                      (Printf.sprintf
                         "dt = %g under-samples the %g Hz source (%.1f points per period)"
                         dt fmax (1.0 /. (dt *. fmax))) ]
                else []
          end
      | Deck.Hb { harmonics } ->
          let err m = D.error ~line ~subject:".hb" "L011" m in
          if harmonics <= 0 then
            [ err (Printf.sprintf "harmonic count %d must be positive" harmonics) ]
          else
            (if fundamentals = [] then
               [ err "no periodic source in the deck: harmonic balance has no fundamental" ]
             else [])
            @ (if not has_nonlinear then
                 [ D.hint ~line ~subject:".hb" "L011"
                     "every device is linear: a single AC solve would give the same answer"
                 ]
               else [])
            @
            if harmonics > 512 then
              [ D.warning ~line ~subject:".hb" "L011"
                  (Printf.sprintf "%d harmonics is a very large HB system" harmonics)
              ]
            else []
      | Deck.Ac_sweep { f_start; f_stop } | Deck.Noise_sweep { f_start; f_stop } ->
          let subject =
            match dir with Deck.Noise_sweep _ -> ".noise" | _ -> ".ac" in
          let err m = D.error ~line ~subject "L012" m in
          if f_start <= 0.0 then
            [ err
                (Printf.sprintf
                   "start frequency %g must be positive (sweeps are logarithmic)" f_start)
            ]
          else if f_stop < f_start then
            [ err (Printf.sprintf "sweep bounds are reversed (%g .. %g Hz)" f_start f_stop) ]
          else []
      | Deck.Print names ->
          List.filter_map
            (fun name ->
              match Netlist.find_node nl name with
              | Some _ -> None
              | None ->
                  Some
                    (D.warning ~line ~subject:name "L013"
                       (Printf.sprintf ".print references unknown node %s" name)))
            names
      | Deck.Param _ (* L014's business *) | Deck.Dc_op -> [])
    located

(* ------------------------------------------------ L014 .param hygiene -- *)

let param_hygiene located =
  let seen = Hashtbl.create 8 in
  List.concat_map
    (fun (line, dir) ->
      match dir with
      | Deck.Param { name; value; used } ->
          let dup =
            match Hashtbl.find_opt seen name with
            | Some first ->
                [
                  D.warning ~line ~subject:name "L014"
                    (Printf.sprintf
                       ".param %s redefines the definition on line %d (last one wins)"
                       name first);
                ]
            | None ->
                Hashtbl.replace seen name line;
                []
          in
          let unused =
            if used then []
            else
              [
                D.warning ~line ~subject:name "L014"
                  (Printf.sprintf
                     ".param %s = %g is never referenced ({%s} appears nowhere): \
                      dead knob or typo?"
                     name value name);
              ]
          in
          dup @ unused
      | _ -> [])
    located

(* --------------------------------------- L020 conductance-spread risk -- *)

let conductance_spread nl =
  let entries =
    List.filter_map
      (fun dev ->
        let entry g = Some (Device.name dev, Device.origin dev, Float.abs g) in
        match dev with
        | Device.Resistor { r; _ } when r <> 0.0 && Float.is_finite r -> entry (1.0 /. r)
        | Device.Vccs { gm; _ } when gm <> 0.0 -> entry gm
        | Device.Tanh_gm { gm; _ } when gm <> 0.0 -> entry gm
        | Device.Cubic_conductor { g1; _ } when g1 <> 0.0 -> entry g1
        | _ -> None)
      (Netlist.devices nl)
  in
  match entries with
  | [] | [ _ ] -> []
  | entries ->
      let smallest = List.fold_left (fun a (_, _, g) -> min a g) Float.infinity entries in
      let largest = List.fold_left (fun a (_, _, g) -> max a g) 0.0 entries in
      if largest /. smallest > 1e12 then begin
        let name_of g = List.find (fun (_, _, x) -> x = g) entries in
        let lo_name, lo_line, _ = name_of smallest and hi_name, _, _ = name_of largest in
        [
          D.warning ?line:lo_line ~subject:lo_name "L020"
            (Printf.sprintf
               "conductance spread of %.1e between %s and %s: the stamped Jacobian will \
                be badly conditioned and Newton may stall"
               (largest /. smallest) hi_name lo_name);
        ]
      end
      else []

(* ------------------------------ L021/L022 structural singularity -- *)

module Dm = Rfkit_struct.Dm
module Sp = Rfkit_la.Sparse

(* earliest deck line among the devices behind a set of unknowns *)
let earliest_unknown_origin c is =
  List.fold_left
    (fun acc i ->
      match (acc, Mna.unknown_origin c i) with
      | None, o -> o
      | Some a, Some b -> Some (min a b)
      | Some _, None -> acc)
    None is

let unknown_labels c is = String.concat ", " (List.map (Mna.unknown_label c) is)

(* the MNA system the structural checks share; [None] when there is none
   to examine (a linter must never crash on a deck it is diagnosing) *)
let circuit_of nl =
  match Mna.build nl with
  | exception _ -> None
  | c -> if Mna.size c = 0 then None else Some c

let singularity_of c =
  let n = Mna.size c in
  let dm = Dm.decompose (Mna.structural_g c) in
  if dm.Dm.rank >= n then []
  else begin
    let l021 =
      D.error
        ?line:(earliest_unknown_origin c dm.Dm.over_rows)
        ~subject:(unknown_labels c dm.Dm.over_rows) "L021"
        (Printf.sprintf
           "MNA system is structurally singular (structural rank %d of %d): \
            the equations for %s admit no complete matching, so the matrix \
            is singular for every element value"
           dm.Dm.rank n
           (unknown_labels c dm.Dm.over_rows))
    in
    let l022 =
      List.map
        (fun j ->
          D.error
            ?line:(Mna.unknown_origin c j)
            ~subject:(Mna.unknown_label c j) "L022"
            (Printf.sprintf
               "unknown %s sits in an underdetermined block (%s): no \
                independent equation pins it down"
               (Mna.unknown_label c j)
               (unknown_labels c dm.Dm.under_cols)))
        dm.Dm.under_cols
    in
    l021 :: l022
  end

(* ---------------------------------------- L023 DAE index heuristic -- *)

let dae_index_of c =
  let n = Mna.size c in
  if Mna.structural_rank_gc c < n then
    (* structurally singular outright: L021/L022 already own this deck *)
    []
  else begin
    (* unknowns with no differential (C-pattern) assignment form the
       algebraic subsystem; if its G-block is structurally deficient the
       DAE needs differentiation of constraints to close — index >= 2 *)
    let mc = Dm.max_matching (Mna.structural_c c) in
    let alg_rows = ref [] and alg_cols = ref [] in
    for i = n - 1 downto 0 do
      if mc.Dm.row_match.(i) < 0 then alg_rows := i :: !alg_rows;
      if mc.Dm.col_match.(i) < 0 then alg_cols := i :: !alg_cols
    done;
    let rows = !alg_rows and cols = !alg_cols in
    let k = List.length rows in
    if k = 0 || k = n then []
    else begin
      let sg = Mna.structural_g c in
      let row_ptr, col_idx, _ = Sp.csr sg in
      let col_pos = Array.make n (-1) in
      List.iteri (fun p j -> col_pos.(j) <- p) cols;
      let triplets = ref [] in
      List.iteri
        (fun p i ->
          for idx = row_ptr.(i) to row_ptr.(i + 1) - 1 do
            let j = col_idx.(idx) in
            if col_pos.(j) >= 0 then
              triplets := (p, col_pos.(j), 1.0) :: !triplets
          done)
        rows;
      let sub = Sp.of_triplets ~rows:k ~cols:k !triplets in
      let sub_dm = Dm.decompose sub in
      if sub_dm.Dm.rank >= k then []
      else begin
        (* map the underdetermined sub-block columns back to circuit
           unknowns, and keep only node voltages: a source branch
           current needing a constraint differentiation only pollutes
           that source's own readout (ideal source on a capacitive
           node — ubiquitous and benign), whereas an index-2 node
           voltage contaminates the solution itself *)
        let col_arr = Array.of_list cols in
        let bad =
          List.filter_map
            (fun p ->
              let j = col_arr.(p) in
              if j < Mna.n_nodes c then Some j else None)
            sub_dm.Dm.under_cols
        in
        if bad = [] then []
        else
          [
            D.warning
              ?line:(earliest_unknown_origin c bad)
              ~subject:(unknown_labels c bad) "L023"
              (Printf.sprintf
                 "index-2-prone topology: the algebraic subsystem has \
                  structural G-rank %d of %d and leaves %s determined \
                  only by differentiating constraints — expect order \
                  reduction and amplified derivative noise in transient"
                 sub_dm.Dm.rank k (unknown_labels c bad));
          ]
      end
    end
  end

let dae_index nl = match circuit_of nl with None -> [] | Some c -> dae_index_of c

let mna_checks c = singularity_of c @ dae_index_of c

let structural nl =
  let mna_checks = match circuit_of nl with None -> [] | Some c -> mna_checks c in
  floating_nodes nl @ source_loops nl @ dc_path_cutsets nl @ terminal_sanity nl
  @ element_values nl @ conductance_spread nl @ mna_checks

let all nl located = structural nl @ directive_sanity nl located @ param_hygiene located
