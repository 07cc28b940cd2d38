type directive =
  | Tran of { t_stop : float; dt : float }
  | Ac_sweep of { f_start : float; f_stop : float }
  | Dc_op
  | Hb of { harmonics : int }
  | Noise_sweep of { f_start : float; f_stop : float }
  | Print of string list
  | Param of { name : string; value : float; used : bool }

exception Parse_error of int * string

let suffix_value = function
  | "f" -> 1e-15
  | "p" -> 1e-12
  | "n" -> 1e-9
  | "u" -> 1e-6
  | "m" -> 1e-3
  | "k" -> 1e3
  | "meg" -> 1e6
  | "g" -> 1e9
  | "t" -> 1e12
  | _ -> raise Not_found

(* Multiplier of a trailing alphabetic tail. SPICE semantics: the scale
   prefix is the longest engineering suffix starting the tail; any letters
   after it are a unit annotation ("1kohm", "47pF", "2.2MEGohm", "5v").
   "meg" must be matched before the single letter "m" (milli). *)
let tail_multiplier suf =
  if suf = "" then 1.0
  else if String.length suf >= 3 && String.sub suf 0 3 = "meg" then 1e6
  else
    match suffix_value (String.sub suf 0 1) with
    | mult -> mult
    | exception Not_found -> 1.0

let no_params : string -> float option = fun _ -> None

let parse_value ?(lineno = 0) ?(params = no_params) s =
  let fail msg = raise (Parse_error (lineno, msg)) in
  let s0 = String.trim s in
  let n0 = String.length s0 in
  if n0 = 0 then fail "empty numeric value";
  (* {NAME}: reference to a .param definition (or an external override) *)
  if s0.[0] = '{' then begin
    if n0 < 3 || s0.[n0 - 1] <> '}' then
      fail ("malformed parameter reference " ^ s0 ^ " (expected {NAME})");
    let name = String.uppercase_ascii (String.sub s0 1 (n0 - 2)) in
    match params name with
    | Some v -> v
    | None ->
        fail
          (Printf.sprintf
             "undefined parameter {%s}: no .param %s=... in the deck and no \
              override supplied"
             name name)
  end
  else begin
    let s = String.lowercase_ascii s0 in
    (* split trailing alphabetic suffix *)
    let n = String.length s in
    let is_suffix_char ch = ch >= 'a' && ch <= 'z' in
    let cut = ref n in
    while !cut > 0 && is_suffix_char s.[!cut - 1] do
      decr cut
    done;
    let num = String.sub s 0 !cut and suf = String.sub s !cut (n - !cut) in
    match float_of_string_opt num with
    | Some v -> v *. tail_multiplier suf
    | None -> fail ("bad numeric value " ^ s)
  end

(* tokenize, keeping SIN(...) style groups as single tokens *)
let tokenize line =
  let line =
    match String.index_opt line ';' with
    | Some i -> String.sub line 0 i
    | None -> line
  in
  let buf = Buffer.create 16 in
  let tokens = ref [] in
  let depth = ref 0 in
  let flush () =
    if Buffer.length buf > 0 then begin
      tokens := Buffer.contents buf :: !tokens;
      Buffer.clear buf
    end
  in
  String.iter
    (fun ch ->
      match ch with
      | '(' ->
          incr depth;
          Buffer.add_char buf ch
      | ')' ->
          decr depth;
          Buffer.add_char buf ch
      | ' ' | '\t' when !depth = 0 -> flush ()
      | c -> Buffer.add_char buf c)
    line;
  flush ();
  List.rev !tokens

let parse_source ?(params = no_params) lineno tokens =
  (* tokens after the node names, e.g. ["DC"; "5"] or ["SIN(0 1 1e6)"] *)
  let fail msg = raise (Parse_error (lineno, msg)) in
  let value = parse_value ~lineno ~params in
  match tokens with
  | [] -> fail "missing source value"
  | [ v ] when String.length v >= 4 && String.uppercase_ascii (String.sub v 0 4) = "SIN(" ->
      let inner = String.sub v 4 (String.length v - 5) in
      (match String.split_on_char ' ' (String.trim inner) |> List.filter (( <> ) "") with
      | [ offset; ampl; freq ] ->
          Wave.Sine
            { offset = value offset; ampl = value ampl; freq = value freq; phase = 0.0 }
      | _ -> fail "SIN expects (offset ampl freq)")
  | [ v ]
    when String.length v >= 7 && String.uppercase_ascii (String.sub v 0 7) = "SQUARE(" ->
      let inner = String.sub v 7 (String.length v - 8) in
      (match String.split_on_char ' ' (String.trim inner) |> List.filter (( <> ) "") with
      | [ ampl; freq ] -> Wave.square (value ampl) (value freq)
      | _ -> fail "SQUARE expects (ampl freq)")
  | [ kw; v ] when String.uppercase_ascii kw = "DC" -> Wave.Dc (value v)
  | [ v ] -> Wave.Dc (value v)
  | _ -> fail "unrecognized source specification"

let parse_params ?(params = no_params) lineno tokens =
  List.map
    (fun tok ->
      match String.index_opt tok '=' with
      | Some i ->
          ( String.uppercase_ascii (String.sub tok 0 i),
            parse_value ~lineno ~params
              (String.sub tok (i + 1) (String.length tok - i - 1)) )
      | None -> raise (Parse_error (lineno, "expected NAME=value, got " ^ tok)))
    tokens

(* split a NAME=value token; [what] names the construct for the error *)
let split_binding lineno ~what tok =
  match String.index_opt tok '=' with
  | Some i ->
      ( String.uppercase_ascii (String.sub tok 0 i),
        String.sub tok (i + 1) (String.length tok - i - 1) )
  | None ->
      raise (Parse_error (lineno, "expected NAME=value in " ^ what ^ ", got " ^ tok))

let parse_string_located ?(overrides = []) text =
  let nl = Netlist.create () in
  let directives = ref [] in
  let lines = String.split_on_char '\n' text in
  (* .param environment. External overrides (sweep points, corners) win
     over the deck's own definitions; usage is tracked for the lint
     unused-parameter check. *)
  let defs = Hashtbl.create 8 in
  let overridden = Hashtbl.create 8 in
  let used = Hashtbl.create 8 in
  List.iter
    (fun (name, v) ->
      let name = String.uppercase_ascii name in
      Hashtbl.replace defs name v;
      Hashtbl.replace overridden name ())
    overrides;
  let lookup name =
    match Hashtbl.find_opt defs name with
    | Some v ->
        Hashtbl.replace used name ();
        Some v
    | None -> None
  in
  (* pre-pass: collect every .param so device cards may reference a
     parameter defined later in the deck; .param values themselves may
     only reference parameters already defined (clear failure otherwise) *)
  List.iteri
    (fun i line ->
      let lineno = i + 1 in
      let line = String.trim line in
      (* only a line opening with '.' can be a .param: skip tokenizing
         every device card twice *)
      if line <> "" && line.[0] = '.' then
        match tokenize line with
        | head :: rest when String.lowercase_ascii head = ".param" ->
            if rest = [] then
              raise (Parse_error (lineno, ".param expects NAME=value definitions"));
            List.iter
              (fun tok ->
                let name, raw = split_binding lineno ~what:".param" tok in
                let v = parse_value ~lineno ~params:lookup raw in
                if not (Hashtbl.mem overridden name) then Hashtbl.replace defs name v)
              rest
        | _ -> ())
    lines;
  List.iteri
    (fun i line ->
      let lineno = i + 1 in
      let line = String.trim line in
      if line = "" || line.[0] = '*' then ()
      else begin
        let tokens = tokenize line in
        match tokens with
        | [] -> ()
        | head :: rest -> begin
            let fail msg = raise (Parse_error (lineno, msg)) in
            let value = parse_value ~lineno ~params:lookup in
            let directive d = directives := (lineno, d) :: !directives in
            let upper = String.uppercase_ascii head in
            if upper.[0] = '.' then begin
              match (String.lowercase_ascii head, rest) with
              | ".end", _ -> ()
              | ".param", binds ->
                  List.iter
                    (fun tok ->
                      let name, _ = split_binding lineno ~what:".param" tok in
                      directive
                        (Param { name; value = Hashtbl.find defs name; used = false }))
                    binds
              | ".dc", _ -> directive Dc_op
              | ".tran", [ tstop; dt ] ->
                  directive (Tran { t_stop = value tstop; dt = value dt })
              | ".ac", [ f1; f2 ] ->
                  directive (Ac_sweep { f_start = value f1; f_stop = value f2 })
              | ".noise", [ f1; f2 ] ->
                  directive (Noise_sweep { f_start = value f1; f_stop = value f2 })
              | ".hb", [ h ] -> directive (Hb { harmonics = int_of_float (value h) })
              | ".print", nodes -> directive (Print nodes)
              | d, _ -> fail ("unknown or malformed directive " ^ d)
            end
            else begin
              let origin = lineno in
              match (upper.[0], rest) with
              | 'R', [ p; n; v ] -> Netlist.resistor nl ~origin head p n (value v)
              | 'C', [ p; n; v ] -> Netlist.capacitor nl ~origin head p n (value v)
              | 'L', [ p; n; v ] -> Netlist.inductor nl ~origin head p n (value v)
              | 'V', p :: n :: src ->
                  Netlist.vsource nl ~origin head p n
                    (parse_source ~params:lookup lineno src)
              | 'I', p :: n :: src ->
                  Netlist.isource nl ~origin head p n
                    (parse_source ~params:lookup lineno src)
              | 'G', [ p; n; cp; cn; gm ] ->
                  Netlist.vccs nl ~origin head p n cp cn (value gm)
              | 'D', p :: n :: params ->
                  let ps = parse_params ~params:lookup lineno params in
                  let get key default =
                    match List.assoc_opt key ps with Some v -> v | None -> default
                  in
                  Netlist.diode nl ~origin head p n ~is:(get "IS" 1e-14)
                    ~nvt:(get "NVT" 0.02585) ~cj:(get "CJ" 0.0) ()
              | 'N', p :: n :: params ->
                  let ps = parse_params ~params:lookup lineno params in
                  let get key default =
                    match List.assoc_opt key ps with Some v -> v | None -> default
                  in
                  Netlist.noise_current nl ~origin head p n ~white:(get "WHITE" 1e-22)
                    ~flicker_corner:(get "FC" 0.0)
              | 'M', d :: g :: s :: params ->
                  let ps = parse_params ~params:lookup lineno params in
                  let get key default =
                    match List.assoc_opt key ps with Some v -> v | None -> default
                  in
                  Netlist.mosfet nl ~origin head ~d ~g ~s ~kp:(get "KP" 2e-4)
                    ~vth:(get "VTH" 0.5) ~lambda:(get "LAMBDA" 0.01)
                    ~cgs:(get "CGS" 1e-15) ~cgd:(get "CGD" 1e-16) ()
              | _ -> fail ("unrecognized card: " ^ line)
            end
          end
      end)
    lines;
  let located =
    List.rev_map
      (fun (ln, d) ->
        match d with
        | Param p -> (ln, Param { p with used = Hashtbl.mem used p.name })
        | d -> (ln, d))
      !directives
  in
  (nl, located)

let parse_string ?overrides text =
  let nl, located = parse_string_located ?overrides text in
  (nl, List.map snd located)

let read_file path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  text

let parse_file_located ?overrides path = parse_string_located ?overrides (read_file path)
let parse_file ?overrides path = parse_string ?overrides (read_file path)
