module Bitvec = Ll_util.Bitvec

exception Parse_error of { line : int; message : string }

let fail line fmt =
  Format.kasprintf (fun message -> raise (Parse_error { line; message })) fmt

let is_key_name name =
  String.length name >= 8 && String.lowercase_ascii (String.sub name 0 8) = "keyinput"

type decl =
  | D_input of string
  | D_output of string
  | D_gate of string * string * string list  (* target, mnemonic, fanin names *)

let strip s = String.trim s

let split_args s =
  if strip s = "" then []
  else String.split_on_char ',' s |> List.map strip

(* Lines look like "INPUT(a)", "OUTPUT(y)" or "y = NAND(a, b)". *)
let parse_line lineno line =
  let line =
    match String.index_opt line '#' with
    | Some i -> String.sub line 0 i
    | None -> line
  in
  let line = strip line in
  if line = "" then None
  else
    let paren_payload keyword =
      let prefix_len = String.length keyword in
      if
        String.length line > prefix_len + 1
        && String.uppercase_ascii (String.sub line 0 prefix_len) = keyword
        && line.[prefix_len] = '('
        && line.[String.length line - 1] = ')'
      then Some (strip (String.sub line (prefix_len + 1) (String.length line - prefix_len - 2)))
      else None
    in
    match paren_payload "INPUT" with
    | Some name -> Some (D_input name)
    | None -> (
        match paren_payload "OUTPUT" with
        | Some name -> Some (D_output name)
        | None -> (
            match String.index_opt line '=' with
            | None -> fail lineno "expected INPUT/OUTPUT/assignment, got %S" line
            | Some eq ->
                let target = strip (String.sub line 0 eq) in
                let rhs = strip (String.sub line (eq + 1) (String.length line - eq - 1)) in
                if target = "" then fail lineno "missing assignment target";
                let lparen =
                  match String.index_opt rhs '(' with
                  | Some i -> i
                  | None -> fail lineno "missing '(' in gate expression %S" rhs
                in
                if rhs.[String.length rhs - 1] <> ')' then
                  fail lineno "missing ')' in gate expression %S" rhs;
                let mnemonic = strip (String.sub rhs 0 lparen) in
                let args =
                  split_args (String.sub rhs (lparen + 1) (String.length rhs - lparen - 2))
                in
                Some (D_gate (target, mnemonic, args))))

let gate_of_mnemonic lineno mnemonic =
  match Gate.of_name mnemonic with
  | Some g -> g
  | None ->
      let upper = String.uppercase_ascii mnemonic in
      if String.length upper > 4 && String.sub upper 0 4 = "LUT_" then
        let bits = String.sub mnemonic 4 (String.length mnemonic - 4) in
        match Bitvec.of_string bits with
        | table -> Gate.Lut table
        | exception Invalid_argument _ -> fail lineno "bad LUT table %S" bits
      else fail lineno "unknown gate %S" mnemonic

let parse_string ?(name = "bench") text =
  let decls =
    String.split_on_char '\n' text
    |> List.mapi (fun i line -> (i + 1, parse_line (i + 1) line))
    |> List.filter_map (fun (i, d) -> Option.map (fun d -> (i, d)) d)
  in
  let inputs = ref [] and outputs = ref [] and gates = Hashtbl.create 64 in
  List.iter
    (fun (lineno, d) ->
      match d with
      | D_input n -> inputs := (lineno, n) :: !inputs
      | D_output n -> outputs := (lineno, n) :: !outputs
      | D_gate (target, mnemonic, args) ->
          if Hashtbl.mem gates target then fail lineno "signal %S defined twice" target;
          Hashtbl.add gates target (lineno, gate_of_mnemonic lineno mnemonic, args))
    decls;
  let inputs = List.rev !inputs and outputs = List.rev !outputs in
  let b = Builder.create ~name () in
  let signals = Hashtbl.create 64 in
  List.iter
    (fun (lineno, n) ->
      if Hashtbl.mem signals n then fail lineno "input %S declared twice" n;
      let s = if is_key_name n then Builder.key_input b n else Builder.input b n in
      Hashtbl.add signals n s)
    inputs;
  (* Depth-first elaboration; [visiting] detects combinational cycles. *)
  let visiting = Hashtbl.create 16 in
  let rec elaborate name =
    match Hashtbl.find_opt signals name with
    | Some s -> s
    | None -> (
        if Hashtbl.mem visiting name then
          raise (Circuit.Ill_formed (Printf.sprintf "combinational cycle through %S" name));
        Hashtbl.add visiting name ();
        match Hashtbl.find_opt gates name with
        | None ->
            raise (Circuit.Ill_formed (Printf.sprintf "undefined signal %S" name))
        | Some (lineno, g, args) ->
            let width = List.length args in
            if not (Gate.arity_ok g width) then fail lineno "gate %S: bad fanin count" name;
            (match g with
            | Gate.Lut _ when width > Gate.max_lut_inputs ->
                fail lineno "gate %S: LUT with %d inputs (at most %d)" name width
                  Gate.max_lut_inputs
            | _ -> ());
            let fanins = Array.of_list (List.map elaborate args) in
            let s = Builder.gate ~name b g fanins in
            Hashtbl.remove visiting name;
            Hashtbl.add signals name s;
            s)
  in
  List.iter
    (fun (lineno, n) ->
      let s =
        try elaborate n
        with Circuit.Ill_formed m -> fail lineno "%s" m
      in
      Builder.output b n s)
    outputs;
  (* Elaborate gates unreachable from outputs too, to preserve the file. *)
  Hashtbl.iter (fun target _ -> ignore (elaborate target)) gates;
  Builder.finish b

let parse_file path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  let name = Filename.remove_extension (Filename.basename path) in
  parse_string ~name text

let to_string c =
  let buf = Buffer.create 4096 in
  (* An output whose name is carried by a *different* node (e.g. after a
     locking pass re-drove an output) forces us to print that node under a
     fresh name, freeing the output name for an alias buffer. *)
  let printed = Array.init (Circuit.num_nodes c) (Circuit.node_name c) in
  let taken = Hashtbl.create (Circuit.num_nodes c) in
  Array.iter (fun name -> Hashtbl.replace taken name ()) printed;
  let by_name = Hashtbl.create (Circuit.num_nodes c) in
  Array.iteri (fun i name -> Hashtbl.replace by_name name i) printed;
  Array.iter
    (fun (name, j) ->
      if printed.(j) <> name then
        match Hashtbl.find_opt by_name name with
        | Some clash ->
            let rec fresh k =
              let candidate = Printf.sprintf "%s$%d" name k in
              if Hashtbl.mem taken candidate then fresh (k + 1) else candidate
            in
            let renamed = fresh 0 in
            Hashtbl.replace taken renamed ();
            printed.(clash) <- renamed
        | None -> ())
    c.Circuit.outputs;
  Buffer.add_string buf (Printf.sprintf "# %s\n" c.Circuit.name);
  Array.iter
    (fun j -> Buffer.add_string buf (Printf.sprintf "INPUT(%s)\n" printed.(j)))
    c.Circuit.inputs;
  Array.iter
    (fun j -> Buffer.add_string buf (Printf.sprintf "INPUT(%s)\n" printed.(j)))
    c.Circuit.keys;
  Array.iter
    (fun (name, _) -> Buffer.add_string buf (Printf.sprintf "OUTPUT(%s)\n" name))
    c.Circuit.outputs;
  (* Constants are emitted as self-XOR / self-XNOR of the first input so that
     plain .bench consumers can read them back. *)
  let const_expr v feed =
    if v then Printf.sprintf "XNOR(%s, %s)" feed feed
    else Printf.sprintf "XOR(%s, %s)" feed feed
  in
  let feed_name =
    if Array.length c.Circuit.inputs > 0 then printed.(c.Circuit.inputs.(0))
    else if Array.length c.Circuit.keys > 0 then printed.(c.Circuit.keys.(0))
    else "no_input"
  in
  Array.iteri
    (fun i nd ->
      match nd with
      | Circuit.Input | Circuit.Key_input -> ()
      | Circuit.Const v ->
          Buffer.add_string buf (Printf.sprintf "%s = %s\n" printed.(i) (const_expr v feed_name))
      | Circuit.Gate (g, fanins) ->
          let args =
            Array.to_list fanins |> List.map (fun j -> printed.(j)) |> String.concat ", "
          in
          Buffer.add_string buf
            (Printf.sprintf "%s = %s(%s)\n" printed.(i) (Gate.name g) args))
    c.Circuit.nodes;
  (* Outputs driven by a differently-named node need an alias buffer. *)
  Array.iter
    (fun (name, j) ->
      if printed.(j) <> name then
        Buffer.add_string buf (Printf.sprintf "%s = BUF(%s)\n" name printed.(j)))
    c.Circuit.outputs;
  Buffer.contents buf

let write_file path c =
  let oc = open_out path in
  output_string oc (to_string c);
  close_out oc
