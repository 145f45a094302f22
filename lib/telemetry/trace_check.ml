(* Minimal JSON parser + structural validation of Chrome trace files.
   Deliberately dependency-free: this backs the trace-smoke CI alias, so
   it must build with the stock toolchain. *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Parse_error of string

let parse_error fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

type cursor = { src : string; mutable pos : int }

let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let rec skip_ws c =
  match peek c with
  | Some (' ' | '\t' | '\n' | '\r') ->
    advance c;
    skip_ws c
  | _ -> ()

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | Some x -> parse_error "at %d: expected %c, got %c" c.pos ch x
  | None -> parse_error "at %d: expected %c, got end of input" c.pos ch

let expect_lit c lit v =
  let n = String.length lit in
  if c.pos + n <= String.length c.src && String.sub c.src c.pos n = lit then begin
    c.pos <- c.pos + n;
    v
  end
  else parse_error "at %d: expected %s" c.pos lit

let parse_string_body c =
  (* [c] sits just past the opening quote. *)
  let b = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> parse_error "unterminated string at %d" c.pos
    | Some '"' -> advance c
    | Some '\\' -> (
      advance c;
      match peek c with
      | Some 'n' -> advance c; Buffer.add_char b '\n'; go ()
      | Some 't' -> advance c; Buffer.add_char b '\t'; go ()
      | Some 'r' -> advance c; Buffer.add_char b '\r'; go ()
      | Some 'b' -> advance c; Buffer.add_char b '\b'; go ()
      | Some 'f' -> advance c; Buffer.add_char b '\012'; go ()
      | Some '"' -> advance c; Buffer.add_char b '"'; go ()
      | Some '\\' -> advance c; Buffer.add_char b '\\'; go ()
      | Some '/' -> advance c; Buffer.add_char b '/'; go ()
      | Some 'u' ->
        advance c;
        if c.pos + 4 > String.length c.src then parse_error "bad \\u escape at %d" c.pos;
        let hex = String.sub c.src c.pos 4 in
        let code =
          try int_of_string ("0x" ^ hex)
          with _ -> parse_error "bad \\u escape at %d" c.pos
        in
        c.pos <- c.pos + 4;
        (* Re-encode as UTF-8; surrogate pairs are not needed for our
           own traces but handle the BMP properly. *)
        if code < 0x80 then Buffer.add_char b (Char.chr code)
        else if code < 0x800 then begin
          Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
          Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
        end
        else begin
          Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
          Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
          Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
        end;
        go ()
      | _ -> parse_error "bad escape at %d" c.pos)
    | Some ch ->
      advance c;
      Buffer.add_char b ch;
      go ()
  in
  go ();
  Buffer.contents b

let parse_number c =
  let start = c.pos in
  let is_num_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while (match peek c with Some ch -> is_num_char ch | None -> false) do
    advance c
  done;
  let s = String.sub c.src start (c.pos - start) in
  match float_of_string_opt s with
  | Some f -> Num f
  | None -> parse_error "bad number %S at %d" s start

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> parse_error "unexpected end of input at %d" c.pos
  | Some '{' ->
    advance c;
    skip_ws c;
    if peek c = Some '}' then begin
      advance c;
      Obj []
    end
    else begin
      let rec members acc =
        skip_ws c;
        expect c '"';
        let key = parse_string_body c in
        skip_ws c;
        expect c ':';
        let v = parse_value c in
        skip_ws c;
        match peek c with
        | Some ',' ->
          advance c;
          members ((key, v) :: acc)
        | Some '}' ->
          advance c;
          Obj (List.rev ((key, v) :: acc))
        | _ -> parse_error "at %d: expected , or } in object" c.pos
      in
      members []
    end
  | Some '[' ->
    advance c;
    skip_ws c;
    if peek c = Some ']' then begin
      advance c;
      Arr []
    end
    else begin
      let rec elems acc =
        let v = parse_value c in
        skip_ws c;
        match peek c with
        | Some ',' ->
          advance c;
          elems (v :: acc)
        | Some ']' ->
          advance c;
          Arr (List.rev (v :: acc))
        | _ -> parse_error "at %d: expected , or ] in array" c.pos
      in
      elems []
    end
  | Some '"' ->
    advance c;
    Str (parse_string_body c)
  | Some 't' -> expect_lit c "true" (Bool true)
  | Some 'f' -> expect_lit c "false" (Bool false)
  | Some 'n' -> expect_lit c "null" Null
  | Some _ -> parse_number c

let parse_json s =
  let c = { src = s; pos = 0 } in
  let v = parse_value c in
  skip_ws c;
  if c.pos <> String.length s then parse_error "trailing garbage at %d" c.pos;
  v

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_string_opt = function Some (Str s) -> Some s | _ -> None

let to_num_opt = function Some (Num f) -> Some f | _ -> None

(* ------------------------------------------------------------------ *)
(* Printer (the inverse of [parse_json])                               *)
(* ------------------------------------------------------------------ *)

(* JSON string escaping (the OCaml %S escapes control characters in a
   non-JSON decimal form, so roll our own). *)
let add_quoted b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

(* Integral values below 2^53 are exact doubles and print as integers;
   any other value takes the shorter of %.15g / %.17g that reads back to
   the same double. *)
let number_text x =
  if Float.is_integer x && Float.abs x < 0x1p53 then Printf.sprintf "%.0f" x
  else
    let s = Printf.sprintf "%.15g" x in
    if float_of_string s = x then s else Printf.sprintf "%.17g" x

(* One printer behind both layouts.  [pretty] prints objects one field
   per line, arrays whose elements are all objects one element per line
   and every other array inline — the layout of the BENCH_*.json
   artifacts, so regenerated files diff line by line.  Otherwise the
   whole value goes on one line without spaces. *)
let print ~fn ~pretty v =
  let invalid fmt =
    Printf.ksprintf (fun s -> invalid_arg (Printf.sprintf "Trace_check.%s: %s" fn s)) fmt
  in
  let b = Buffer.create (if pretty then 4096 else 256) in
  let newline indent =
    if pretty then begin
      Buffer.add_char b '\n';
      Buffer.add_string b (String.make indent ' ')
    end
  in
  let block indent items print_item =
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_char b ',';
        newline (indent + 2);
        print_item item)
      items;
    newline indent
  in
  let rec value ~key indent = function
    | Null -> Buffer.add_string b "null"
    | Bool x -> Buffer.add_string b (string_of_bool x)
    | Num x ->
      if not (Float.is_finite x) then invalid "key %S holds %s" key (string_of_float x);
      Buffer.add_string b (number_text x)
    | Str s -> add_quoted b s
    | Obj [] -> Buffer.add_string b "{}"
    | Obj fields ->
      let seen = Hashtbl.create 32 in
      Buffer.add_char b '{';
      block indent fields (fun (k, v) ->
          if Hashtbl.mem seen k then invalid "duplicate key %S" k;
          Hashtbl.add seen k ();
          add_quoted b k;
          Buffer.add_string b (if pretty then ": " else ":");
          value ~key:k (indent + 2) v);
      Buffer.add_char b '}'
    | Arr (_ :: _ as items) when List.for_all (function Obj _ -> true | _ -> false) items ->
      Buffer.add_char b '[';
      block indent items (value ~key (indent + 2));
      Buffer.add_char b ']'
    | Arr items ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_string b (if pretty then ", " else ",");
          value ~key indent v)
        items;
      Buffer.add_char b ']'
  in
  value ~key:"" 0 v;
  Buffer.contents b

let to_string v = print ~fn:"to_string" ~pretty:true v

let to_line v = print ~fn:"to_line" ~pretty:false v

(* ------------------------------------------------------------------ *)
(* Chrome trace validation                                             *)
(* ------------------------------------------------------------------ *)

type report = {
  total_events : int;
  begin_events : int;
  end_events : int;
  instant_events : int;
  meta_events : int;
  tracks : int;
  max_depth : int;
  errors : string list;
}

let validate_chrome_trace contents =
  match parse_json contents with
  | exception Parse_error msg -> Error [ Printf.sprintf "JSON parse error: %s" msg ]
  | json -> (
    match member "traceEvents" json with
    | Some (Arr events) ->
      let errors = ref [] in
      let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
      let begins = ref 0 and ends = ref 0 and instants = ref 0 and metas = ref 0 in
      (* Per-tid span stack of (name, ts); events within a tid must arrive
         time-ordered and properly nested. *)
      let stacks : (int, (string * float) list ref) Hashtbl.t = Hashtbl.create 8 in
      let last_ts : (int, float ref) Hashtbl.t = Hashtbl.create 8 in
      let max_depth = ref 0 in
      List.iteri
        (fun i ev ->
          match member "ph" ev |> to_string_opt with
          | None -> err "event %d: missing ph" i
          | Some "M" -> incr metas
          | Some ph -> (
            let tid =
              match member "tid" ev |> to_num_opt with
              | Some t -> int_of_float t
              | None ->
                err "event %d: missing tid" i;
                -1
            in
            let ts =
              match member "ts" ev |> to_num_opt with
              | Some t -> t
              | None ->
                err "event %d: missing ts" i;
                0.0
            in
            let name =
              match member "name" ev |> to_string_opt with
              | Some n -> n
              | None ->
                err "event %d: missing name" i;
                "?"
            in
            (match Hashtbl.find_opt last_ts tid with
            | Some prev ->
              if ts < !prev then err "event %d (tid %d): timestamp regressed" i tid;
              prev := ts
            | None -> Hashtbl.add last_ts tid (ref ts));
            let stack =
              match Hashtbl.find_opt stacks tid with
              | Some s -> s
              | None ->
                let s = ref [] in
                Hashtbl.add stacks tid s;
                s
            in
            match ph with
            | "B" ->
              incr begins;
              stack := (name, ts) :: !stack;
              if List.length !stack > !max_depth then max_depth := List.length !stack
            | "E" -> (
              incr ends;
              match !stack with
              | [] -> err "event %d (tid %d): E %S with empty span stack" i tid name
              | (top, _) :: rest ->
                if top <> name then
                  err "event %d (tid %d): E %S does not match open span %S" i tid name top;
                stack := rest)
            | "i" | "I" -> incr instants
            | other -> err "event %d: unknown ph %S" i other))
        events;
      Hashtbl.iter
        (fun tid stack ->
          List.iter (fun (name, _) -> err "tid %d: span %S never closed" tid name) !stack)
        stacks;
      let report =
        {
          total_events = List.length events;
          begin_events = !begins;
          end_events = !ends;
          instant_events = !instants;
          meta_events = !metas;
          tracks = Hashtbl.length stacks;
          max_depth = !max_depth;
          errors = List.rev !errors;
        }
      in
      if report.errors = [] then Ok report else Error report.errors
    | Some _ -> Error [ "traceEvents is not an array" ]
    | None -> Error [ "missing traceEvents" ])

let validate_chrome_trace_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let contents = really_input_string ic len in
  close_in ic;
  validate_chrome_trace contents

(* ------------------------------------------------------------------ *)
(* Live JSONL stream validation                                        *)
(* ------------------------------------------------------------------ *)

type stream_report = {
  sr_lines : int;
  sr_meta : int;
  sr_deltas : int;
  sr_progress : int;
  sr_errors : string list;
}

(* A captured [--stream] feed: one JSON object per line.  The first line
   must be a [meta] record; [delta] lines carry strictly increasing
   [seq] and strictly increasing monotonic [t_ns]; [progress] lines
   carry non-decreasing [t_ns] and non-decreasing [dips].  Anything
   malformed, unknown, or time-travelling is an error. *)
let validate_stream contents =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let metas = ref 0 and deltas = ref 0 and progresses = ref 0 and lines = ref 0 in
  let last_seq = ref 0 in
  let last_delta_t = ref min_int in
  let last_progress_t = ref min_int in
  let last_dips = ref 0 in
  let require_num line_no obj key =
    match member key obj |> to_num_opt with
    | Some v -> v
    | None ->
      err "line %d: missing numeric field %S" line_no key;
      0.0
  in
  let require_obj line_no record obj key =
    match member key obj with
    | Some (Obj _) -> ()
    | _ -> err "line %d: %s missing %s object" line_no record key
  in
  let handle line_no line =
    match parse_json line with
    | exception Parse_error msg -> err "line %d: JSON parse error: %s" line_no msg
    | obj -> (
      match member "type" obj |> to_string_opt with
      | None -> err "line %d: missing type" line_no
      | Some "meta" ->
        incr metas;
        if !lines > 1 then err "line %d: meta record not first" line_no;
        ignore (require_num line_no obj "version");
        ignore (require_num line_no obj "t_ns")
      | Some "delta" ->
        incr deltas;
        let seq = int_of_float (require_num line_no obj "seq") in
        let t_ns = int_of_float (require_num line_no obj "t_ns") in
        ignore (require_num line_no obj "dt_s");
        List.iter (require_obj line_no "delta" obj) [ "counters"; "gauges"; "hist_deltas" ];
        ignore (require_num line_no obj "dropped_delta");
        ignore (require_num line_no obj "dropped_total");
        if seq <= !last_seq then
          err "line %d: delta seq %d not increasing (prev %d)" line_no seq !last_seq;
        if t_ns <= !last_delta_t && !last_delta_t <> min_int then
          err "line %d: delta t_ns regressed" line_no;
        last_seq := seq;
        last_delta_t := t_ns
      | Some "progress" ->
        incr progresses;
        let t_ns = int_of_float (require_num line_no obj "t_ns") in
        let dips = int_of_float (require_num line_no obj "dips") in
        require_obj line_no "progress" obj "cubes";
        if t_ns < !last_progress_t then err "line %d: progress t_ns regressed" line_no;
        if dips < !last_dips then
          err "line %d: progress dips regressed (%d after %d)" line_no dips !last_dips;
        last_progress_t := t_ns;
        last_dips := dips
      | Some other -> err "line %d: unknown stream record type %S" line_no other)
  in
  String.split_on_char '\n' contents
  |> List.iter (fun line ->
         if String.trim line <> "" then begin
           incr lines;
           handle !lines line
         end);
  if !lines = 0 then err "empty stream";
  if !metas = 0 then err "no meta record"
  else if !metas > 1 then err "%d meta records (expected 1)" !metas;
  let report =
    {
      sr_lines = !lines;
      sr_meta = !metas;
      sr_deltas = !deltas;
      sr_progress = !progresses;
      sr_errors = List.rev !errors;
    }
  in
  if report.sr_errors = [] then Ok report else Error report.sr_errors

let validate_stream_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let contents = really_input_string ic len in
  close_in ic;
  validate_stream contents
