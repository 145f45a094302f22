(* Schema validator for the benchmark JSON artifacts: every key emitted
   into a BENCH_*.json file must be documented in the matching
   [{2 BENCH_*.json}] section of doc/bench_format.mld, where field names
   appear as bracketed [field] inline code.  A documented name may start
   with [*] to act as a suffix wildcard ([*_wall_s] covers
   [serial_wall_s], [off_wall_s], ...).  The check is one-directional —
   prose brackets that are not JSON keys are ignored — so adding a field
   to an emitter without documenting it fails, while documentation can
   describe more than any single record carries.

   Usage: check_bench [--require f1,f2,...] FORMAT.mld FILE.json[=SECTION]...

   SECTION defaults to the basename of FILE.json; passing an explicit
   section maps an artifact that shares a record shape (a truncated copy
   of BENCH_cube.json, say) onto the section that documents it.

   --require lists fields every checked artifact must carry (in at least
   one record); it fails an emitter that silently stops writing a field
   the regression gate depends on — e.g. the GC gauges. *)

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

(* A documentable field name: lowercase identifier characters, optionally
   led by the [*] wildcard.  Filters out module paths, section names with
   dashes, and prose brackets. *)
let is_field_token t =
  t <> ""
  && String.exists (function 'a' .. 'z' -> true | _ -> false) t
  && String.for_all
       (function 'a' .. 'z' | '0' .. '9' | '_' | '*' -> true | _ -> false)
       t

(* The mld's documented-field lists, one per "{2 BENCH_*.json}" heading:
   section name -> bracketed field tokens appearing before the next
   heading.  Only the first whitespace-separated word of each bracket is
   considered, so "[workload = "blocking"]" documents "workload". *)
let parse_sections mld =
  let sections = ref [] in
  let current = ref None in
  let flush () =
    match !current with
    | Some (name, fields) -> sections := (name, List.rev fields) :: !sections
    | None -> ()
  in
  let lines = String.split_on_char '\n' mld in
  List.iter
    (fun line ->
      let line = String.trim line in
      let is_heading p = String.length line > String.length p
                         && String.sub line 0 (String.length p) = p in
      if is_heading "{2 " || is_heading "{1 " || is_heading "{0 " then begin
        flush ();
        current := None;
        if is_heading "{2 " then begin
          let body = String.sub line 3 (String.length line - 3) in
          let name =
            match String.index_opt body '}' with
            | Some i -> String.sub body 0 i
            | None -> body
          in
          let name = String.trim name in
          if String.length name >= 6 && String.sub name 0 6 = "BENCH_" then
            current := Some (name, [])
        end
      end
      else
        match !current with
        | None -> ()
        | Some (name, fields) ->
            let acc = ref fields in
            let i = ref 0 in
            let n = String.length line in
            while !i < n do
              if line.[!i] = '[' then begin
                let j = ref (!i + 1) in
                while !j < n && line.[!j] <> ']' do
                  incr j
                done;
                if !j < n then begin
                  let inner = String.sub line (!i + 1) (!j - !i - 1) in
                  let first =
                    match String.index_opt inner ' ' with
                    | Some k -> String.sub inner 0 k
                    | None -> inner
                  in
                  if is_field_token first then acc := first :: !acc;
                  i := !j
                end
                else i := n
              end;
              incr i
            done;
            current := Some (name, !acc))
    lines;
  flush ();
  !sections

module J = Ll_telemetry.Trace_check

(* Every object key in a parsed artifact, first occurrence order. *)
let json_keys json =
  let keys = ref [] in
  let rec walk = function
    | J.Obj fields ->
        List.iter
          (fun (k, v) ->
            if not (List.mem k !keys) then keys := k :: !keys;
            walk v)
          fields
    | J.Arr items -> List.iter walk items
    | J.Null | J.Bool _ | J.Num _ | J.Str _ -> ()
  in
  walk json;
  List.rev !keys

let matches pattern key =
  pattern = key
  || String.length pattern > 1
     && pattern.[0] = '*'
     &&
     let suffix = String.sub pattern 1 (String.length pattern - 1) in
     let ls = String.length suffix and lk = String.length key in
     lk >= ls && String.sub key (lk - ls) ls = suffix

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let required = ref [] in
  let rec strip_opts = function
    | "--require" :: v :: rest ->
        required := !required @ String.split_on_char ',' v;
        strip_opts rest
    | args -> args
  in
  let args = strip_opts args in
  match args with
  | [] | [ _ ] ->
      prerr_endline
        "usage: check_bench [--require f1,f2,...] FORMAT.mld FILE.json[=SECTION]...";
      exit 2
  | mld_path :: files ->
      let sections = parse_sections (read_file mld_path) in
      let errors = ref [] in
      let err fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
      let checked = ref 0 in
      List.iter
        (fun spec ->
          let path, section =
            match String.index_opt spec '=' with
            | Some i ->
                ( String.sub spec 0 i,
                  String.sub spec (i + 1) (String.length spec - i - 1) )
            | None -> (spec, Filename.basename spec)
          in
          match List.assoc_opt section sections with
          | None -> err "%s: no {2 %s} section in %s" path section mld_path
          | Some [] -> err "%s: section {2 %s} documents no fields" path section
          | Some fields -> (
              match json_keys (J.parse_json (read_file path)) with
              | exception J.Parse_error msg -> err "%s: malformed JSON: %s" path msg
              | exception Sys_error msg -> err "%s" msg
              | [] -> err "%s: no JSON keys found" path
              | keys ->
                  List.iter
                    (fun k ->
                      incr checked;
                      if not (List.exists (fun p -> matches p k) fields) then
                        err "%s: key %S not documented under {2 %s} in %s" path k
                          section mld_path)
                    keys;
                  List.iter
                    (fun r ->
                      if not (List.mem r keys) then
                        err "%s: required key %S missing" path r)
                    !required))
        files;
      if !errors = [] then
        Printf.printf "check_bench: %d file(s), %d key(s) OK\n" (List.length files)
          !checked
      else begin
        List.iter prerr_endline (List.rev !errors);
        exit 1
      end
