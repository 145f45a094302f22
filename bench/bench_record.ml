(* The one writer behind every BENCH_*.json artifact.

   An emitter builds each record as a list of (key, JSON value) fields
   and hands the whole list to [write], which prints it with
   [Trace_check.to_string], re-parses the text and only then replaces
   the file.  Non-finite numbers and repeated keys fail the write, so a
   broken record never reaches a committed baseline. *)

module J = Ll_telemetry.Trace_check

type record = (string * J.json) list

let str s = J.Str s

let bool b = J.Bool b

let int n = J.Num (float_of_int n)

(* A float rounded to [dp] decimals, exactly as [Printf "%.*f"] would
   write it.  [bench_diff] compares non-noisy fields exactly, so a field
   keeps the decimal count its committed baseline was written with. *)
let fixed dp x = J.Num (float_of_string (Printf.sprintf "%.*f" dp x))

let ints a = J.Arr (Array.to_list (Array.map int a))

let fixeds dp a = J.Arr (Array.to_list (Array.map (fixed dp) a))

(* Writes [records] (in order) as one JSON array through the atomic
   temp-file + rename path, so an interrupted run never leaves a
   truncated artifact.  Exits 1 without writing when the records do not
   print as JSON that parses back to themselves.  No records, no file. *)
let write path (records : record list) =
  if records <> [] then begin
    let json = J.Arr (List.map (fun fields -> J.Obj fields) records) in
    let text =
      match J.to_string json with
      | text when J.parse_json text = json -> Ok (text ^ "\n")
      | _ -> Error "printed text does not parse back to the records"
      | exception Invalid_argument msg -> Error msg
      | exception J.Parse_error msg -> Error msg
    in
    match text with
    | Error msg ->
        Printf.eprintf "%s: malformed JSON emitted: %s\n" path msg;
        exit 1
    | Ok text ->
        Ll_util.Fileio.write_atomic_string path text;
        Printf.printf "\nwrote %s (%d record(s))\n" path (List.length records)
  end
