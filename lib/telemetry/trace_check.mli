(** Structural validation of Chrome [trace_event] JSON files.

    Backs the [trace-smoke] CI alias: parses the trace produced by
    {!Export.write_chrome_trace} with a small built-in JSON parser and
    checks that per-track span events are balanced, matched by name, and
    time-ordered.  The same JSON value type is what the BENCH_*.json
    emitters print their records with ({!to_string}) and what every
    telemetry record is printed with ({!to_line}): Chrome trace events,
    the live stream's [meta], [delta] and [progress] lines. *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Parse_error of string

val parse_json : string -> json
(** Raises {!Parse_error} on malformed input or trailing garbage. *)

val member : string -> json -> json option

val to_string : json -> string
(** The inverse of {!parse_json}: [parse_json (to_string v) = v].  An
    integral [Num] below 2{^53} in magnitude prints as an integer, any
    other [Num] in its shortest round-trip form.  Objects print one field
    per line, arrays of objects one element per line, other arrays
    inline; no trailing newline.  Raises [Invalid_argument] naming the
    key on a non-finite number or a key repeated within one [Obj]. *)

val to_line : json -> string
(** {!to_string}'s compact twin: the same string escaping, number
    spelling and checks, but the whole value on one line with no spaces
    and no trailing newline, so [parse_json (to_line v) = v]. *)

type report = {
  total_events : int;
  begin_events : int;
  end_events : int;
  instant_events : int;
  meta_events : int;
  tracks : int;  (** distinct [tid]s carrying non-metadata events *)
  max_depth : int;  (** deepest span nesting observed on any track *)
  errors : string list;
}

val validate_chrome_trace : string -> (report, string list) result
(** Checks, per [tid]: every [E] matches the innermost open [B] by name,
    no [E] on an empty stack, no unclosed span at the end, and timestamps
    are monotone.  [Error] lists every violation (or the parse error). *)

val validate_chrome_trace_file : string -> (report, string list) result

(** {1 Live stream validation}

    The line protocol of the CLI's [--stream] mode: a [meta] record
    first, then [delta] records (from {!Export.stream_delta_line}) and
    [progress] records (from the attack layer). *)

type stream_report = {
  sr_lines : int;  (** non-empty lines *)
  sr_meta : int;
  sr_deltas : int;
  sr_progress : int;
  sr_errors : string list;
}

val validate_stream : string -> (stream_report, string list) result
(** Checks: every line parses as a JSON object of a known record type
    carrying its documented fields ([meta]: [version], [t_ns]; [delta]:
    [seq], [t_ns], [dt_s], [dropped_delta], [dropped_total] and the
    [counters], [gauges] and [hist_deltas] objects; [progress]: [t_ns],
    [dips] and the [cubes] object), exactly one [meta] record and it
    comes first, [delta] [seq]/[t_ns] strictly increase, [progress]
    [t_ns] and [dips] never regress. *)

val validate_stream_file : string -> (stream_report, string list) result
