(** Exporters for {!Telemetry.snapshot}.

    Chrome [trace_event] JSON for humans (load in
    {{:https://ui.perfetto.dev}Perfetto} or [about:tracing]), the
    Prometheus text exposition for scrapers, the live stream's JSON lines
    for scripts, and a text summary for terminals and the CLI's
    [--metrics] flag.  Every JSON record is a {!Trace_check.json} value
    printed by {!Trace_check.to_line}, so strings are escaped and numbers
    spelt one way everywhere (integers below 2{^53} exactly, any other
    number in the shortest text that reads back the same).  File writers
    go through {!Ll_util.Fileio.write_atomic}, so an interrupted run
    never leaves a truncated artifact. *)

val chrome_trace : Buffer.t -> Telemetry.snapshot -> unit
(** One JSON object: [{"traceEvents": [...], "displayTimeUnit": ...,
    "otherData": {counters, gauges, drop counts}}], one event per line.
    Span B/E pairs become [ph:"B"]/[ph:"E"] events; instants and log
    lines [ph:"i"].  Each telemetry domain is a separate named track
    ([tid]). *)

val chrome_trace_string : Telemetry.snapshot -> string

val write_chrome_trace : string -> Telemetry.snapshot -> unit
(** Atomic write of {!chrome_trace_string} to a path. *)

(** {1 Prometheus text exposition}

    The scrape format ({e text/plain; version=0.0.4}): [# TYPE] comment
    then samples, histograms with cumulative [le]-labelled buckets plus
    [_sum]/[_count].  Metric names are sanitized ([attack.dips] becomes
    [ll_attack_dips]). *)

val prom_name : string -> string

val prometheus : Buffer.t -> Telemetry.snapshot -> unit

val prometheus_string : Telemetry.snapshot -> string

val write_prometheus : string -> Telemetry.snapshot -> unit
(** Atomic write — a scraper watching the path never sees a torn file. *)

(** {1 Live JSONL stream records}

    The line protocol of the CLI's [--stream] mode (and the future
    [logiclockd] event feed): one [meta] line, then one [delta] line per
    {!Live} sample; the attack layer appends [progress] lines.
    {!Trace_check.validate_stream} validates a captured stream. *)

val stream_meta_line : ?interval_s:float -> unit -> string

val stream_delta_line : Live.sample -> string

val drop_warning : Telemetry.snapshot -> string option
(** A one-line warning naming the domains that lost ring events, or
    [None] when [dropped_events = 0]. *)

val summary : Telemetry.snapshot -> string
(** Compact human-readable rollup: counters, gauges, histogram means and
    approximate quantiles, and per-name span totals. *)
