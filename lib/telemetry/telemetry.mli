(** Low-overhead, domain-safe observability for the attack stack.

    Three instrument families share one per-domain event substrate:

    - {b Spans} — hierarchical begin/end intervals with monotonic
      timestamps ({!Ll_util.Timer.monotonic_ns}).  Strictly nested per
      domain; {!span_end} on an empty stack is counted, never raised.
    - {b Metrics} — named counters, gauges and fixed-bucket histograms,
      aggregated per domain and merged at {!snapshot} (counters and
      histogram buckets sum; the last gauge [set] across all domains
      wins).
    - {b Event trace} — every span boundary, instant and log line lands in
      a per-domain ring buffer.  Each ring has a single writer (its
      domain), so recording takes no lock; wraparound overwrites the
      oldest events and is reported as [dropped_events].

    {b Overhead.} When disabled (the default) every operation is one
    atomic-flag load and a branch — no clock read, no allocation, no
    domain-local-storage access.  Instrumented code must not change
    behaviour based on telemetry: the serial/parallel byte-identical
    determinism guarantees and pinned golden DIP sequences hold with
    tracing on or off.

    {b Quiescence.} {!snapshot} and {!reset} read or clear other domains'
    states without synchronizing with their writers; call them while
    instrumented work is quiescent (e.g. after joining pool tasks) for
    exact numbers. *)

val enabled : unit -> bool

val enable : ?ring_capacity:int -> unit -> unit
(** Clears all recorded data ({!reset}) and turns collection on.
    [ring_capacity] (default 32768) sizes each domain's event ring. *)

val disable : unit -> unit
(** Turns collection off; recorded data stays readable via {!snapshot}. *)

val reset : unit -> unit
(** Clears events, metric values, span stacks and drop counters on every
    domain.  The metric registry (names, bucket layouts) is preserved. *)

val now_ns : unit -> int
(** The telemetry clock: monotonic nanoseconds. *)

(** {1 Spans and instants} *)

val span_begin : ?a0:int -> ?a1:int -> ?note:string -> string -> unit
(** Open a span on the calling domain.  [a0]/[a1] are free integer
    arguments (e.g. DIP index, cone size); [note] a free string tag. *)

val span_end : ?v:int -> ?note:string -> unit -> unit
(** Close the innermost span.  [v] (default: the span's [a0]) is the
    span's result value — its E event carries [(duration_ns, v)], so a
    span survives ring wraparound of its B event.  On an empty stack the
    call is a counted no-op ([unbalanced_span_ends]). *)

val with_span : ?a0:int -> ?a1:int -> ?note:string -> ?v:int -> string -> (unit -> 'a) -> 'a
(** [with_span name f] brackets [f] in a span (closed on exception too). *)

val timed_span : ?a0:int -> ?v:int -> ?note:string -> t0_ns:int -> string -> unit
(** Emit a complete span after the fact, backdating its begin to [t0_ns]
    (e.g. idle time measured around a condition-variable wait). *)

val instant : ?a0:int -> ?a1:int -> ?note:string -> string -> unit
(** A zero-duration event (e.g. a steal, a restart). *)

(** {1 Metrics} *)

module Metric : sig
  type counter

  type gauge

  type histogram

  val counter : string -> counter
  (** Intern a counter by name (idempotent; callable at module init,
      independent of {!enabled}). *)

  val gauge : string -> gauge

  val histogram : ?buckets:float array -> string -> histogram
  (** [buckets] are increasing upper bounds; observation [v] lands in the
      first bucket with [v <= bound], or in the implicit overflow bucket.
      Default: {!default_time_buckets}.  The first registration of a name
      fixes its bucket layout. *)

  val default_time_buckets : float array
  (** Log-spaced seconds from 1µs to 100s. *)

  val add : counter -> int -> unit

  val incr : counter -> unit

  val set : gauge -> float -> unit

  val observe : histogram -> float -> unit
end

(** {1 Event log} *)

val log_line : string -> unit
(** Record one free-text line (kind [3]) in the calling domain's trace;
    a no-op while telemetry is disabled, so callers that format lines
    guard the formatting with {!enabled}.  The SAT attack logs one
    ["iter N: dip=... response=..."] line per DIP. *)

(** {1 Snapshot} *)

type event = {
  er_domain : int;  (** telemetry track id (dense, one per domain seen) *)
  er_kind : int;  (** 0 begin, 1 end, 2 instant, 3 log *)
  er_name : string;
  er_ts_ns : int;
  er_a0 : int;  (** for end events: duration in ns *)
  er_a1 : int;  (** for end events: the span's result value [v] *)
  er_note : string;
}

type hist = {
  h_buckets : float array;
  h_counts : int array;  (** length = buckets + 1 (overflow last) *)
  h_count : int;
  h_sum : float;
}

type snapshot = {
  taken_at : float;  (** Unix epoch — the one wall-clock timestamp *)
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * hist) list;
  events : event array;  (** merged across domains, time-sorted *)
  domains : int;
  dropped_events : int;
  dropped_by_domain : (int * int) list;
      (** per-track drop counts, [(track id, drops)] with [drops > 0],
          sorted by track id — the detail behind [dropped_events] *)
  unbalanced_span_ends : int;
}

val snapshot : unit -> snapshot

type span = {
  sp_name : string;
  sp_domain : int;
  sp_start_ns : int;
  sp_dur_ns : int;
  sp_a0 : int;  (** begin-side [a0], or [-1] when the B event was dropped *)
  sp_a1 : int;
  sp_v : int;
  sp_depth : int;  (** nesting depth within its domain *)
  sp_note : string;
}

val spans : snapshot -> span list
(** Spans reconstructed from matched B/E events, sorted by start time. *)

val kind_begin : int

val kind_end : int

val kind_instant : int

val kind_log : int
