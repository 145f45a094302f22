(** Live sampling over the telemetry substrate.

    {!Telemetry} is post-mortem by itself: one {!Telemetry.snapshot} at
    exit.  This module adds the streaming half — a background sampler on
    its own domain takes periodic snapshots, diffs them against the
    previous sample (counter deltas and rates, histogram deltas, latest
    gauges, ring-drop deltas) and fans the result to subscribers.  It is
    the in-process engine behind the CLI's [--watch] / [--stream] /
    [--prom] modes and the front door a future [logiclockd] daemon
    reuses.

    {b Determinism.}  Sampling is read-only with respect to instrumented
    code: it never blocks a writer and never changes attack behaviour —
    golden DIP sequences are byte-identical with the sampler on or off.
    Snapshots taken while writers are active are best-effort, exactly as
    documented on {!Telemetry.snapshot}.

    {b GC gauges.}  Every sample refreshes [gc.major_collections],
    [gc.heap_words] and [gc.minor_words_per_s].  The first two describe
    the shared major heap; minor words are per-domain in OCaml 5, so the
    rate gauge only covers the sampling domain unless work domains
    publish their own. *)

type sample = {
  s_seq : int;  (** 1-based, strictly increasing per cursor *)
  s_t_ns : int;  (** monotonic clock, strictly increasing *)
  s_dt_s : float;  (** seconds since the previous sample *)
  s_snap : Telemetry.snapshot;  (** the full snapshot behind the deltas *)
  s_counters : (string * int * float) list;  (** name, delta, rate per second *)
  s_hists : (string * int * float) list;  (** name, count delta, sum delta *)
  s_gauges : (string * float) list;  (** latest values (snapshot merge order) *)
  s_dropped_delta : int;  (** ring events lost since the previous sample *)
}

(** {1 Delta cursor}

    The pure sampling engine: a cursor remembers the previous totals and
    [sample] diffs a fresh snapshot against them.  The background
    sampler drives one cursor internally; tests drive their own for
    deterministic delta checks without any timing. *)

type cursor

val cursor : unit -> cursor
(** A new cursor baselined on the current totals: the first {!sample}
    reports deltas relative to now, not to process start. *)

val sample : cursor -> sample
(** Take a snapshot, diff against the cursor and advance it. *)

(** {1 Background sampler}

    A process-wide singleton.  [start] and [stop] are both idempotent;
    [stop] joins the sampler domain after it publishes one final flush
    sample, so even a start/stop pair with no full interval in between
    delivers at least one sample to every subscriber. *)

val default_interval_s : float
(** 0.25 s. *)

val start : ?interval_s:float -> unit -> unit

val stop : unit -> unit

val running : unit -> bool

val interval_s : unit -> float
(** The interval passed to the most recent {!start}. *)

val subscribe : (sample -> unit) -> int
(** Register a subscriber; returns its id for {!unsubscribe}.
    Subscribers run on the sampler domain in registration order; an
    exception is counted ([live.subscriber_errors]), reported on stderr
    and does not stop the sampler. *)

val unsubscribe : int -> unit

(** {1 Stream sinks} *)

type sink = { sink_write : string -> unit; sink_close : unit -> unit }

val open_sink : string -> sink
(** Resolve a stream destination: ["-"] appends lines to stdout (left
    open), ["unix:PATH"] connects a Unix-domain stream socket, anything
    else creates/truncates a file.  Each [sink_write] appends one line
    (adding the newline) and flushes.  Raises [Sys_error] naming the
    path for any destination it cannot open, a socket that cannot be
    created or connected included. *)
