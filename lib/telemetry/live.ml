module T = Telemetry
module Timer = Ll_util.Timer

let default_interval_s = 0.25

(* GC gauges, refreshed at every sample so allocation trends join the
   metric stream.  heap_words and major_collections describe the shared
   major heap; the minor-allocation rate only counts the domain calling
   [sample] (per-domain minor heaps), so from the background sampler it
   is a best-effort floor — work domains can publish their own rate
   through the same gauge. *)
let g_gc_major = T.Metric.gauge "gc.major_collections"

let g_gc_heap = T.Metric.gauge "gc.heap_words"

let g_gc_minor_rate = T.Metric.gauge "gc.minor_words_per_s"

let m_samples = T.Metric.counter "live.samples"

let m_subscriber_errors = T.Metric.counter "live.subscriber_errors"

type sample = {
  s_seq : int;
  s_t_ns : int;  (* monotonic, strictly increasing across samples *)
  s_dt_s : float;
  s_snap : T.snapshot;
  s_counters : (string * int * float) list;  (* name, delta, rate/s *)
  s_hists : (string * int * float) list;  (* name, count delta, sum delta *)
  s_gauges : (string * float) list;
  s_dropped_delta : int;
}

(* ------------------------------------------------------------------ *)
(* Delta cursor: the pure sampling engine                              *)
(* ------------------------------------------------------------------ *)

(* A cursor remembers the previous sample's totals; [sample] snapshots,
   diffs against them and advances.  The background sampler drives one
   cursor from its own domain; tests drive cursors directly for
   deterministic delta checks. *)
type cursor = {
  mutable c_seq : int;
  mutable c_t_ns : int;
  mutable c_counters : (string * int) list;
  mutable c_hists : (string * (int * float)) list;
  mutable c_dropped : int;
  mutable c_minor_words : float;
}

let cursor () =
  let snap = T.snapshot () in
  {
    c_seq = 0;
    c_t_ns = T.now_ns ();
    c_counters = snap.T.counters;
    c_hists =
      List.map (fun (n, (h : T.hist)) -> (n, (h.T.h_count, h.T.h_sum))) snap.T.histograms;
    c_dropped = snap.T.dropped_events;
    c_minor_words = (Gc.quick_stat ()).Gc.minor_words;
  }

let sample cur =
  let t_ns = T.now_ns () in
  let dt_s = float_of_int (t_ns - cur.c_t_ns) /. 1e9 in
  let dt_div = if dt_s > 0.0 then dt_s else 1e-9 in
  let g = Gc.quick_stat () in
  T.Metric.set g_gc_major (float_of_int g.Gc.major_collections);
  T.Metric.set g_gc_heap (float_of_int g.Gc.heap_words);
  T.Metric.set g_gc_minor_rate ((g.Gc.minor_words -. cur.c_minor_words) /. dt_div);
  T.Metric.incr m_samples;
  let snap = T.snapshot () in
  let counters =
    List.map
      (fun (name, v) ->
        let prev = match List.assoc_opt name cur.c_counters with Some p -> p | None -> 0 in
        (name, v - prev, float_of_int (v - prev) /. dt_div))
      snap.T.counters
  in
  let hists =
    List.map
      (fun (name, (h : T.hist)) ->
        let pc, ps =
          match List.assoc_opt name cur.c_hists with Some p -> p | None -> (0, 0.0)
        in
        (name, h.T.h_count - pc, h.T.h_sum -. ps))
      snap.T.histograms
  in
  cur.c_seq <- cur.c_seq + 1;
  cur.c_t_ns <- t_ns;
  cur.c_counters <- snap.T.counters;
  cur.c_hists <-
    List.map (fun (n, (h : T.hist)) -> (n, (h.T.h_count, h.T.h_sum))) snap.T.histograms;
  let dropped_delta = snap.T.dropped_events - cur.c_dropped in
  cur.c_dropped <- snap.T.dropped_events;
  cur.c_minor_words <- g.Gc.minor_words;
  {
    s_seq = cur.c_seq;
    s_t_ns = t_ns;
    s_dt_s = dt_s;
    s_snap = snap;
    s_counters = counters;
    s_hists = hists;
    s_gauges = snap.T.gauges;
    s_dropped_delta = dropped_delta;
  }

(* ------------------------------------------------------------------ *)
(* Subscribers                                                         *)
(* ------------------------------------------------------------------ *)

let lock = Mutex.create ()

let subscribers : (int * (sample -> unit)) list ref = ref []

let next_sub_id = ref 0

let subscribe fn =
  Mutex.lock lock;
  let id = !next_sub_id in
  incr next_sub_id;
  subscribers := !subscribers @ [ (id, fn) ];
  Mutex.unlock lock;
  id

let unsubscribe id =
  Mutex.lock lock;
  subscribers := List.filter (fun (i, _) -> i <> id) !subscribers;
  Mutex.unlock lock

let publish s =
  Mutex.lock lock;
  let subs = !subscribers in
  Mutex.unlock lock;
  List.iter
    (fun (_, fn) ->
      try fn s
      with e ->
        T.Metric.incr m_subscriber_errors;
        Printf.eprintf "telemetry: live subscriber raised %s\n%!" (Printexc.to_string e))
    subs

(* ------------------------------------------------------------------ *)
(* Background sampler                                                  *)
(* ------------------------------------------------------------------ *)

let stop_flag = Atomic.make false

let sampler : unit Domain.t option ref = ref None

let current_interval = ref default_interval_s

(* No timed condition wait in the stdlib: sleep in short slices so a
   [stop] is honoured within ~50 ms rather than a full interval. *)
let interruptible_sleep total =
  let slice = 0.05 in
  let rec go left =
    if left > 0.0 && not (Atomic.get stop_flag) then begin
      Unix.sleepf (Float.min slice left);
      go (left -. slice)
    end
  in
  go total

let loop interval_s =
  let cur = cursor () in
  let continue = ref true in
  while !continue do
    interruptible_sleep interval_s;
    if Atomic.get stop_flag then continue := false;
    (* The stopping iteration still publishes: every started sampler
       delivers at least one (final, flush) sample. *)
    publish (sample cur)
  done

let running () =
  Mutex.lock lock;
  let r = !sampler <> None in
  Mutex.unlock lock;
  r

let start ?(interval_s = default_interval_s) () =
  Mutex.lock lock;
  if !sampler = None then begin
    Atomic.set stop_flag false;
    current_interval := interval_s;
    sampler := Some (Domain.spawn (fun () -> loop interval_s))
  end;
  Mutex.unlock lock

let stop () =
  Mutex.lock lock;
  let d = !sampler in
  sampler := None;
  Mutex.unlock lock;
  match d with
  | None -> ()
  | Some d ->
      Atomic.set stop_flag true;
      Domain.join d

let interval_s () = !current_interval

(* ------------------------------------------------------------------ *)
(* Stream sinks                                                        *)
(* ------------------------------------------------------------------ *)

type sink = { sink_write : string -> unit; sink_close : unit -> unit }

let sink_of_channel ?(close = true) oc =
  {
    sink_write =
      (fun line ->
        output_string oc line;
        output_char oc '\n';
        flush oc);
    sink_close = (fun () -> if close then close_out oc else flush oc);
  }

let open_sink spec =
  if spec = "-" then sink_of_channel ~close:false stdout
  else if String.length spec > 5 && String.sub spec 0 5 = "unix:" then begin
    let path = String.sub spec 5 (String.length spec - 5) in
    let fail err = raise (Sys_error (path ^ ": " ^ Unix.error_message err)) in
    let fd =
      try Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0
      with Unix.Unix_error (err, _, _) -> fail err
    in
    (try Unix.connect fd (Unix.ADDR_UNIX path)
     with Unix.Unix_error (err, _, _) ->
       Unix.close fd;
       fail err);
    sink_of_channel (Unix.out_channel_of_descr fd)
  end
  else sink_of_channel (open_out spec)
