module T = Telemetry

let json_escape = Trace_check.json_escape

let us_of_ns ns = float_of_int ns /. 1e3

(* ------------------------------------------------------------------ *)
(* Chrome trace_event JSON (Perfetto / about:tracing)                  *)
(* ------------------------------------------------------------------ *)

let chrome_trace buf (snap : T.snapshot) =
  Buffer.add_string buf "{\"traceEvents\":[\n";
  let first = ref true in
  let emit line =
    if !first then first := false else Buffer.add_string buf ",\n";
    Buffer.add_string buf line
  in
  (* Track-naming metadata: one thread per telemetry domain. *)
  let seen = Hashtbl.create 8 in
  Array.iter
    (fun (e : T.event) ->
      if not (Hashtbl.mem seen e.T.er_domain) then begin
        Hashtbl.add seen e.T.er_domain ();
        emit
          (Printf.sprintf
             "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":%d,\"args\":{\"name\":\"domain-%d\"}}"
             e.T.er_domain e.T.er_domain)
      end)
    snap.T.events;
  Array.iter
    (fun (e : T.event) ->
      let common =
        Printf.sprintf "\"ts\":%.3f,\"pid\":1,\"tid\":%d" (us_of_ns e.T.er_ts_ns) e.T.er_domain
      in
      let note_field =
        if e.T.er_note = "" then "" else Printf.sprintf ",\"note\":\"%s\"" (json_escape e.T.er_note)
      in
      if e.T.er_kind = T.kind_begin then
        emit
          (Printf.sprintf "{\"name\":\"%s\",\"cat\":\"ll\",\"ph\":\"B\",%s,\"args\":{\"a0\":%d,\"a1\":%d%s}}"
             (json_escape e.T.er_name) common e.T.er_a0 e.T.er_a1 note_field)
      else if e.T.er_kind = T.kind_end then
        emit
          (Printf.sprintf "{\"name\":\"%s\",\"cat\":\"ll\",\"ph\":\"E\",%s,\"args\":{\"dur_ns\":%d,\"v\":%d}}"
             (json_escape e.T.er_name) common e.T.er_a0 e.T.er_a1)
      else if e.T.er_kind = T.kind_log then
        emit
          (Printf.sprintf
             "{\"name\":\"log\",\"cat\":\"ll\",\"ph\":\"i\",\"s\":\"t\",%s,\"args\":{\"line\":\"%s\"}}"
             common (json_escape e.T.er_note))
      else
        emit
          (Printf.sprintf
             "{\"name\":\"%s\",\"cat\":\"ll\",\"ph\":\"i\",\"s\":\"t\",%s,\"args\":{\"a0\":%d,\"a1\":%d%s}}"
             (json_escape e.T.er_name) common e.T.er_a0 e.T.er_a1 note_field))
    snap.T.events;
  Buffer.add_string buf "\n],\n";
  Buffer.add_string buf "\"displayTimeUnit\":\"ms\",\n";
  Buffer.add_string buf "\"otherData\":{";
  Buffer.add_string buf (Printf.sprintf "\"taken_at\":%.3f" snap.T.taken_at);
  Buffer.add_string buf (Printf.sprintf ",\"domains\":%d" snap.T.domains);
  Buffer.add_string buf (Printf.sprintf ",\"dropped_events\":%d" snap.T.dropped_events);
  Buffer.add_string buf
    (Printf.sprintf ",\"unbalanced_span_ends\":%d" snap.T.unbalanced_span_ends);
  List.iter
    (fun (name, v) ->
      Buffer.add_string buf (Printf.sprintf ",\"%s\":%d" (json_escape name) v))
    snap.T.counters;
  List.iter
    (fun (name, v) ->
      Buffer.add_string buf (Printf.sprintf ",\"%s\":%.6g" (json_escape name) v))
    snap.T.gauges;
  Buffer.add_string buf "}}\n"

let chrome_trace_string snap =
  let buf = Buffer.create 65536 in
  chrome_trace buf snap;
  Buffer.contents buf

let write_chrome_trace path snap =
  Ll_util.Fileio.write_atomic_string path (chrome_trace_string snap)

(* ------------------------------------------------------------------ *)
(* Structured JSONL                                                    *)
(* ------------------------------------------------------------------ *)

let jsonl buf (snap : T.snapshot) =
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s; Buffer.add_char buf '\n') fmt in
  line
    "{\"type\":\"meta\",\"taken_at\":%.3f,\"domains\":%d,\"events\":%d,\"dropped_events\":%d,\"unbalanced_span_ends\":%d}"
    snap.T.taken_at snap.T.domains (Array.length snap.T.events) snap.T.dropped_events
    snap.T.unbalanced_span_ends;
  List.iter
    (fun (name, v) -> line "{\"type\":\"counter\",\"name\":\"%s\",\"value\":%d}" (json_escape name) v)
    snap.T.counters;
  List.iter
    (fun (name, v) -> line "{\"type\":\"gauge\",\"name\":\"%s\",\"value\":%.6g}" (json_escape name) v)
    snap.T.gauges;
  List.iter
    (fun (name, (h : T.hist)) ->
      let floats a = String.concat "," (Array.to_list (Array.map (Printf.sprintf "%.6g") a)) in
      let ints a = String.concat "," (Array.to_list (Array.map string_of_int a)) in
      line
        "{\"type\":\"histogram\",\"name\":\"%s\",\"buckets\":[%s],\"counts\":[%s],\"count\":%d,\"sum\":%.6g}"
        (json_escape name) (floats h.T.h_buckets) (ints h.T.h_counts) h.T.h_count h.T.h_sum)
    snap.T.histograms;
  Array.iter
    (fun (e : T.event) ->
      let kind =
        if e.T.er_kind = T.kind_begin then "B"
        else if e.T.er_kind = T.kind_end then "E"
        else if e.T.er_kind = T.kind_log then "log"
        else "I"
      in
      line
        "{\"type\":\"event\",\"kind\":\"%s\",\"domain\":%d,\"ts_ns\":%d,\"name\":\"%s\",\"a0\":%d,\"a1\":%d,\"note\":\"%s\"}"
        kind e.T.er_domain e.T.er_ts_ns (json_escape e.T.er_name) e.T.er_a0 e.T.er_a1
        (json_escape e.T.er_note))
    snap.T.events

let jsonl_string snap =
  let buf = Buffer.create 65536 in
  jsonl buf snap;
  Buffer.contents buf

let write_jsonl path snap = Ll_util.Fileio.write_atomic_string path (jsonl_string snap)

(* ------------------------------------------------------------------ *)
(* Prometheus text exposition format                                   *)
(* ------------------------------------------------------------------ *)

(* Metric names use dots as namespace separators ("attack.dips"); the
   Prometheus grammar only allows [a-zA-Z0-9_:], so dots (and anything
   else exotic) become underscores under an "ll_" prefix. *)
let prom_name name =
  let b = Buffer.create (String.length name + 3) in
  Buffer.add_string b "ll_";
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> Buffer.add_char b c
      | _ -> Buffer.add_char b '_')
    name;
  Buffer.contents b

(* %h-style float rendering for Prometheus: plain decimal, no OCaml
   artifacts ("inf" must be "+Inf" in bucket labels but is fine as a
   value). *)
let prom_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.9g" v

let prometheus buf (snap : T.snapshot) =
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s; Buffer.add_char buf '\n') fmt in
  List.iter
    (fun (name, v) ->
      let p = prom_name name in
      line "# TYPE %s counter" p;
      line "%s %d" p v)
    snap.T.counters;
  List.iter
    (fun (name, v) ->
      let p = prom_name name in
      line "# TYPE %s gauge" p;
      line "%s %s" p (prom_float v))
    snap.T.gauges;
  List.iter
    (fun (name, (h : T.hist)) ->
      let p = prom_name name in
      line "# TYPE %s histogram" p;
      (* Native buckets count [v <= bound] per bucket; Prometheus buckets
         are cumulative. *)
      let acc = ref 0 in
      Array.iteri
        (fun i bound ->
          acc := !acc + h.T.h_counts.(i);
          line "%s_bucket{le=\"%s\"} %d" p (prom_float bound) !acc)
        h.T.h_buckets;
      line "%s_bucket{le=\"+Inf\"} %d" p h.T.h_count;
      line "%s_sum %s" p (prom_float h.T.h_sum);
      line "%s_count %d" p h.T.h_count)
    snap.T.histograms;
  line "# TYPE ll_telemetry_domains gauge";
  line "ll_telemetry_domains %d" snap.T.domains;
  line "# TYPE ll_telemetry_dropped_events gauge";
  line "ll_telemetry_dropped_events %d" snap.T.dropped_events

let prometheus_string snap =
  let buf = Buffer.create 8192 in
  prometheus buf snap;
  Buffer.contents buf

let write_prometheus path snap =
  Ll_util.Fileio.write_atomic_string path (prometheus_string snap)

(* ------------------------------------------------------------------ *)
(* Live JSONL stream records                                           *)
(* ------------------------------------------------------------------ *)

(* One "meta" line opens a stream, then one "delta" line per sample
   (plus "progress" lines contributed by the attack layer).  Validated
   by {!Trace_check.validate_stream}. *)
let stream_meta_line ?(interval_s = Live.default_interval_s) () =
  Printf.sprintf
    "{\"type\":\"meta\",\"stream\":\"ll_telemetry\",\"version\":1,\"interval_s\":%.6g,\"t_ns\":%d,\"taken_at\":%.3f}"
    interval_s (T.now_ns ()) (Ll_util.Timer.now ())

let stream_delta_line (s : Live.sample) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "{\"type\":\"delta\",\"seq\":%d,\"t_ns\":%d,\"dt_s\":%.6g" s.Live.s_seq
       s.Live.s_t_ns s.Live.s_dt_s);
  Buffer.add_string buf ",\"counters\":{";
  let first = ref true in
  List.iter
    (fun (name, delta, rate) ->
      if !first then first := false else Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "\"%s\":[%d,%.6g]" (json_escape name) delta rate))
    s.Live.s_counters;
  Buffer.add_string buf "},\"gauges\":{";
  let first = ref true in
  List.iter
    (fun (name, v) ->
      if !first then first := false else Buffer.add_char buf ',';
      Buffer.add_string buf (Printf.sprintf "\"%s\":%.6g" (json_escape name) v))
    s.Live.s_gauges;
  Buffer.add_string buf "},\"hist_deltas\":{";
  let first = ref true in
  List.iter
    (fun (name, dcount, dsum) ->
      if !first then first := false else Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "\"%s\":[%d,%.6g]" (json_escape name) dcount dsum))
    s.Live.s_hists;
  Buffer.add_string buf
    (Printf.sprintf "},\"dropped_delta\":%d,\"dropped_total\":%d}" s.Live.s_dropped_delta
       s.Live.s_snap.T.dropped_events);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Ring-drop warning                                                   *)
(* ------------------------------------------------------------------ *)

(* One human-readable line when a snapshot lost events to ring
   wraparound, naming the affected domains — printed to stderr by the
   CLI so drops are loud instead of buried in exported JSON. *)
let drop_warning (snap : T.snapshot) =
  if snap.T.dropped_events = 0 then None
  else
    let doms =
      String.concat ", "
        (List.map
           (fun (tid, n) -> Printf.sprintf "domain-%d: %d" tid n)
           snap.T.dropped_by_domain)
    in
    Some
      (Printf.sprintf
         "telemetry: %d trace event(s) dropped by ring wraparound (%s); re-run with a larger --trace-ring-size"
         snap.T.dropped_events doms)

(* ------------------------------------------------------------------ *)
(* Compact text summary                                                *)
(* ------------------------------------------------------------------ *)

let summary (snap : T.snapshot) =
  let buf = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s; Buffer.add_char buf '\n') fmt in
  line "telemetry summary (%d domain(s), %d event(s), %d dropped, %d unbalanced end(s))"
    snap.T.domains (Array.length snap.T.events) snap.T.dropped_events
    snap.T.unbalanced_span_ends;
  if snap.T.counters <> [] then begin
    line "counters:";
    List.iter (fun (name, v) -> line "  %-28s %12d" name v) snap.T.counters
  end;
  if snap.T.gauges <> [] then begin
    line "gauges:";
    List.iter (fun (name, v) -> line "  %-28s %12.6g" name v) snap.T.gauges
  end;
  if snap.T.histograms <> [] then begin
    line "histograms:";
    List.iter
      (fun (name, (h : T.hist)) ->
        let mean = if h.T.h_count > 0 then h.T.h_sum /. float_of_int h.T.h_count else 0.0 in
        (* Approximate quantile: the upper bound of the bucket where the
           cumulative count crosses q. *)
        let quantile q =
          let target = int_of_float (ceil (q *. float_of_int h.T.h_count)) in
          let acc = ref 0 and res = ref infinity in
          Array.iteri
            (fun i c ->
              if !acc < target then begin
                acc := !acc + c;
                if !acc >= target then
                  res :=
                    (if i < Array.length h.T.h_buckets then h.T.h_buckets.(i) else infinity)
              end)
            h.T.h_counts;
          !res
        in
        line "  %-28s n=%-8d mean=%-12.6g p50<=%-10.3g p90<=%-10.3g" name h.T.h_count mean
          (quantile 0.5) (quantile 0.9))
      snap.T.histograms
  end;
  (* Span rollup: totals by name. *)
  let spans = T.spans snap in
  if spans <> [] then begin
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun (s : T.span) ->
        let count, total, mx =
          try Hashtbl.find tbl s.T.sp_name with Not_found -> (0, 0, 0)
        in
        Hashtbl.replace tbl s.T.sp_name
          (count + 1, total + s.T.sp_dur_ns, max mx s.T.sp_dur_ns))
      spans;
    let rows = Hashtbl.fold (fun name v acc -> (name, v) :: acc) tbl [] in
    let rows = List.sort (fun (_, (_, a, _)) (_, (_, b, _)) -> compare b a) rows in
    line "spans (by total time):";
    List.iter
      (fun (name, (count, total, mx)) ->
        line "  %-28s n=%-8d total=%10.3f s  max=%10.3f s" name count
          (float_of_int total *. 1e-9)
          (float_of_int mx *. 1e-9))
      rows
  end;
  Buffer.contents buf
