module T = Telemetry
module J = Trace_check

let int n = J.Num (float_of_int n)

(* ------------------------------------------------------------------ *)
(* Chrome trace_event JSON (Perfetto / about:tracing)                  *)
(* ------------------------------------------------------------------ *)

let chrome_event (e : T.event) =
  let event ?(instant = false) name ph args =
    J.Obj
      ([ ("name", J.Str name); ("cat", J.Str "ll"); ("ph", J.Str ph) ]
      @ (if instant then [ ("s", J.Str "t") ] else [])
      @ [
          ("ts", J.Num (float_of_int e.T.er_ts_ns /. 1e3));
          ("pid", int 1);
          ("tid", int e.T.er_domain);
          ("args", J.Obj args);
        ])
  in
  let tagged =
    [ ("a0", int e.T.er_a0); ("a1", int e.T.er_a1) ]
    @ if e.T.er_note = "" then [] else [ ("note", J.Str e.T.er_note) ]
  in
  if e.T.er_kind = T.kind_begin then event e.T.er_name "B" tagged
  else if e.T.er_kind = T.kind_end then
    event e.T.er_name "E" [ ("dur_ns", int e.T.er_a0); ("v", int e.T.er_a1) ]
  else if e.T.er_kind = T.kind_log then
    event ~instant:true "log" "i" [ ("line", J.Str e.T.er_note) ]
  else event ~instant:true e.T.er_name "i" tagged

(* The events go into the buffer one per line as the snapshot is walked,
   between a fixed head and the [otherData] tail, so the document is
   never held as one tree. *)
let chrome_trace buf (snap : T.snapshot) =
  Buffer.add_string buf {|{"traceEvents":[|};
  let first = ref true in
  let emit ev =
    Buffer.add_string buf (if !first then "\n" else ",\n");
    first := false;
    Buffer.add_string buf (J.to_line ev)
  in
  (* Track-naming metadata: one thread per telemetry domain. *)
  let seen = Hashtbl.create 8 in
  Array.iter
    (fun (e : T.event) ->
      let d = e.T.er_domain in
      if not (Hashtbl.mem seen d) then begin
        Hashtbl.add seen d ();
        emit
          (J.Obj
             [
               ("ph", J.Str "M");
               ("name", J.Str "thread_name");
               ("pid", int 1);
               ("tid", int d);
               ("args", J.Obj [ ("name", J.Str (Printf.sprintf "domain-%d" d)) ]);
             ])
      end)
    snap.T.events;
  Array.iter (fun e -> emit (chrome_event e)) snap.T.events;
  Buffer.add_string buf {|
],
"displayTimeUnit":"ms",
"otherData":|};
  Buffer.add_string buf
    (J.to_line
       (J.Obj
          ([
             ("taken_at", J.Num snap.T.taken_at);
             ("domains", int snap.T.domains);
             ("dropped_events", int snap.T.dropped_events);
             ("unbalanced_span_ends", int snap.T.unbalanced_span_ends);
           ]
          @ List.map (fun (name, v) -> (name, int v)) snap.T.counters
          @ List.map (fun (name, v) -> (name, J.Num v)) snap.T.gauges)));
  Buffer.add_string buf "}\n"

let chrome_trace_string snap =
  let buf = Buffer.create 65536 in
  chrome_trace buf snap;
  Buffer.contents buf

let write_chrome_trace path snap =
  Ll_util.Fileio.write_atomic_string path (chrome_trace_string snap)

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
  J.to_line
    (J.Obj
       [
         ("type", J.Str "meta");
         ("stream", J.Str "ll_telemetry");
         ("version", int 1);
         ("interval_s", J.Num interval_s);
         ("t_ns", int (T.now_ns ()));
         ("taken_at", J.Num (Ll_util.Timer.now ()));
       ])

let stream_delta_line (s : Live.sample) =
  let pairs l = J.Obj (List.map (fun (name, n, x) -> (name, J.Arr [ int n; J.Num x ])) l) in
  J.to_line
    (J.Obj
       [
         ("type", J.Str "delta");
         ("seq", int s.Live.s_seq);
         ("t_ns", int s.Live.s_t_ns);
         ("dt_s", J.Num s.Live.s_dt_s);
         ("counters", pairs s.Live.s_counters);
         ("gauges", J.Obj (List.map (fun (name, v) -> (name, J.Num v)) s.Live.s_gauges));
         ("hist_deltas", pairs s.Live.s_hists);
         ("dropped_delta", int s.Live.s_dropped_delta);
         ("dropped_total", int s.Live.s_snap.T.dropped_events);
       ])

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
