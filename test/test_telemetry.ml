(* Telemetry layer: span nesting, metrics, ring wraparound under a
   multi-domain pool, exporter validity, log lines, and — critically —
   that tracing never perturbs attack behaviour (golden DIP sequences are
   byte-identical with telemetry on and off). *)

open Helpers
module Tel = LL.Telemetry.Telemetry
module Export = LL.Telemetry.Export
module Trace_check = LL.Telemetry.Trace_check
module Oracle = LL.Attack.Oracle
module Sat_attack = LL.Attack.Sat_attack
module Split_attack = LL.Attack.Split_attack

(* Every test leaves telemetry disabled and clean for its successors. *)
let with_telemetry ?ring_capacity f =
  Tel.enable ?ring_capacity ();
  Fun.protect
    ~finally:(fun () ->
      Tel.disable ();
      Tel.reset ())
    f

(* --- spans --- *)

let test_span_nesting () =
  let snap =
    with_telemetry (fun () ->
        Tel.with_span ~a0:1 "outer" (fun () ->
            Tel.with_span ~a0:2 "inner" (fun () -> Tel.instant "tick");
            Tel.with_span ~a0:3 "inner2" (fun () -> ()));
        Tel.snapshot ())
  in
  let spans = Tel.spans snap in
  Alcotest.(check int) "three spans" 3 (List.length spans);
  let by_name n = List.find (fun s -> s.Tel.sp_name = n) spans in
  let outer = by_name "outer" and inner = by_name "inner" and inner2 = by_name "inner2" in
  Alcotest.(check int) "outer depth" 0 outer.Tel.sp_depth;
  Alcotest.(check int) "inner depth" 1 inner.Tel.sp_depth;
  Alcotest.(check int) "inner2 depth" 1 inner2.Tel.sp_depth;
  Alcotest.(check bool) "inner within outer" true
    (inner.Tel.sp_start_ns >= outer.Tel.sp_start_ns
    && inner.Tel.sp_start_ns + inner.Tel.sp_dur_ns
       <= outer.Tel.sp_start_ns + outer.Tel.sp_dur_ns);
  Alcotest.(check bool) "inner2 after inner" true
    (inner2.Tel.sp_start_ns >= inner.Tel.sp_start_ns + inner.Tel.sp_dur_ns);
  Alcotest.(check int) "v defaults to a0" 1 outer.Tel.sp_v;
  Alcotest.(check int) "no unbalance" 0 snap.Tel.unbalanced_span_ends

let test_span_result_value () =
  let snap =
    with_telemetry (fun () ->
        Tel.span_begin ~a0:7 "work";
        Tel.span_end ~v:42 ();
        Tel.snapshot ())
  in
  match Tel.spans snap with
  | [ s ] ->
      Alcotest.(check int) "a0 kept" 7 s.Tel.sp_a0;
      Alcotest.(check int) "v carried by end" 42 s.Tel.sp_v
  | l -> Alcotest.failf "expected 1 span, got %d" (List.length l)

let test_unbalanced_end () =
  let snap =
    with_telemetry (fun () ->
        Tel.span_end ();
        (* no-op, counted *)
        Tel.with_span "ok" (fun () -> ());
        Tel.span_end ~v:9 ();
        (* second stray end *)
        Tel.snapshot ())
  in
  Alcotest.(check int) "two stray ends counted" 2 snap.Tel.unbalanced_span_ends;
  Alcotest.(check int) "balanced span still reconstructed" 1 (List.length (Tel.spans snap))

let test_disabled_is_noop () =
  Tel.reset ();
  Alcotest.(check bool) "disabled by default" false (Tel.enabled ());
  Tel.span_begin "ghost";
  Tel.instant "ghost";
  Tel.span_end ();
  let snap = Tel.snapshot () in
  Alcotest.(check int) "no events recorded" 0 (Array.length snap.Tel.events);
  Alcotest.(check int) "no unbalance recorded" 0 snap.Tel.unbalanced_span_ends

(* --- metrics --- *)

let m_counter = Tel.Metric.counter "test.counter"

let m_gauge = Tel.Metric.gauge "test.gauge"

let m_hist = Tel.Metric.histogram ~buckets:[| 1.0; 2.0; 4.0 |] "test.hist"

let test_counter_gauge () =
  let snap =
    with_telemetry (fun () ->
        Tel.Metric.incr m_counter;
        Tel.Metric.add m_counter 41;
        Tel.Metric.set m_gauge 2.5;
        Tel.Metric.set m_gauge 7.25;
        Tel.snapshot ())
  in
  Alcotest.(check int) "counter sum" 42
    (Option.value ~default:0 (List.assoc_opt "test.counter" snap.Tel.counters));
  Alcotest.(check (float 1e-9)) "gauge last set wins" 7.25
    (Option.value ~default:0.0 (List.assoc_opt "test.gauge" snap.Tel.gauges))

let test_histogram_bucket_edges () =
  let snap =
    with_telemetry (fun () ->
        (* Buckets are upper-inclusive: v lands in the first bucket with
           v <= bound.  1.0 -> bucket 0; nextafter(1.0) -> bucket 1;
           4.0 -> bucket 2; 4.0000001 -> overflow. *)
        List.iter (Tel.Metric.observe m_hist)
          [ 0.5; 1.0; Float.succ 1.0; 2.0; 3.9; 4.0; 4.0000001; 100.0 ];
        Tel.snapshot ())
  in
  match List.assoc_opt "test.hist" snap.Tel.histograms with
  | None -> Alcotest.fail "histogram missing from snapshot"
  | Some h ->
      Alcotest.(check (array int)) "bucket counts" [| 2; 2; 2; 2 |] h.Tel.h_counts;
      Alcotest.(check int) "total count" 8 h.Tel.h_count;
      Alcotest.(check bool) "sum accumulated" true (h.Tel.h_sum > 116.0 && h.Tel.h_sum < 117.0)

(* --- ring wraparound --- *)

let test_ring_wraparound () =
  let cap = 64 in
  let snap =
    with_telemetry ~ring_capacity:cap (fun () ->
        for i = 0 to 199 do
          Tel.instant ~a0:i "burst"
        done;
        Tel.snapshot ())
  in
  Alcotest.(check int) "ring keeps capacity" cap (Array.length snap.Tel.events);
  Alcotest.(check int) "drops reported" (200 - cap) snap.Tel.dropped_events;
  (* The survivors are the newest [cap] events, in order. *)
  Array.iteri
    (fun i (e : Tel.event) ->
      Alcotest.(check int) (Printf.sprintf "event %d payload" i) (200 - cap + i) e.Tel.er_a0)
    snap.Tel.events

let test_wraparound_span_end_survives () =
  (* A span whose B event was overwritten still reconstructs from its E
     event (duration and value ride on the E record). *)
  let cap = 32 in
  let snap =
    with_telemetry ~ring_capacity:cap (fun () ->
        Tel.span_begin ~a0:5 "long";
        for i = 0 to 99 do
          Tel.instant ~a0:i "noise"
        done;
        Tel.span_end ~v:77 ();
        Tel.snapshot ())
  in
  match List.filter (fun s -> s.Tel.sp_name = "long") (Tel.spans snap) with
  | [ s ] ->
      Alcotest.(check int) "value survives" 77 s.Tel.sp_v;
      Alcotest.(check int) "orphan marker" (-1) s.Tel.sp_a0;
      Alcotest.(check bool) "duration positive" true (s.Tel.sp_dur_ns >= 0)
  | l -> Alcotest.failf "expected 1 reconstructed span, got %d" (List.length l)

let test_pool_stress_wraparound () =
  (* 4 domains hammer small rings concurrently; the merged snapshot must
     stay structurally sound: per-domain event counts bounded by capacity,
     timestamps sorted, balanced span reconstruction per domain. *)
  let cap = 128 in
  let snap =
    with_telemetry ~ring_capacity:cap (fun () ->
        LL.Runtime.Pool.with_pool ~num_domains:4 (fun pool ->
            let handles =
              Array.init 16 (fun t ->
                  LL.Runtime.Pool.submit pool (fun _ctx ->
                      for i = 0 to 99 do
                        Tel.with_span ~a0:t "stress.outer" (fun () ->
                            Tel.instant ~a0:i "stress.tick")
                      done))
            in
            Array.iter
              (fun h ->
                match LL.Runtime.Pool.await h with
                | LL.Runtime.Pool.Done () -> ()
                | _ -> Alcotest.fail "pool task failed")
              handles);
        Tel.snapshot ())
  in
  Alcotest.(check bool) "multiple domains captured" true (snap.Tel.domains >= 2);
  Alcotest.(check bool) "wraparound happened" true (snap.Tel.dropped_events > 0);
  (* Sorted timestamps. *)
  let sorted = ref true in
  Array.iteri
    (fun i (e : Tel.event) ->
      if i > 0 && e.Tel.er_ts_ns < snap.Tel.events.(i - 1).Tel.er_ts_ns then sorted := false)
    snap.Tel.events;
  Alcotest.(check bool) "events time-sorted" true !sorted;
  (* Per-domain count <= capacity. *)
  let per_domain = Hashtbl.create 8 in
  Array.iter
    (fun (e : Tel.event) ->
      Hashtbl.replace per_domain e.Tel.er_domain
        (1 + Option.value ~default:0 (Hashtbl.find_opt per_domain e.Tel.er_domain)))
    snap.Tel.events;
  Hashtbl.iter
    (fun d n ->
      Alcotest.(check bool) (Printf.sprintf "domain %d within capacity" d) true (n <= cap))
    per_domain;
  Alcotest.(check int) "no unbalanced ends" 0 snap.Tel.unbalanced_span_ends

(* --- log lines --- *)

let test_log_lines_in_trace () =
  let snap =
    with_telemetry (fun () ->
        Tel.log_line "recorded";
        Tel.snapshot ())
  in
  match
    Array.to_list snap.Tel.events
    |> List.filter (fun (e : Tel.event) -> e.Tel.er_kind = Tel.kind_log)
  with
  | [ e ] -> Alcotest.(check string) "line in note" "recorded" e.Tel.er_note
  | l -> Alcotest.failf "expected 1 log event, got %d" (List.length l)

(* --- exporters --- *)

let test_chrome_trace_valid () =
  let snap =
    with_telemetry (fun () ->
        Tel.with_span ~a0:1 ~note:"he\"llo\n" "outer" (fun () ->
            Tel.with_span "inner" (fun () -> ());
            Tel.instant "mark");
        Tel.snapshot ())
  in
  let s = Export.chrome_trace_string snap in
  match Trace_check.validate_chrome_trace s with
  | Error errs -> Alcotest.failf "invalid trace: %s" (String.concat "; " errs)
  | Ok r ->
      Alcotest.(check int) "begins" 2 r.Trace_check.begin_events;
      Alcotest.(check int) "ends" 2 r.Trace_check.end_events;
      Alcotest.(check int) "max depth" 2 r.Trace_check.max_depth

let test_trace_check_rejects_unbalanced () =
  let bad =
    {|{"traceEvents":[
      {"name":"a","ph":"B","ts":1.0,"pid":1,"tid":0},
      {"name":"b","ph":"E","ts":2.0,"pid":1,"tid":0}
    ]}|}
  in
  (match Trace_check.validate_chrome_trace bad with
  | Ok _ -> Alcotest.fail "mismatched E accepted"
  | Error _ -> ());
  let unclosed =
    {|{"traceEvents":[{"name":"a","ph":"B","ts":1.0,"pid":1,"tid":0}]}|}
  in
  (match Trace_check.validate_chrome_trace unclosed with
  | Ok _ -> Alcotest.fail "unclosed span accepted"
  | Error _ -> ());
  match Trace_check.validate_chrome_trace "{not json" with
  | Ok _ -> Alcotest.fail "garbage accepted"
  | Error _ -> ()

(* Numbers and strings go through [Trace_check.to_line]: a gauge beyond
   six significant digits and a note with a quote, a newline and a
   control character read back exactly from the parsed trace. *)
let test_chrome_trace_reads_back () =
  let note = "say \"hi\"\nthen\001" in
  let snap =
    with_telemetry (fun () ->
        Tel.Metric.set m_gauge 12345678.0;
        Tel.with_span ~note "noted" (fun () -> ());
        Tel.snapshot ())
  in
  let trace = Trace_check.parse_json (Export.chrome_trace_string snap) in
  let other = Option.get (Trace_check.member "otherData" trace) in
  Alcotest.(check bool) "gauge exact" true
    (Trace_check.member "test.gauge" other = Some (Trace_check.Num 12345678.0));
  let notes =
    match Trace_check.member "traceEvents" trace with
    | Some (Trace_check.Arr events) ->
        List.filter_map
          (fun ev ->
            match Option.bind (Trace_check.member "args" ev) (Trace_check.member "note") with
            | Some (Trace_check.Str n) -> Some n
            | _ -> None)
          events
    | _ -> Alcotest.fail "no traceEvents array"
  in
  Alcotest.(check (list string)) "note intact" [ note ] notes

(* --- JSON printer --- *)

(* Values the BENCH_*.json records are made of, plus the string and
   number shapes that stress the printer: quotes, backslashes and control
   characters; negative, fractional and beyond-2^31 numbers. *)
let json_gen =
  let open QCheck2.Gen in
  let text =
    string_size (int_bound 8)
      ~gen:(oneof [ char; oneofl [ '"'; '\\'; '\n'; '\t'; '\001'; '\031'; '/' ] ])
  in
  let num =
    oneof
      [
        map float_of_int (int_range (-1000) 1000);
        map float_of_int (int_range (1 lsl 31) (1 lsl 53));
        map (fun i -> -.Float.ldexp (float_of_int i) 60) (int_range 1 1000);
        map (fun f -> if Float.is_finite f then f else 0.5) float;
        map (fun (a, b) -> float_of_int a /. float_of_int b) (pair int (int_range 1 997));
      ]
  in
  let leaf =
    oneof
      [
        pure Trace_check.Null;
        map (fun b -> Trace_check.Bool b) bool;
        map (fun x -> Trace_check.Num x) num;
        map (fun s -> Trace_check.Str s) text;
      ]
  in
  (* Keys are unique within one object; the printer rejects repeats. *)
  let dedup fields =
    List.fold_left
      (fun acc (k, v) -> if List.mem_assoc k acc then acc else (k, v) :: acc)
      [] fields
    |> List.rev
  in
  sized_size (int_bound 24)
  @@ fix (fun self n ->
         if n = 0 then leaf
         else
           frequency
             [
               (2, leaf);
               (1, map (fun l -> Trace_check.Arr l) (list_size (int_bound 4) (self (n / 3))));
               ( 1,
                 map
                   (fun l -> Trace_check.Obj (dedup l))
                   (list_size (int_bound 4) (pair text (self (n / 3)))) );
             ])

let test_to_string_rejects () =
  let rejects what key v =
    List.iter
      (fun print ->
        match print v with
        | exception Invalid_argument msg ->
            if not (contains msg (Printf.sprintf "%S" key)) then
              Alcotest.failf "%s: message %S does not name key %S" what msg key
        | s -> Alcotest.failf "%s printed as %s" what s)
      [ Trace_check.to_string; Trace_check.to_line ]
  in
  rejects "nan" "wall_s" (Trace_check.Obj [ ("wall_s", Trace_check.Num Float.nan) ]);
  rejects "infinity" "fixed_wall_s"
    (Trace_check.Arr
       [ Trace_check.Obj [ ("fixed_wall_s", Trace_check.Arr [ Trace_check.Num Float.infinity ]) ] ]);
  rejects "-infinity" "x" (Trace_check.Obj [ ("x", Trace_check.Num Float.neg_infinity) ]);
  rejects "duplicate key" "name"
    (Trace_check.Obj [ ("name", Trace_check.Str "a"); ("name", Trace_check.Str "b") ])

let test_to_string_layout () =
  let record =
    Trace_check.Obj
      [
        ("name", Trace_check.Str "c432/sarlock8");
        ("fixed_ns", Trace_check.Arr [ Trace_check.Num 0.0; Trace_check.Num 1.0 ]);
        ("wall_s", Trace_check.Num 0.045127);
        ("ok", Trace_check.Bool true);
      ]
  in
  Alcotest.(check string) "one field per line"
    "[\n\
    \  {\n\
    \    \"name\": \"c432/sarlock8\",\n\
    \    \"fixed_ns\": [0, 1],\n\
    \    \"wall_s\": 0.045127,\n\
    \    \"ok\": true\n\
    \  },\n\
    \  {}\n\
     ]"
    (Trace_check.to_string (Trace_check.Arr [ record; Trace_check.Obj [] ]))

(* [Bench_record.fixed dp x] must read back as exactly the double the
   old [Printf "%.*f"] emitters wrote, so baselines stay comparable. *)
let test_fixed_decimals () =
  List.iter
    (fun x ->
      for dp = 0 to 6 do
        let expected = float_of_string (Printf.sprintf "%.*f" dp x) in
        match Trace_check.parse_json (Trace_check.to_string (Bench_record.fixed dp x)) with
        | Trace_check.Num y when y = expected -> ()
        | _ -> Alcotest.failf "fixed %d %h does not read back as %h" dp x expected
      done)
    [ 0.125; 2.675; 1e-7; 123456.78915; -0.0005; 68495902.4; 2.0 ]

(* --- per-domain rings --- *)

(* One ring at the default capacity: 32768 slots of 6-field records plus
   the slot array. *)
let ring_words = 32768 * 8

let test_untraced_domains_keep_no_ring () =
  (* Domain states stay registered after their domain is joined, so a ring
     given to a domain that never records would stay live for good.  The
     empty session restores the default ring capacity that earlier tests
     shrank, and leaves telemetry disabled. *)
  with_telemetry ignore;
  let live_words () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let before = live_words () in
  (* A metric update creates the domain's state but records no event. *)
  with_telemetry (fun () ->
      List.init 16 (fun _ -> Domain.spawn (fun () -> Tel.Metric.incr m_counter))
      |> List.iter Domain.join);
  let growth = live_words () - before in
  Alcotest.(check bool)
    (Printf.sprintf "16 untraced domains grow the heap by %d < %d words" growth ring_words)
    true (growth < ring_words);
  let snap =
    with_telemetry (fun () ->
        Domain.join (Domain.spawn (fun () -> Tel.instant "fresh.domain"));
        Tel.snapshot ())
  in
  Alcotest.(check bool) "a fresh domain's event is recorded" true
    (Array.exists (fun (e : Tel.event) -> e.Tel.er_name = "fresh.domain") snap.Tel.events);
  Alcotest.(check int) "nothing dropped" 0 snap.Tel.dropped_events

(* A domain grows its metric arrays one field at a time on its first
   metric update; a snapshot taken meanwhile (the live sampler's case)
   must read only what every array covers. *)
let test_snapshot_during_metric_growth () =
  let domains = 200 in
  let snap =
    with_telemetry (fun () ->
        let finished = Atomic.make false in
        let spawner =
          Domain.spawn (fun () ->
              for _ = 1 to domains do
                Domain.join (Domain.spawn (fun () -> Tel.Metric.incr m_counter))
              done;
              Atomic.set finished true)
        in
        while not (Atomic.get finished) do
          ignore (Tel.snapshot ())
        done;
        Domain.join spawner;
        Tel.snapshot ())
  in
  Alcotest.(check (option int)) "every increment counted" (Some domains)
    (List.assoc_opt "test.counter" snap.Tel.counters)

(* --- determinism: tracing must not change attack behaviour --- *)

let sarlock4_golden_dips =
  "011001;011101;001101;010101;110101;110001;101101;111101;101001;111001;100001;000001;\
   010001;100101;000101"

let dip_string (r : Sat_attack.result) =
  String.concat ";" (List.map Bitvec.to_string r.Sat_attack.dips)

let key_string (r : Sat_attack.result) =
  match r.Sat_attack.key with Some k -> Bitvec.to_string k | None -> "-"

let test_golden_dips_with_tracing () =
  let c = random_circuit ~seed:5 ~num_inputs:6 ~num_outputs:3 ~gates:30 () in
  let locked = LL.Locking.Sarlock.lock ~prng:(Prng.create 4) ~key_size:4 c in
  let oracle () = Oracle.of_circuit c in
  let run () = Sat_attack.run locked.LL.Locking.Locked.circuit ~oracle:(oracle ()) in
  let off = run () in
  let on = with_telemetry (fun () -> run ()) in
  Alcotest.(check string) "golden dips, tracing off" sarlock4_golden_dips (dip_string off);
  Alcotest.(check string) "byte-identical dips with tracing on" (dip_string off)
    (dip_string on);
  Alcotest.(check string) "same key" (key_string off) (key_string on)

let test_split_trace_structure () =
  (* A traced parallel split attack must produce a valid Chrome trace with
     nested split.task / attack.dip spans. *)
  let c = random_circuit ~seed:5 ~num_inputs:6 ~num_outputs:3 ~gates:30 () in
  let locked = LL.Locking.Sarlock.lock ~prng:(Prng.create 4) ~key_size:4 c in
  let snap, attack =
    with_telemetry (fun () ->
        let attack =
          Split_attack.run_parallel ~num_domains:2 ~n:1
            locked.LL.Locking.Locked.circuit ~oracle:(Oracle.of_circuit c)
        in
        (Tel.snapshot (), attack))
  in
  Alcotest.(check int) "two sub-tasks" 2 (Array.length attack.Split_attack.tasks);
  (match Trace_check.validate_chrome_trace (Export.chrome_trace_string snap) with
  | Error errs -> Alcotest.failf "invalid trace: %s" (String.concat "; " errs)
  | Ok r -> Alcotest.(check bool) "nested spans" true (r.Trace_check.max_depth >= 2));
  let spans = Tel.spans snap in
  let count name = List.length (List.filter (fun s -> s.Tel.sp_name = name) spans) in
  Alcotest.(check int) "one cube.run span" 1 (count "cube.run");
  Alcotest.(check int) "one split.task span per cofactor" 2 (count "split.task");
  Alcotest.(check bool) "attack.dip spans present" true (count "attack.dip" > 0);
  (* Each split.task span carries its fixed-input pattern as note. *)
  List.iter
    (fun s ->
      if s.Tel.sp_name = "split.task" then
        Alcotest.(check bool) "condition tag present" true
          (String.length s.Tel.sp_note >= 3))
    spans

let suite =
  [
    Alcotest.test_case "span nesting" `Quick test_span_nesting;
    Alcotest.test_case "span result value" `Quick test_span_result_value;
    Alcotest.test_case "unbalanced end is counted no-op" `Quick test_unbalanced_end;
    Alcotest.test_case "disabled is a no-op" `Quick test_disabled_is_noop;
    Alcotest.test_case "counter and gauge merge" `Quick test_counter_gauge;
    Alcotest.test_case "histogram bucket edges" `Quick test_histogram_bucket_edges;
    Alcotest.test_case "ring wraparound" `Quick test_ring_wraparound;
    Alcotest.test_case "span end survives wraparound" `Quick test_wraparound_span_end_survives;
    Alcotest.test_case "4-domain pool ring stress" `Quick test_pool_stress_wraparound;
    Alcotest.test_case "untraced domains keep no ring" `Quick test_untraced_domains_keep_no_ring;
    Alcotest.test_case "snapshot during metric growth" `Quick
      test_snapshot_during_metric_growth;
    Alcotest.test_case "log lines recorded in trace" `Quick test_log_lines_in_trace;
    Alcotest.test_case "chrome trace validates" `Quick test_chrome_trace_valid;
    Alcotest.test_case "trace_check rejects bad traces" `Quick test_trace_check_rejects_unbalanced;
    Alcotest.test_case "chrome trace numbers and strings read back" `Quick
      test_chrome_trace_reads_back;
    Alcotest.test_case "golden dips unchanged by tracing" `Quick test_golden_dips_with_tracing;
    Alcotest.test_case "split attack trace structure" `Quick test_split_trace_structure;
    qcheck_case ~count:300 "json to_string round-trips through parse_json" json_gen
      (fun v -> Trace_check.parse_json (Trace_check.to_string v) = v);
    qcheck_case ~count:300 "json to_line round-trips on one line" json_gen (fun v ->
        let line = Trace_check.to_line v in
        (not (String.contains line '\n')) && Trace_check.parse_json line = v);
    Alcotest.test_case "json to_string rejects non-finite and duplicate keys" `Quick
      test_to_string_rejects;
    Alcotest.test_case "json to_string layout" `Quick test_to_string_layout;
    Alcotest.test_case "bench fixed keeps printf decimals" `Quick test_fixed_decimals;
  ]
