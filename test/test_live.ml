(* Live observability layer: cursor delta determinism, sampler
   start/stop idempotence with the final flush sample, the determinism
   invariant (golden DIP sequences and cube trees byte-identical with the
   sampler on or off), ring-drop surfacing, stream protocol validation,
   Prometheus exposition, stream sinks, and the progress model's
   depth-weighted cube accounting. *)

open Helpers
module Tel = LL.Telemetry.Telemetry
module Live = LL.Telemetry.Live
module Export = LL.Telemetry.Export
module Trace_check = LL.Telemetry.Trace_check
module Progress = LL.Attack.Progress
module Oracle = LL.Attack.Oracle
module Sat_attack = LL.Attack.Sat_attack
module Split_attack = LL.Attack.Split_attack
module Cube_prep = LL.Attack.Cube_prep
module Cube_attack = LL.Attack.Cube_attack

(* Every test leaves the whole observability stack off and clean. *)
let with_live ?ring_capacity f =
  Tel.enable ?ring_capacity ();
  Fun.protect
    ~finally:(fun () ->
      Live.stop ();
      Progress.disable ();
      Progress.reset ();
      Tel.disable ();
      Tel.reset ())
    f

(* --- delta cursor --- *)

let m_counter = Tel.Metric.counter "live.test.counter"

let test_cursor_deltas () =
  with_live (fun () ->
      let cur = Live.cursor () in
      Tel.Metric.add m_counter 5;
      let s1 = Live.sample cur in
      Tel.Metric.add m_counter 3;
      let s2 = Live.sample cur in
      let delta s =
        match
          List.find_opt (fun (n, _, _) -> n = "live.test.counter") s.Live.s_counters
        with
        | Some (_, d, _) -> d
        | None -> Alcotest.fail "counter missing from sample"
      in
      Alcotest.(check int) "first delta vs cursor baseline" 5 (delta s1);
      Alcotest.(check int) "second delta vs previous sample" 3 (delta s2);
      Alcotest.(check int) "seq 1-based" 1 s1.Live.s_seq;
      Alcotest.(check int) "seq increments" 2 s2.Live.s_seq;
      Alcotest.(check bool) "time strictly increases" true
        (s2.Live.s_t_ns > s1.Live.s_t_ns);
      (* Every sample refreshes the GC gauges. *)
      List.iter
        (fun g ->
          Alcotest.(check bool) (g ^ " gauge present") true
            (List.mem_assoc g s2.Live.s_gauges))
        [ "gc.major_collections"; "gc.heap_words"; "gc.minor_words_per_s" ])

let test_two_cursors_independent () =
  with_live (fun () ->
      let a = Live.cursor () in
      Tel.Metric.add m_counter 4;
      let b = Live.cursor () in
      Tel.Metric.add m_counter 2;
      let da =
        match
          List.find_opt
            (fun (n, _, _) -> n = "live.test.counter")
            (Live.sample a).Live.s_counters
        with
        | Some (_, d, _) -> d
        | None -> 0
      and db =
        match
          List.find_opt
            (fun (n, _, _) -> n = "live.test.counter")
            (Live.sample b).Live.s_counters
        with
        | Some (_, d, _) -> d
        | None -> 0
      in
      Alcotest.(check int) "cursor a sees both increments" 6 da;
      Alcotest.(check int) "cursor b baselined later" 2 db)

(* --- background sampler --- *)

let test_sampler_start_stop_idempotent () =
  with_live (fun () ->
      let seen = ref 0 in
      let id = Live.subscribe (fun _ -> incr seen) in
      Fun.protect
        ~finally:(fun () -> Live.unsubscribe id)
        (fun () ->
          Alcotest.(check bool) "not running before start" false (Live.running ());
          Live.start ~interval_s:60.0 ();
          Live.start ~interval_s:60.0 ();
          (* idempotent *)
          Alcotest.(check bool) "running after start" true (Live.running ());
          Alcotest.(check (float 1e-9)) "interval recorded" 60.0 (Live.interval_s ());
          Live.stop ();
          Live.stop ();
          (* idempotent *)
          Alcotest.(check bool) "stopped" false (Live.running ());
          (* The interval never elapsed, but stop publishes a final flush
             sample before joining the sampler domain. *)
          Alcotest.(check bool) "at least one flush sample" true (!seen >= 1)))

let test_subscriber_exception_counted () =
  with_live (fun () ->
      let id = Live.subscribe (fun _ -> failwith "boom") in
      Fun.protect
        ~finally:(fun () -> Live.unsubscribe id)
        (fun () ->
          Live.start ~interval_s:60.0 ();
          Live.stop ();
          let snap = Tel.snapshot () in
          Alcotest.(check bool) "subscriber error counted" true
            (Option.value ~default:0
               (List.assoc_opt "live.subscriber_errors" snap.Tel.counters)
            >= 1)))

(* --- determinism: the sampler must not change attack behaviour --- *)

let sarlock4_golden_dips =
  "011001;011101;001101;010101;110101;110001;101101;111101;101001;111001;100001;000001;\
   010001;100101;000101"

let dip_string (r : Sat_attack.result) =
  String.concat ";" (List.map Bitvec.to_string r.Sat_attack.dips)

let observed f =
  with_live (fun () ->
      Progress.enable ();
      Live.start ~interval_s:0.01 ();
      Fun.protect ~finally:Live.stop f)

let test_golden_dips_sampler_on_off () =
  let c = random_circuit ~seed:5 ~num_inputs:6 ~num_outputs:3 ~gates:30 () in
  let locked = LL.Locking.Sarlock.lock ~prng:(Prng.create 4) ~key_size:4 c in
  let run () =
    Sat_attack.run locked.LL.Locking.Locked.circuit ~oracle:(Oracle.of_circuit c)
  in
  let off = run () in
  let on = observed run in
  Alcotest.(check string) "golden dips, sampler off" sarlock4_golden_dips
    (dip_string off);
  Alcotest.(check string) "byte-identical dips with sampler on" (dip_string off)
    (dip_string on)

let test_golden_dips_parallel_sampler_on_off () =
  let c = random_circuit ~seed:5 ~num_inputs:6 ~num_outputs:3 ~gates:30 () in
  let locked = LL.Locking.Sarlock.lock ~prng:(Prng.create 4) ~key_size:4 c in
  let run () =
    Split_attack.run_parallel ~num_domains:2 ~n:1 locked.LL.Locking.Locked.circuit
      ~oracle:(Oracle.of_circuit c)
  in
  let per_task (s : Split_attack.t) =
    Array.to_list s.Split_attack.tasks
    |> List.map (fun t -> dip_string t.Split_attack.result)
    |> String.concat "/"
  in
  let off = run () in
  let on = observed run in
  Alcotest.(check string) "parallel split dips identical under sampling"
    (per_task off) (per_task on)

(* One line per cube in canonical tree order (same fingerprint as the
   cube-attack golden tests). *)
let fingerprint (t : Cube_attack.t) =
  Array.to_list t.Cube_attack.cubes
  |> List.map (fun (c : Cube_attack.cube) ->
         let r = c.task.Cube_prep.result in
         Printf.sprintf "%s|%d|%d|%s"
           (Cube_prep.condition_string c.task.condition)
           r.Sat_attack.num_dips r.Sat_attack.imported
           (match c.resplit_input with Some i -> string_of_int i | None -> "-"))
  |> String.concat ";"

let test_golden_cube_tree_sampler_on_off () =
  let c = random_circuit ~seed:150 ~num_inputs:8 () in
  let locked = (LL.Locking.Sarlock.lock ~key_size:6 c).circuit in
  let config =
    {
      Cube_attack.default_config with
      n0 = 1;
      budget = { Cube_attack.default_budget with conflicts = None; dips = Some 4 };
    }
  in
  let run () = Cube_attack.run ~config locked ~oracle:(Oracle.of_circuit c) in
  let off = run () in
  let on = observed run in
  Alcotest.(check bool) "tree is non-trivial" true (Cube_attack.resplits off > 0);
  Alcotest.(check string) "cube tree identical under sampling" (fingerprint off)
    (fingerprint on)

(* --- ring drops surface to the operator --- *)

let test_drop_warning () =
  with_live ~ring_capacity:64 (fun () ->
      let cur = Live.cursor () in
      for i = 0 to 199 do
        Tel.instant ~a0:i "burst"
      done;
      let s = Live.sample cur in
      Alcotest.(check int) "drop delta on the sample" (200 - 64)
        s.Live.s_dropped_delta;
      let snap = Tel.snapshot () in
      match Export.drop_warning snap with
      | None -> Alcotest.fail "drop warning missing"
      | Some w ->
          Alcotest.(check bool) "warning names the remedy flag" true
            (let needle = "--trace-ring-size" in
             let n = String.length needle and len = String.length w in
             let rec find i =
               i + n <= len && (String.sub w i n = needle || find (i + 1))
             in
             find 0))

let test_no_drop_no_warning () =
  with_live (fun () ->
      Tel.instant "one";
      Alcotest.(check bool) "clean run has no warning" true
        (Export.drop_warning (Tel.snapshot ()) = None))

(* --- stream protocol --- *)

let stream_lines () =
  (* A well-formed capture: meta first, two deltas, two progress lines. *)
  with_live (fun () ->
      Progress.enable ();
      let cur = Live.cursor () in
      Tel.Metric.add m_counter 1;
      let s1 = Live.sample cur in
      Tel.Metric.add m_counter 1;
      let s2 = Live.sample cur in
      Progress.add_dips 3;
      let p1 = Progress.jsonl_line ~t_ns:s1.Live.s_t_ns (Progress.view ()) in
      Progress.add_dips 2;
      let p2 = Progress.jsonl_line ~t_ns:s2.Live.s_t_ns (Progress.view ()) in
      ( Export.stream_meta_line ~interval_s:0.25 (),
        Export.stream_delta_line s1,
        Export.stream_delta_line s2,
        p1,
        p2 ))

let test_stream_validates () =
  let meta, d1, d2, p1, p2 = stream_lines () in
  let s = String.concat "\n" [ meta; d1; p1; d2; p2 ] ^ "\n" in
  match Trace_check.validate_stream s with
  | Error errs -> Alcotest.failf "stream rejected: %s" (String.concat "; " errs)
  | Ok r ->
      Alcotest.(check int) "lines" 5 r.Trace_check.sr_lines;
      Alcotest.(check int) "one meta" 1 r.Trace_check.sr_meta;
      Alcotest.(check int) "two deltas" 2 r.Trace_check.sr_deltas;
      Alcotest.(check int) "two progress" 2 r.Trace_check.sr_progress;
      Alcotest.(check (list string)) "no errors" [] r.Trace_check.sr_errors

let test_stream_rejects_protocol_violations () =
  let meta, d1, d2, p1, p2 = stream_lines () in
  let rejects name lines =
    match Trace_check.validate_stream (String.concat "\n" lines ^ "\n") with
    | Ok r when r.Trace_check.sr_errors = [] -> Alcotest.failf "%s accepted" name
    | Ok _ | Error _ -> ()
  in
  rejects "delta before meta" [ d1; meta; d2 ];
  rejects "duplicate meta" [ meta; d1; meta; d2 ];
  rejects "non-increasing delta seq" [ meta; d1; d1 ];
  rejects "delta seq going backwards" [ meta; d2; d1 ];
  rejects "progress dips regressing" [ meta; d1; p2; p1 ];
  rejects "garbage line" [ meta; d1; "{not json" ];
  rejects "unknown record type" [ meta; {|{"type":"mystery"}|} ];
  let without key line =
    match Trace_check.parse_json line with
    | Trace_check.Obj fields -> Trace_check.to_line (Trace_check.Obj (List.remove_assoc key fields))
    | _ -> Alcotest.failf "not an object: %s" line
  in
  List.iter
    (fun key -> rejects ("delta without " ^ key) [ meta; without key d1 ])
    [ "counters"; "gauges"; "hist_deltas"; "dropped_delta"; "dropped_total" ];
  rejects "progress without cubes" [ meta; d1; without "cubes" p1 ]

(* Counter rates and gauges beyond six significant digits read back
   exactly from a delta record. *)
let test_stream_numbers_exact () =
  with_live (fun () ->
      let cur = Live.cursor () in
      Tel.Metric.add m_counter 7;
      Tel.Metric.set (Tel.Metric.gauge "live.test.gauge") 12345678.0;
      let s = Live.sample cur in
      let _, _, rate =
        List.find (fun (name, _, _) -> name = "live.test.counter") s.Live.s_counters
      in
      let delta = Trace_check.parse_json (Export.stream_delta_line s) in
      let field record key = Option.bind (Trace_check.member record delta) (Trace_check.member key) in
      Alcotest.(check bool) "counter delta and rate exact" true
        (field "counters" "live.test.counter"
        = Some (Trace_check.Arr [ Trace_check.Num 7.0; Trace_check.Num rate ]));
      Alcotest.(check bool) "gauge exact" true
        (field "gauges" "live.test.gauge" = Some (Trace_check.Num 12345678.0)))

(* --- prometheus exposition --- *)

let test_prom_name () =
  Alcotest.(check string) "dots sanitized, prefixed" "ll_attack_dips"
    (Export.prom_name "attack.dips")

let test_prometheus_exposition () =
  with_live (fun () ->
      Tel.Metric.add m_counter 7;
      Tel.Metric.set (Tel.Metric.gauge "live.test.gauge") 1.5;
      Tel.Metric.observe
        (Tel.Metric.histogram ~buckets:[| 1.0; 2.0 |] "live.test.hist")
        1.5;
      let s = Export.prometheus_string (Tel.snapshot ()) in
      Alcotest.(check bool) "counter typed" true
        (contains s "# TYPE ll_live_test_counter counter");
      Alcotest.(check bool) "gauge typed" true
        (contains s "# TYPE ll_live_test_gauge gauge");
      Alcotest.(check bool) "histogram cumulative buckets" true
        (contains s "ll_live_test_hist_bucket{le=\"+Inf\"}");
      Alcotest.(check bool) "histogram count" true
        (contains s "ll_live_test_hist_count 1"))

(* --- stream sinks --- *)

let test_file_sink () =
  let path = Filename.temp_file "ll_sink" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let sink = Live.open_sink path in
      sink.Live.sink_write {|{"type":"meta"}|};
      sink.Live.sink_write {|{"type":"delta"}|};
      sink.Live.sink_close ();
      let ic = open_in path in
      let contents = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Alcotest.(check string) "one line per write, newline-terminated"
        "{\"type\":\"meta\"}\n{\"type\":\"delta\"}\n" contents)

(* --- progress model --- *)

let with_progress f =
  Progress.enable ();
  Fun.protect
    ~finally:(fun () ->
      Progress.disable ();
      Progress.reset ())
    f

let test_progress_counters () =
  with_progress (fun () ->
      Progress.add_dips 5;
      Progress.add_imported 3;
      Progress.set_key_bits 12;
      let v = Progress.view () in
      Alcotest.(check int) "dips" 5 v.Progress.v_dips;
      Alcotest.(check int) "imported" 3 v.Progress.v_imported;
      Alcotest.(check int) "key bits" 12 v.Progress.v_key_bits;
      Alcotest.(check (float 1e-9)) "keyspace counts dips and imports"
        (Progress.keyspace_log2 ~key_bits:12 ~constraints:8)
        v.Progress.v_keyspace_log2;
      Alcotest.(check bool) "dip rate moving" true (v.Progress.v_dip_rate > 0.0))

let test_progress_disabled_feeders_noop () =
  Progress.reset ();
  Alcotest.(check bool) "disabled by default" false (Progress.enabled ());
  Progress.add_dips 100;
  Progress.cube_created ~depth:0;
  Alcotest.(check int) "feeders ignored while disabled" 0
    (Progress.view ()).Progress.v_dips

let test_progress_cube_coverage () =
  with_progress (fun () ->
      Progress.cube_created ~depth:1;
      Progress.cube_created ~depth:1;
      Progress.cube_started ~depth:1;
      let before = Progress.view () in
      Alcotest.(check (float 1e-9)) "nothing solved yet" 0.0
        before.Progress.v_coverage;
      Alcotest.(check (float 1e-9)) "eta unknown before first solve" (-1.0)
        before.Progress.v_eta_s;
      Progress.cube_solved ~depth:1;
      let v = Progress.view () in
      Alcotest.(check int) "one pending" 1 v.Progress.v_cubes_pending;
      Alcotest.(check int) "one solved" 1 v.Progress.v_cubes_solved;
      Alcotest.(check (float 1e-9)) "half the input space covered" 0.5
        v.Progress.v_coverage;
      Alcotest.(check bool) "eta now estimable" true (v.Progress.v_eta_s >= 0.0))

let test_progress_resplit_weight_invariant () =
  with_progress (fun () ->
      (* A depth-0 cube is stopped and re-split into two depth-1 children:
         the removed weight (1) equals the weight added back (1/2 + 1/2),
         so solving both children means full coverage. *)
      Progress.cube_created ~depth:0;
      Progress.cube_started ~depth:0;
      Progress.cube_stopped ~depth:0;
      Progress.cube_created ~depth:1;
      Progress.cube_created ~depth:1;
      Progress.cube_started ~depth:1;
      Progress.cube_solved ~depth:1;
      Progress.cube_started ~depth:1;
      Progress.cube_solved ~depth:1;
      let v = Progress.view () in
      Alcotest.(check int) "stop recorded" 1 v.Progress.v_cubes_stopped;
      Alcotest.(check (float 1e-9)) "re-split preserves total weight" 1.0
        v.Progress.v_coverage)

let test_keyspace_log2 () =
  Alcotest.(check (float 1e-9)) "2^4 keys minus one constraint"
    (Float.log2 15.0)
    (Progress.keyspace_log2 ~key_bits:4 ~constraints:1);
  Alcotest.(check (float 1e-9)) "no constraints yet" 4.0
    (Progress.keyspace_log2 ~key_bits:4 ~constraints:0);
  Alcotest.(check bool) "unknown width" true
    (Progress.keyspace_log2 ~key_bits:0 ~constraints:3 < 0.0)

let test_progress_renderers () =
  with_progress (fun () ->
      Progress.add_dips 4;
      Progress.set_key_bits 8;
      let v = Progress.view () in
      (* The JSONL record must parse and be a valid stream progress line. *)
      (match Trace_check.parse_json (Progress.jsonl_line ~t_ns:42 v) with
      | Trace_check.Obj fields ->
          Alcotest.(check bool) "typed progress" true
            (List.assoc_opt "type" fields = Some (Trace_check.Str "progress"));
          Alcotest.(check bool) "dips serialized" true
            (List.assoc_opt "dips" fields = Some (Trace_check.Num 4.0))
      | _ -> Alcotest.fail "progress line is not an object");
      let line = Progress.status_line v in
      Alcotest.(check bool) "status line mentions dips" true (contains line "dip"))

let suite =
  [
    Alcotest.test_case "cursor deltas are exact" `Quick test_cursor_deltas;
    Alcotest.test_case "cursors are independent" `Quick test_two_cursors_independent;
    Alcotest.test_case "sampler start/stop idempotent + flush" `Quick
      test_sampler_start_stop_idempotent;
    Alcotest.test_case "subscriber exceptions counted" `Quick
      test_subscriber_exception_counted;
    Alcotest.test_case "golden dips unchanged by sampler" `Quick
      test_golden_dips_sampler_on_off;
    Alcotest.test_case "parallel dips unchanged by sampler" `Quick
      test_golden_dips_parallel_sampler_on_off;
    Alcotest.test_case "cube tree unchanged by sampler" `Quick
      test_golden_cube_tree_sampler_on_off;
    Alcotest.test_case "ring drops raise a warning" `Quick test_drop_warning;
    Alcotest.test_case "no drops, no warning" `Quick test_no_drop_no_warning;
    Alcotest.test_case "stream round-trip validates" `Quick test_stream_validates;
    Alcotest.test_case "stream protocol violations rejected" `Quick
      test_stream_rejects_protocol_violations;
    Alcotest.test_case "stream numbers read back exactly" `Quick test_stream_numbers_exact;
    Alcotest.test_case "prometheus metric names" `Quick test_prom_name;
    Alcotest.test_case "prometheus exposition" `Quick test_prometheus_exposition;
    Alcotest.test_case "file sink appends lines" `Quick test_file_sink;
    Alcotest.test_case "progress counters" `Quick test_progress_counters;
    Alcotest.test_case "disabled progress feeders are no-ops" `Quick
      test_progress_disabled_feeders_noop;
    Alcotest.test_case "cube coverage is depth-weighted" `Quick
      test_progress_cube_coverage;
    Alcotest.test_case "re-split preserves weight" `Quick
      test_progress_resplit_weight_invariant;
    Alcotest.test_case "keyspace log2 bound" `Quick test_keyspace_log2;
    Alcotest.test_case "progress renderers" `Quick test_progress_renderers;
  ]
