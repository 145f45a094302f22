(* Metric definitions and their computation from the samples of a run.

   [end_to_end] and [per_layer] are the metric sets BENCHMARK.json
   declares; the last line of a run carries exactly one of them, and the
   perf-smoke check fails when the declaration and this list disagree.
   Everything else a run prints (sample and kind counts, [failed_ratio],
   the table2-lut baseline figures) is for the reader. *)

module W = Workloads
module Tel = Logiclock.Telemetry.Telemetry

type metric = { name : string; value : float; unit_ : string }

let end_to_end =
  [
    ("setup_s", "s");
    ("wall_s", "s");
    ("break_s", "s");
    ("attack_s", "s");
    ("max_task_s", "s");
    ("max_rss_mb", "MB");
  ]

let per_layer =
  [
    ("pool.busy_ratio", "ratio");
    ("pool.idle_s", "s");
    ("pool.steals", "count");
    ("pool.spawn_s", "s");
    ("pool.speedup_vs_serial", "ratio");
    ("sat.solve_s", "s");
    ("sat.solve_share", "ratio");
    ("sat.conflicts", "count");
    ("sat.decisions", "count");
    ("sat.propagations", "count");
    ("sat.solves", "count");
    ("sat.props_per_s", "1/s");
    ("sat.imported_clauses", "count");
    ("attack.s", "s");
    ("attack.dips", "count");
    ("attack.max_task_dips", "count");
    ("attack.dips_per_s", "1/s");
    ("attack.task_s_p50", "s");
    ("attack.task_s_p90", "s");
    ("attack.dip_loop_s", "s");
    ("attack.dip_loop_us_per_dip", "us");
    ("attack.rounds", "count");
    ("attack.prepare_s", "s");
    ("attack.fanout_s", "s");
    ("kernel.cofactors", "count");
    ("kernel.encodes", "count");
    ("oracle.queries", "count");
    ("oracle.queries_per_dip", "ratio");
    ("cube.resplits", "count");
    ("cube.leaves", "count");
    ("cube.max_depth", "count");
    ("cube.imported_entries", "count");
    ("cube.useful_dip_ratio", "ratio");
    ("compose.s", "s");
    ("compose.gates", "count");
    ("equiv.s", "s");
    ("equiv.share", "ratio");
    ("netlist.parse_s", "s");
    ("cli.process_overhead_s", "s");
    ("gc.minor_words", "words");
    ("gc.minor_collections", "count");
    ("gc.major_collections", "count");
    ("bench.break_s", "s");
    ("bench.trace_overhead", "ratio");
    ("bench.trace_dropped_events", "count");
    ("unattributed_s", "s");
  ]

let unit_of set name =
  match List.assoc_opt name set with
  | Some u -> u
  | None -> invalid_arg ("Metrics: undeclared metric " ^ name)

let e2e name value = { name; value; unit_ = unit_of end_to_end name }

let layer name value = { name; value; unit_ = unit_of per_layer name }

let extra name unit_ value = { name; value; unit_ }

let fsum f xs = List.fold_left (fun a x -> a +. f x) 0.0 xs

let isum f xs = List.fold_left (fun a x -> a + f x) 0 xs

let verified (s : W.sample) = s.verdict = W.Verified

(* Timings use the verified operations; a run in which none verified
   still reports, from everything it timed. *)
let timed_samples samples =
  match List.filter verified samples with [] -> samples | ok -> ok

(* The typical value of a per-instance quantity: the median over the
   instances of each kind, combined across kinds by geometric mean.  Every
   kind of a mixed workload weighs alike, and the value does not jump
   from one kind's cluster to another's as lock seeds change. *)
let typical f samples =
  let kind (s : W.sample) = W.kind_of_id s.id in
  let kinds = List.sort_uniq compare (List.map kind samples) in
  Stats.geomean
    (List.map
       (fun k -> Stats.median (List.filter_map (fun s -> if kind s = k then Some (f s) else None) samples))
       kinds)

let vm_hwm_mb () = float (W.vm_hwm_kb "self") /. 1024.0

(* [rounds]: the samples of each measured round, in order. *)
let end_to_end_metrics ~setup_s ~round_walls ~rounds =
  let all = List.concat rounds in
  let t = timed_samples all in
  let rss_kb = List.fold_left (fun m (s : W.sample) -> max m s.rss_kb) 0 all in
  let failed = List.length (List.filter (fun s -> not (verified s)) all) in
  let kinds = List.length (List.sort_uniq compare (List.map (fun (s : W.sample) -> W.kind_of_id s.id) t)) in
  let baseline_extras =
    match List.filter (fun (s : W.sample) -> s.baseline_s <> None) t with
    | [] -> []
    | b ->
        let baseline (s : W.sample) = Option.get s.baseline_s in
        [
          extra "baseline_s" "s" (typical baseline b);
          extra "max_task_over_baseline" "ratio" (typical (fun s -> Stats.ratio s.max_task_s (baseline s)) b);
        ]
  in
  [
    e2e "setup_s" (Stats.median setup_s);
    e2e "wall_s" (Stats.median round_walls);
    e2e "break_s" (typical (fun s -> s.break_s) t);
    e2e "attack_s" (typical (fun s -> s.attack_s) t);
    e2e "max_task_s" (typical (fun s -> s.max_task_s) t);
    e2e "max_rss_mb" (max (vm_hwm_mb ()) (float rss_kb /. 1024.0));
    extra "samples" "count" (float (List.length t));
    extra "kinds" "count" (float kinds);
    extra "failed_ratio" "ratio" (Stats.ratio (float failed) (float (List.length all)));
  ]
  @ baseline_extras

(* ------------------------------------------------------------------ *)
(* Per-layer attribution of the traced round                            *)
(* ------------------------------------------------------------------ *)

let ns_to_s ns = float ns /. 1e9

let span_end (s : Tel.span) = s.sp_start_ns + s.sp_dur_ns

let inside (w : Tel.span) (s : Tel.span) =
  s.sp_start_ns >= w.sp_start_ns && span_end s <= span_end w

(* The benchmark's own spans split every instance window into the layers
   it called (direct children on the benchmark's domain) and the
   remainder no layer covers, so the layers sum to the window. *)
type attribution = {
  instance_s : float;
  by_layer : (string * float) list;
  unattributed_s : float;
  pool_idle_s : float;  (** ["pool.idle"] spans of any domain inside the windows *)
  solve_span_s : float;  (** every ["sat.solve"] span of the run *)
}

let layer_spans = [ "attack.run"; "compose.build"; "equiv.check"; "netlist.parse" ]

let attribute (snap : Tel.snapshot) =
  let spans = Tel.spans snap in
  let windows = List.filter (fun (s : Tel.span) -> s.sp_name = "bench.instance") spans in
  let in_any s = List.exists (fun w -> inside w s) windows in
  let child (w : Tel.span) (s : Tel.span) =
    s.sp_domain = w.sp_domain && s.sp_depth = w.sp_depth + 1 && inside w s
  in
  let total name =
    List.fold_left
      (fun acc (s : Tel.span) ->
        if s.sp_name = name && List.exists (fun w -> child w s) windows then acc + s.sp_dur_ns
        else acc)
      0 spans
  in
  let by_layer = List.map (fun name -> (name, ns_to_s (total name))) layer_spans in
  let instance_s = ns_to_s (List.fold_left (fun a (w : Tel.span) -> a + w.sp_dur_ns) 0 windows) in
  let named name pred =
    List.fold_left
      (fun a (s : Tel.span) -> if s.sp_name = name && pred s then a + s.sp_dur_ns else a)
      0 spans
  in
  {
    instance_s;
    by_layer;
    unattributed_s = instance_s -. List.fold_left (fun a (_, t) -> a +. t) 0.0 by_layer;
    pool_idle_s = ns_to_s (named "pool.idle" in_any);
    solve_span_s = ns_to_s (named "sat.solve" (fun _ -> true));
  }

type trace_run = {
  untraced : W.sample list;  (** the traced instances, in-process, tracing off *)
  processes : W.sample list;  (** cli-pipeline: the jobs as processes; else [] *)
  snap : Tel.snapshot;
  attribution : attribution;
  serial_vs_parallel : (float * float) list;
  standalone : (float * float) list;
  gc : Gc.stat * Gc.stat;  (** around the untraced in-process round *)
  spawn_s : float;
  traced_wall : float;
  untraced_wall : float;
}

let counter (snap : Tel.snapshot) name =
  float (Option.value ~default:0 (List.assoc_opt name snap.counters))

(* Span-derived figures come from the traced round; figures the layers
   return come from the untraced round of the same instances, so tracing
   does not inflate them. *)
let per_layer_metrics r =
  let a = r.attribution in
  let sessions = List.concat_map (fun (s : W.sample) -> s.sessions) r.untraced in
  let task_times = List.map (fun (x : W.session) -> x.time_s) sessions in
  let session_s = fsum (fun (x : W.session) -> x.time_s) sessions in
  let solve_s = fsum (fun (x : W.session) -> x.solve_s) sessions in
  let session_dips = float (isum (fun (x : W.session) -> x.dips) sessions) in
  let pooled = List.filter (fun (s : W.sample) -> s.pool_domains > 0) r.untraced in
  let dip_loop_s = session_s -. solve_s in
  let g0, g1 = r.gc in
  let by name = List.assoc name a.by_layer in
  let percentile f = match task_times with [] -> 0.0 | xs -> f xs in
  let queries = float (isum (fun (s : W.sample) -> s.oracle_queries) r.untraced) in
  let tree f = isum (fun (s : W.sample) -> f s.W.tree) r.untraced in
  let dips = isum (fun (s : W.sample) -> s.dips) r.untraced in
  [
    layer "pool.busy_ratio"
      (Stats.ratio
         (fsum (fun (s : W.sample) -> s.pool_task_s) pooled)
         (fsum (fun (s : W.sample) -> float s.pool_domains *. s.attack_s) pooled));
    layer "pool.idle_s" a.pool_idle_s;
    layer "pool.steals" (counter r.snap "pool.steals");
    layer "pool.spawn_s" r.spawn_s;
    layer "pool.speedup_vs_serial"
      (Stats.ratio (fsum fst r.serial_vs_parallel) (fsum snd r.serial_vs_parallel));
    layer "sat.solve_s" solve_s;
    layer "sat.solve_share" (Stats.ratio solve_s session_s);
    layer "sat.conflicts" (counter r.snap "sat.conflicts");
    layer "sat.decisions" (counter r.snap "sat.decisions");
    layer "sat.propagations" (counter r.snap "sat.propagations");
    layer "sat.solves" (counter r.snap "sat.solves");
    layer "sat.props_per_s" (Stats.ratio (counter r.snap "sat.propagations") a.solve_span_s);
    layer "sat.imported_clauses" (counter r.snap "sat.imported_clauses");
    layer "attack.s" (by "attack.run");
    layer "attack.dips" (float dips);
    layer "attack.max_task_dips"
      (float (List.fold_left (fun m (s : W.sample) -> max m s.max_task_dips) 0 r.untraced));
    layer "attack.dips_per_s"
      (Stats.ratio (float dips) (fsum (fun (s : W.sample) -> s.attack_s) r.untraced));
    layer "attack.task_s_p50" (percentile Stats.median);
    layer "attack.task_s_p90" (percentile Stats.p90);
    layer "attack.dip_loop_s" dip_loop_s;
    layer "attack.dip_loop_us_per_dip" (1e6 *. Stats.ratio dip_loop_s session_dips);
    layer "attack.rounds" (float (isum (fun (x : W.session) -> x.rounds) sessions));
    layer "attack.prepare_s" (fsum fst r.standalone);
    layer "attack.fanout_s" (fsum snd r.standalone);
    layer "kernel.cofactors" (counter r.snap "kernel.cofactors");
    layer "kernel.encodes" (counter r.snap "kernel.encodes");
    layer "oracle.queries" queries;
    layer "oracle.queries_per_dip" (Stats.ratio queries session_dips);
    layer "cube.resplits" (float (tree (fun t -> t.resplits)));
    layer "cube.leaves" (float (tree (fun t -> t.leaves)));
    layer "cube.max_depth"
      (float (List.fold_left (fun m (s : W.sample) -> max m s.tree.max_depth) 0 r.untraced));
    layer "cube.imported_entries" (float (tree (fun t -> t.imported)));
    layer "cube.useful_dip_ratio"
      (Stats.ratio (float (tree (fun t -> t.leaf_dips))) (float dips));
    layer "compose.s" (by "compose.build");
    layer "compose.gates" (float (isum (fun (s : W.sample) -> s.compose_gates) r.untraced));
    layer "equiv.s" (by "equiv.check");
    layer "equiv.share" (Stats.ratio (by "equiv.check") a.instance_s);
    layer "netlist.parse_s" (by "netlist.parse");
    layer "cli.process_overhead_s"
      (match r.processes with
      | [] -> 0.0
      | ps -> fsum (fun (s : W.sample) -> s.break_s) ps -. fsum (fun (s : W.sample) -> s.break_s) r.untraced);
    layer "gc.minor_words" (g1.Gc.minor_words -. g0.Gc.minor_words);
    layer "gc.minor_collections" (float (g1.Gc.minor_collections - g0.Gc.minor_collections));
    layer "gc.major_collections" (float (g1.Gc.major_collections - g0.Gc.major_collections));
    layer "bench.break_s" a.instance_s;
    layer "bench.trace_overhead" (Stats.ratio r.traced_wall r.untraced_wall);
    layer "bench.trace_dropped_events" (float r.snap.dropped_events);
    layer "unattributed_s" a.unattributed_s;
  ]

(* ------------------------------------------------------------------ *)
(* Output                                                               *)
(* ------------------------------------------------------------------ *)

let print_table title metrics =
  Printf.printf "%s:\n" title;
  List.iter (fun m -> Printf.printf "  %-30s %18.6f %s\n" m.name m.value m.unit_) metrics

let json_number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else if Float.is_finite x then Printf.sprintf "%.17g" x
  else invalid_arg "Metrics.json_number: not finite"

(* The result line: exactly the declared set [names], in order. *)
let json_line ~correct ~attempted ~failed ~names metrics =
  let field (name, _) =
    match List.find_opt (fun m -> m.name = name) metrics with
    | Some m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number m.value) m.unit_
    | None -> invalid_arg ("Metrics.json_line: missing " ^ name)
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed
    (String.concat ", " (List.map field names))
