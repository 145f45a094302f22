(* Benchmark harness regenerating every table and figure of the paper
   "Late Breaking Results: On the One-Key Premise of Logic Locking"
   (DAC'24).

   Usage:
     dune exec bench/main.exe                 # everything, laptop-scaled
     dune exec bench/main.exe fig1a fig1b     # selected sections
     dune exec bench/main.exe table1 full     # include the K=12 row
     dune exec bench/main.exe table2 micro ablation

   An unknown section name exits 2 and lists the valid ones.

   Sections: fig1a fig1b table1 table2 exact micro ablation smoke.  The
   "smoke" section is a seconds-scale scheduler check wired into
   [dune runtest] via the [bench-smoke] alias; any section that exercises
   the split-attack schedulers also appends a machine-readable record to
   BENCH_split.json.  See EXPERIMENTS.md for paper-vs-measured numbers
   and scaling notes. *)

module LL = Logiclock
module Circuit = LL.Netlist.Circuit
module Bitvec = LL.Util.Bitvec
module Prng = LL.Util.Prng
module Timer = LL.Util.Timer
module Oracle = LL.Attack.Oracle
module Sat_attack = LL.Attack.Sat_attack
module Split_attack = LL.Attack.Split_attack
module Tel = LL.Telemetry.Telemetry

let sections =
  let requested =
    Array.to_list Sys.argv |> List.tl |> List.map String.lowercase_ascii
  in
  let all =
    [
      "fig1a"; "fig1b"; "table1"; "table2"; "exact"; "micro"; "ablation"; "smoke";
      "sat"; "eval";
    ]
  in
  (* Selectable but not part of a default run: "satsmoke" is the tiny
     SAT-core suite behind the [bench-sat-smoke] CI alias, a subset of
     "sat"; "evalsmoke" likewise for the compiled-kernel suite behind
     [bench-eval-smoke]; "cube" is the adaptive cube-and-conquer vs
     fixed-N comparison (BENCH_cube.json), "cubesmoke" its seconds-scale
     subset behind [bench-cube-smoke]; "keypop"/"keypopsmoke" is the exact
     key-population grid behind [bench-keypop-smoke] (BENCH_keypop.json). *)
  let extras =
    [
      "satsmoke"; "evalsmoke"; "cube"; "cubesmoke"; "keypop"; "keypopsmoke";
    ]
  in
  (* "full" is a modifier, not a section.  A typo must not fall through
     to a default run of every section, which includes the hours-long
     table2. *)
  (match
     List.filter (fun s -> not (List.mem s ("full" :: all @ extras))) requested
   with
  | [] -> ()
  | unknown ->
      Printf.eprintf "error: unknown section(s) %s; valid sections: %s (modifier: full)\n"
        (String.concat ", " unknown)
        (String.concat " " (all @ extras));
      exit 2);
  match List.filter (fun s -> s <> "full") requested with
  | [] -> all
  | chosen -> chosen

let full_mode = List.mem "full" (Array.to_list Sys.argv |> List.map String.lowercase_ascii)

let want s = List.mem s sections

let header title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* ------------------------------------------------------------------ *)
(* Split-attack scheduler comparison: serial vs the work-stealing      *)
(* pool.  Records accumulate across sections and are written to        *)
(* BENCH_split.json at exit.                                           *)
(* ------------------------------------------------------------------ *)

let split_records : Bench_record.record list ref = ref []

(* Per-task DIP-iteration trajectories out of a telemetry snapshot: for
   each "split.task" span, the durations of the "attack.dip" spans nested
   inside it on the same domain, in iteration order.  A span's note is
   its cofactor's condition, which maps it to its task index (its a0 is
   the cube depth).  The last entry of each trajectory is the closing
   Unsat solve that proves no DIP remains. *)
let dip_trajectories snap (tasks : Split_attack.task array) =
  let spans = Tel.spans snap in
  let task_spans = List.filter (fun s -> s.Tel.sp_name = "split.task") spans in
  let dip_spans = List.filter (fun s -> s.Tel.sp_name = "attack.dip") spans in
  let index =
    List.mapi
      (fun i (t : Split_attack.task) -> (LL.Attack.Cube_prep.condition_string t.condition, i))
      (Array.to_list tasks)
  in
  let traj = Array.make (Array.length tasks) [||] in
  List.iter
    (fun (t : Tel.span) ->
      match List.assoc_opt t.Tel.sp_note index with
      | None -> ()
      | Some i -> begin
        let t_end = t.Tel.sp_start_ns + t.Tel.sp_dur_ns in
        let mine =
          List.filter
            (fun (d : Tel.span) ->
              d.Tel.sp_domain = t.Tel.sp_domain
              && d.Tel.sp_start_ns >= t.Tel.sp_start_ns
              && d.Tel.sp_start_ns < t_end)
            dip_spans
          |> List.sort (fun a b -> compare a.Tel.sp_a0 b.Tel.sp_a0)
        in
        traj.(i) <-
          Array.of_list (List.map (fun d -> float_of_int d.Tel.sp_dur_ns *. 1e-9) mine)
      end)
    task_spans;
  traj

let counter snap name =
  Option.value ~default:0 (List.assoc_opt name snap.Tel.counters)

let split_sched_bench ~section ~name ~n locked ~oracle =
  (* Each run also reports its allocation delta (minor words allocated by
     this domain, exact from [Gc.minor_words]; major words from
     [Gc.quick_stat]), so scheduler and solver changes show their
     allocation cost next to their wall time.  The two timed runs are
     untraced — they are the numbers the <2% disabled-overhead criterion
     is judged on; a third, traced stealing run supplies the solver
     counters and per-iteration trajectories. *)
  let time f =
    let g0 = Gc.quick_stat () and m0 = Gc.minor_words () in
    let t0 = Timer.monotonic () in
    let r = f () in
    let wall = Timer.monotonic () -. t0 in
    let g1 = Gc.quick_stat () and m1 = Gc.minor_words () in
    ( r,
      wall,
      m1 -. m0,
      g1.Gc.major_words -. g0.Gc.major_words )
  in
  let domains = 4 in
  let serial, serial_wall, serial_minor, serial_major =
    time (fun () -> Split_attack.run ~n locked ~oracle)
  in
  let pool = LL.Runtime.Pool.create ~num_domains:domains () in
  let steal, steal_wall, _, _ =
    time (fun () -> Split_attack.run_parallel ~pool ~n locked ~oracle)
  in
  let stats = LL.Runtime.Pool.stats pool in
  LL.Runtime.Pool.shutdown pool;
  (* Traced replay on a fresh pool: byte-identical results (determinism is
     scheduling- and telemetry-independent), now with spans and counters. *)
  Tel.enable ();
  let traced, traced_wall, _, _ =
    time (fun () ->
        LL.Runtime.Pool.with_pool ~num_domains:domains (fun pool ->
            Split_attack.run_parallel ~pool ~n locked ~oracle))
  in
  let snap = Tel.snapshot () in
  Tel.disable ();
  let num_tasks = Array.length steal.Split_attack.tasks in
  let traj = dip_trajectories snap steal.Split_attack.tasks in
  let task_dips =
    Array.map (fun (t : Split_attack.task) -> t.result.Sat_attack.num_dips) traced.Split_attack.tasks
  in
  let matches_serial =
    Array.for_all2
      (fun (a : Split_attack.task) (b : Split_attack.task) ->
        a.result.Sat_attack.num_dips = b.result.Sat_attack.num_dips
        && a.result.Sat_attack.key = b.result.Sat_attack.key)
      serial.Split_attack.tasks steal.Split_attack.tasks
  in
  Printf.printf
    "  %-16s serial %6.3f s | stealing(%d) %6.3f s, %d steals\n\
    \  %-16s per task min %.3f / mean %.3f / max %.3f s, identical to serial: %b\n\
    \  %-16s traced %6.3f s, %d events, %d conflicts, %d propagations\n%!"
    name serial_wall domains steal_wall stats.LL.Runtime.Pool.steals ""
    (Split_attack.min_task_time steal)
    (Split_attack.mean_task_time steal)
    (Split_attack.max_task_time steal)
    matches_serial ""
    traced_wall
    (Array.length snap.Tel.events)
    (counter snap "sat.conflicts")
    (counter snap "sat.propagations")
  ;
  let record =
    Bench_record.
      [
        ("section", str section);
        ("workload", str name);
        ("n", int n);
        ("num_tasks", int num_tasks);
        ("domains", int domains);
        ("serial_wall_s", fixed 6 serial_wall);
        ("stealing_wall_s", fixed 6 steal_wall);
        ("traced_wall_s", fixed 6 traced_wall);
        ("task_min_s", fixed 6 (Split_attack.min_task_time steal));
        ("task_mean_s", fixed 6 (Split_attack.mean_task_time steal));
        ("task_max_s", fixed 6 (Split_attack.max_task_time steal));
        ("steals", int stats.LL.Runtime.Pool.steals);
        ("tasks_run", int stats.LL.Runtime.Pool.tasks_run);
        ("matches_serial", bool matches_serial);
        ("serial_gc_minor_words", fixed 0 serial_minor);
        ("serial_gc_major_words", fixed 0 serial_major);
        ("sat_conflicts", int (counter snap "sat.conflicts"));
        ("sat_propagations", int (counter snap "sat.propagations"));
        ("sat_restarts", int (counter snap "sat.restarts"));
        ("oracle_queries", int (counter snap "attack.oracle_queries"));
        ("trace_events", int (Array.length snap.Tel.events));
        ("trace_dropped_events", int snap.Tel.dropped_events);
        ("task_dips", ints task_dips);
        ("task_iters_s", J.Arr (Array.to_list (Array.map (fixeds 6) traj)));
      ]
    @ Bench_gc.json_fields ~minor_words:serial_minor ~wall_s:serial_wall
  in
  split_records := record :: !split_records

(* ------------------------------------------------------------------ *)
(* Fig. 1(a): error distribution of a 3-input/3-key SARLock circuit.   *)
(* ------------------------------------------------------------------ *)

let fig1_locked () =
  let original =
    LL.Bench_suite.Generator.random_circuit ~seed:3 ~num_inputs:3 ~num_outputs:2 ~gates:8 ()
  in
  let locked =
    LL.Locking.Sarlock.lock ~key:(Bitvec.of_string "101") ~key_size:3 original
  in
  (original, locked)

let fig1a () =
  header "Figure 1(a): error distribution, SARLock |I| = |K| = 3, correct key 101";
  let original, locked = fig1_locked () in
  let m = LL.Attack.Analysis.error_matrix ~original ~locked:locked.LL.Locking.Locked.circuit () in
  Format.printf "%a" LL.Attack.Analysis.pp m;
  let show keys = String.concat ", " (List.map string_of_int keys) in
  Printf.printf "globally correct keys   : %s\n"
    (show (LL.Attack.Analysis.correct_keys m));
  Printf.printf "keys unlocking msb=0    : %s\n"
    (show (LL.Attack.Analysis.unlocking_keys m ~condition:[ (2, false) ]));
  Printf.printf "keys unlocking msb=1    : %s\n"
    (show (LL.Attack.Analysis.unlocking_keys m ~condition:[ (2, true) ]));
  Printf.printf
    "paper: each wrong key corrupts exactly one input pattern; 3 incorrect keys\n\
     unlock each half.  Measured matrix above shows the same structure.\n"

let fig1b () =
  header "Figure 1(b): two incorrect keys + MUX = unlocked design";
  let original, locked = fig1_locked () in
  let m = LL.Attack.Analysis.error_matrix ~original ~locked:locked.circuit () in
  let correct = Bitvec.to_int locked.correct_key in
  let pick cond =
    match
      List.find_opt (fun k -> k <> correct) (LL.Attack.Analysis.unlocking_keys m ~condition:cond)
    with
    | Some k -> k
    | None -> correct
  in
  let k0 = pick [ (2, false) ] and k1 = pick [ (2, true) ] in
  let composed =
    LL.Attack.Compose.build_cubes locked.circuit
      ~cubes:
        [|
          ([ (2, false) ], Bitvec.of_int ~width:3 k0);
          ([ (2, true) ], Bitvec.of_int ~width:3 k1);
        |]
  in
  Printf.printf "keys used: %d (msb=0 half), %d (msb=1 half); correct key is %d\n" k0 k1
    correct;
  (match LL.Attack.Equiv.check original composed with
  | LL.Attack.Equiv.Equivalent ->
      Printf.printf "SAT equivalence check: composed netlist == original design  [OK]\n"
  | LL.Attack.Equiv.Counterexample _ ->
      Printf.printf "SAT equivalence check: MISMATCH  [unexpected]\n");
  Printf.printf "composed netlist size: %d gates (locked: %d)\n"
    (Circuit.gate_count composed)
    (Circuit.gate_count locked.circuit)

(* ------------------------------------------------------------------ *)
(* Table 1: #DIP for SARLock-locked c7552, K in {4,8,12}, N in 0..4.   *)
(* ------------------------------------------------------------------ *)

let table1 () =
  header "Table 1: #DIP results for SARLock-locked c7552";
  let c = LL.Bench_suite.Iscas.get "c7552" in
  let oracle = Oracle.of_circuit c in
  let key_sizes = [ 4; 8; 12 ] in
  ignore full_mode;
  Printf.printf "%-8s %18s %6s %6s %6s %6s\n" "" "N=0 (baseline)" "N=1" "N=2" "N=3" "N=4";
  List.iter
    (fun k ->
      let locked = LL.Locking.Sarlock.lock ~prng:(Prng.create k) ~key_size:k c in
      let row =
        List.map
          (fun n ->
            if n = 0 then
              let r = Sat_attack.run locked.LL.Locking.Locked.circuit ~oracle in
              r.Sat_attack.num_dips
            else begin
              let s = Split_attack.run ~n locked.circuit ~oracle in
              Array.fold_left
                (fun acc t -> max acc t.Split_attack.result.Sat_attack.num_dips)
                0 s.Split_attack.tasks
            end)
          [ 0; 1; 2; 3; 4 ]
      in
      match row with
      | [ n0; n1; n2; n3; n4 ] ->
          Printf.printf "K = %-4d %18d %6d %6d %6d %6d\n" k n0 n1 n2 n3 n4
      | _ -> assert false)
    key_sizes;
  Printf.printf
    "paper (K=8):  255 127 63 31 15 — exact 2^(K-N)-1 halving per split bit.\n\
     measured: same exponential halving (max per-task #DIP; our SARLock variant\n\
     is off by at most one DIP per task, see EXPERIMENTS.md).\n"

(* ------------------------------------------------------------------ *)
(* Table 2: runtime attacking LUT-based insertion, baseline vs N=4.    *)
(* ------------------------------------------------------------------ *)

let table2_circuits =
  (* `bench/main.exe table2 only=c7552` restricts the rows — useful to
     regenerate a single row or resume a wall-clock-capped run. *)
  let all = [ "c880"; "c1355"; "c1908"; "c2670"; "c3540"; "c5315"; "c6288"; "c7552" ] in
  let only =
    Array.to_list Sys.argv
    |> List.filter_map (fun a ->
           if String.length a > 5 && String.sub a 0 5 = "only=" then
             Some (String.sub a 5 (String.length a - 5))
           else None)
  in
  if only = [] then all else List.filter (fun c -> List.mem c only) all

let table2 () =
  header "Table 2: runtime (seconds) attacking LUT-based insertion (N = 4, 16 tasks)";
  let stage1_luts = 5 and stage1_inputs = 3 in
  (* Like the paper (where two baselines never finished on a 16-core
     server), unfinished attacks are reported as "-": the baseline gets a
     generous budget, each sub-task a smaller one. *)
  let baseline_limit = if full_mode then 1800.0 else 180.0 in
  let task_limit = if full_mode then 600.0 else 45.0 in
  Printf.printf
    "LUT module: %d stage-1 LUTs x %d inputs, key size %d (paper: 14-input 2-stage,\n\
     key 156 — laptop-scaled, see DESIGN.md substitution 4; '-' = exceeded %.0fs)\n\n"
    stage1_luts stage1_inputs
    (LL.Locking.Lut_lock.key_size ~stage1_luts ~stage1_inputs)
    baseline_limit;
  Printf.printf "%-8s %12s | %10s %10s %10s %16s  %s\n" "Circuit" "Baseline" "Minimum"
    "Mean" "Maximum" "Maximum/Baseline" "composed";
  LL.Runtime.Pool.with_pool (fun pool ->
  List.iter
    (fun name ->
      let c = LL.Bench_suite.Iscas.get name in
      let locked =
        LL.Locking.Lut_lock.lock
          ~prng:(Prng.create (String.length name * 131))
          ~stage1_luts ~stage1_inputs c
      in
      let oracle = Oracle.of_circuit c in
      let baseline_config =
        { Sat_attack.default_config with time_limit = Some baseline_limit }
      in
      let baseline = Sat_attack.run ~config:baseline_config locked.LL.Locking.Locked.circuit ~oracle in
      let task_config = { Sat_attack.default_config with time_limit = Some task_limit } in
      let s = Split_attack.run_parallel ~pool ~config:task_config ~n:4 locked.circuit ~oracle in
      let verified =
        (* Bounded verification: composition of 16 large copies can make a
           complete equivalence proof impractical (e.g. c6288). *)
        match LL.Attack.Compose.of_attack ~optimize:false locked.circuit s with
        | None -> "task-timeout"
        | Some composed -> (
            match LL.Attack.Equiv.check_bounded ~conflict_limit:300000 c composed with
            | LL.Attack.Equiv.Proved_equivalent -> "equivalent"
            | LL.Attack.Equiv.Refuted _ -> "MISMATCH"
            | LL.Attack.Equiv.Unknown -> "equivalent(sim-only)")
      in
      let baseline_str =
        if baseline.Sat_attack.status = Sat_attack.Broken then
          Printf.sprintf "%12.1f" baseline.total_time
        else Printf.sprintf "%12s" "-"
      in
      let ratio_str =
        if baseline.Sat_attack.status = Sat_attack.Broken then
          Printf.sprintf "%16.3f" (Split_attack.max_task_time s /. baseline.total_time)
        else Printf.sprintf "%16s" "-"
      in
      Printf.printf "%-8s %s | %10.2f %10.2f %10.2f %s  %s\n%!" name baseline_str
        (Split_attack.min_task_time s)
        (Split_attack.mean_task_time s)
        (Split_attack.max_task_time s)
        ratio_str verified)
    table2_circuits);
  Printf.printf
    "\npaper: max/baseline 0.004-0.027 for six circuits, 0.627 (c2670), 3.171 (c5315);\n\
     average runtime reduction 90.1%%, max 99.6%%; two baselines did not finish.\n\
     Shape to check: ratio << 1 for most circuits, spread across sub-tasks,\n\
     occasional outliers and timeouts.\n"

(* ------------------------------------------------------------------ *)
(* Ablation: design choices called out in DESIGN.md.                   *)
(* ------------------------------------------------------------------ *)

let ablation () =
  header "Ablation: split-input selection and multi-key resistance";
  let c = LL.Bench_suite.Iscas.get "c880" in
  let locked =
    LL.Locking.Lut_lock.lock ~prng:(Prng.create 7) ~stage1_luts:4 ~stage1_inputs:3 c
  in
  let oracle = Oracle.of_circuit c in

  (* 1. Fan-out-cone-guided vs random split inputs (paper Sec. 4). *)
  let run_with inputs label =
    let s = Split_attack.run ?inputs ~n:3 locked.LL.Locking.Locked.circuit ~oracle in
    let dips =
      Array.fold_left (fun acc t -> acc + t.Split_attack.result.Sat_attack.num_dips) 0 s.tasks
    in
    Printf.printf "  %-22s max task %.3f s, mean %.3f s, total #DIP %d\n%!" label
      (Split_attack.max_task_time s) (Split_attack.mean_task_time s) dips
  in
  Printf.printf "split-input selection (LUT-locked c880, N=3):\n";
  run_with None "fan-out cone (paper)";
  let random_inputs =
    LL.Attack.Fanout.select_random (Prng.create 99) locked.circuit ~n:3
  in
  run_with (Some random_inputs) "random inputs";

  (* 2. Future-work defense: input-mixing SARLock vs classic SARLock under
     the split attack (per-task #DIP should stop halving). *)
  Printf.printf
    "\nmulti-key resistance (paper future work): classic vs input-mixing SARLock\n\
     (c432, K = 8; per-task max #DIP under splitting effort N):\n";
  let c432 = LL.Bench_suite.Iscas.get "c432" in
  let oracle432 = Oracle.of_circuit c432 in
  let defenses =
    [
      ("classic sarlock",
       (LL.Locking.Sarlock.lock ~prng:(Prng.create 3) ~key_size:8 c432).LL.Locking.Locked.circuit);
      ("mixed sarlock",
       (LL.Locking.Mixed_sarlock.lock ~prng:(Prng.create 3) ~key_size:8 c432).LL.Locking.Locked.circuit);
    ]
  in
  Printf.printf "  %-18s %6s %6s %6s\n" "" "N=0" "N=2" "N=4";
  List.iter
    (fun (label, locked_c) ->
      let dips n =
        if n = 0 then (Sat_attack.run locked_c ~oracle:oracle432).Sat_attack.num_dips
        else
          let s = Split_attack.run ~n locked_c ~oracle:oracle432 in
          Array.fold_left
            (fun acc t -> max acc t.Split_attack.result.Sat_attack.num_dips)
            0 s.Split_attack.tasks
      in
      Printf.printf "  %-18s %6d %6d %6d\n%!" label (dips 0) (dips 2) (dips 4))
    defenses

(* ------------------------------------------------------------------ *)
(* Exact symbolic analysis (BDD engine): correct-key populations.      *)
(* ------------------------------------------------------------------ *)

let exact () =
  header "Exact analysis (BDD): how many keys are functionally correct?";
  let c432 = LL.Bench_suite.Iscas.get "c432" in
  let report label original (locked : LL.Locking.Locked.t) =
    let n = LL.Bdd.Exact.correct_key_count ~original ~locked:locked.LL.Locking.Locked.circuit () in
    let total = Float.pow 2.0 (float_of_int (LL.Locking.Locked.key_size locked)) in
    Printf.printf "  %-24s %12.0f of %.0f keys are correct\n%!" label n total
  in
  report "sarlock(k=8) on c432" c432
    (LL.Locking.Sarlock.lock ~prng:(Prng.create 2) ~key_size:8 c432);
  report "antisat(m=8)" c432 (LL.Locking.Antisat.lock ~prng:(Prng.create 2) ~width:8 c432);
  (* Input-mixing SARLock's wide parities defeat the BDD's input order too
     (that is rather the point of the mixing); count it on a smaller
     design. *)
  let small =
    LL.Bench_suite.Generator.random_circuit ~seed:6 ~num_inputs:12 ~num_outputs:4
      ~gates:60 ()
  in
  report "mixed-sarlock(k=6)/12in" small
    (LL.Locking.Mixed_sarlock.lock ~prng:(Prng.create 2) ~mix_width:5 ~key_size:6 small);
  let c17 = LL.Bench_suite.Iscas.get "c17" in
  report "lut(m=2,a=2) on c17" c17
    (LL.Locking.Lut_lock.lock ~prng:(Prng.create 2) ~stage1_luts:2 ~stage1_inputs:2 c17);
  (* Exact wrong-key error rate: the SARLock point-function signature. *)
  let sar = LL.Locking.Sarlock.lock ~prng:(Prng.create 2) ~key_size:8 c432 in
  let wrong = Bitvec.mapi (fun i b -> if i = 0 then not b else b) sar.correct_key in
  Printf.printf "  sarlock wrong key corrupts %.0f of 2^36 input patterns (exact)\n%!"
    (LL.Bdd.Exact.error_count ~original:c432 ~locked:sar.circuit ~key:wrong);
  Printf.printf
    "\nLUT locking's many correct keys + point-function schemes' single key are the\n\
     two extremes the multi-key attack plays against each other.\n"

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks of the computational kernels.             *)
(* ------------------------------------------------------------------ *)

let micro () =
  header "Micro-benchmarks (Bechamel)";
  let open Bechamel in
  let c880 = LL.Bench_suite.Iscas.get "c880" in
  let lanes_inputs = Array.init (Circuit.num_inputs c880) (fun i -> Int64.of_int (i * 0x9E37)) in
  let bench_eval =
    Test.make ~name:"eval_lanes c880 (64 patterns)"
      (Staged.stage (fun () ->
           ignore (LL.Netlist.Eval.eval_lanes c880 ~inputs:lanes_inputs ~keys:[||])))
  in
  let bench_simplify =
    Test.make ~name:"simplify+sweep c880"
      (Staged.stage (fun () -> ignore (LL.Synth.Sweep.run (LL.Synth.Simplify.run c880))))
  in
  let locked = LL.Locking.Xor_lock.lock ~prng:(Prng.create 5) ~num_keys:16 c880 in
  let oracle = Oracle.of_circuit c880 in
  let bench_attack =
    Test.make ~name:"SAT attack, xor(16) c880"
      (Staged.stage (fun () -> ignore (Sat_attack.run locked.circuit ~oracle)))
  in
  let sat_instance =
    (* A fixed moderately hard random 3-SAT instance near the phase
       transition. *)
    let g = Prng.create 42 in
    let nvars = 120 in
    List.init (int_of_float (4.1 *. float_of_int nvars)) (fun _ ->
        List.init 3 (fun _ -> LL.Sat.Lit.make (Prng.int g nvars) (Prng.bool g)))
  in
  let bench_solver =
    Test.make ~name:"CDCL solve, random 3-SAT n=120"
      (Staged.stage (fun () ->
           let s = LL.Sat.Solver.create () in
           for _ = 1 to 120 do
             ignore (LL.Sat.Solver.new_var s)
           done;
           List.iter (LL.Sat.Solver.add_clause s) sat_instance;
           ignore (LL.Sat.Solver.solve s)))
  in
  let tests = [ bench_eval; bench_simplify; bench_solver; bench_attack ] in
  let benchmark test =
    let instance = Toolkit.Instance.monotonic_clock in
    let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) ~kde:(Some 10) () in
    let raw = Benchmark.all cfg [ instance ] test in
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
    in
    let results = Analyze.all ols instance raw in
    Hashtbl.iter
      (fun name ols_result ->
        match Analyze.OLS.estimates ols_result with
        | Some [ est ] -> Printf.printf "  %-36s %12.1f ns/run\n%!" name est
        | _ -> Printf.printf "  %-36s (no estimate)\n%!" name)
      results
  in
  List.iter (fun t -> benchmark t) tests;
  (* Scheduler comparison on a mid-size workload: 8 SARLock cofactor
     attacks with one deliberately fatter task distribution. *)
  Printf.printf "\nsplit-attack schedulers (SARLock K=8 on c880, N=3, 8 tasks):\n";
  let sar = LL.Locking.Sarlock.lock ~prng:(Prng.create 12) ~key_size:8 c880 in
  split_sched_bench ~section:"micro" ~name:"c880/sarlock8/n3" ~n:3 sar.circuit ~oracle

(* ------------------------------------------------------------------ *)
(* Smoke: a seconds-scale scheduler check for `dune runtest`.          *)
(* ------------------------------------------------------------------ *)

let smoke () =
  header "Smoke: split-attack scheduler comparison (fast CI check)";
  let c = LL.Bench_suite.Iscas.get "c432" in
  let locked = LL.Locking.Sarlock.lock ~prng:(Prng.create 11) ~key_size:8 c in
  let oracle = Oracle.of_circuit c in
  split_sched_bench ~section:"smoke" ~name:"c432/sarlock8/n2" ~n:2
    locked.LL.Locking.Locked.circuit ~oracle

(* ------------------------------------------------------------------ *)
(* SAT core: solver-only miter suite + DIMACS replays (BENCH_sat.json). *)
(* ------------------------------------------------------------------ *)

let sat_core ~smoke =
  header
    (if smoke then "SAT core: smoke suite (fast CI check)"
     else "SAT core: miter suite + DIMACS replays");
  Sat_bench.run ~smoke

(* ------------------------------------------------------------------ *)
(* Compiled netlist kernel: simulation + constraint-generation rates   *)
(* (BENCH_eval.json).                                                  *)
(* ------------------------------------------------------------------ *)

let eval_core ~smoke =
  header
    (if smoke then "Compiled kernel: smoke suite (fast CI check)"
     else "Compiled kernel: simulation and per-DIP constraint generation");
  Eval_bench.run ~smoke

(* ------------------------------------------------------------------ *)
(* Adaptive cube-and-conquer vs fixed-N split (BENCH_cube.json).       *)
(* ------------------------------------------------------------------ *)

let cube ~smoke =
  header
    (if smoke then "Adaptive cube-and-conquer: smoke comparison (fast CI check)"
     else "Adaptive cube-and-conquer vs fixed-N split");
  Cube_bench.run ~smoke

(* ------------------------------------------------------------------ *)
(* Exact key-population grid (BENCH_keypop.json).                      *)
(* ------------------------------------------------------------------ *)

let keypop ~smoke =
  header
    (if smoke then "Exact key-population grid (fast CI check)"
     else "Exact key-population grid: BDD-sifted counts per cofactor");
  Keypop_bench.run ~smoke

let () =
  Printf.printf "logiclock benchmark harness — paper: DAC'24 LBR, One-Key Premise\n";
  Printf.printf "host: %d core(s) recommended by the runtime\n"
    (Domain.recommended_domain_count ());
  (* Table 2 runs last: it is the longest section (bounded by the per-row
     time limits) and everything else should be reported even when a run
     is cut short. *)
  if want "fig1a" then fig1a ();
  if want "fig1b" then fig1b ();
  if want "table1" then table1 ();
  if want "exact" then exact ();
  if want "ablation" then ablation ();
  if want "smoke" then smoke ();
  (* "sat" and "satsmoke" include the inprocessing on/off suite. *)
  if want "sat" then sat_core ~smoke:false;
  if want "satsmoke" then sat_core ~smoke:true;
  if want "eval" then eval_core ~smoke:false;
  if want "evalsmoke" then eval_core ~smoke:true;
  if want "cube" then cube ~smoke:false;
  if want "cubesmoke" then cube ~smoke:true;
  if want "keypop" then keypop ~smoke:false;
  if want "keypopsmoke" then keypop ~smoke:true;
  if want "micro" then micro ();
  if want "table2" then table2 ();
  Bench_record.write "BENCH_split.json" (List.rev !split_records)
