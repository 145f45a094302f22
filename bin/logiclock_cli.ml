(* Command-line frontend: generate benchmarks, lock designs, run attacks
   and check equivalence on .bench netlists. *)

module LL = Logiclock
module Circuit = LL.Netlist.Circuit
module Bench_io = LL.Netlist.Bench_io
module Bitvec = LL.Util.Bitvec
open Cmdliner

(* --- shared helpers --- *)

(* Bad input ends the command with one [error:] line and exit code 2. *)
let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("error: " ^ msg);
      exit 2)
    fmt

(* A design argument is either a bench-suite name (c17..c7552) or a .bench
   file path. *)
let load_design spec =
  if Sys.file_exists spec then
    try Bench_io.parse_file spec with
    | Bench_io.Parse_error { line; message } -> fail "%s:%d: %s" spec line message
    | Circuit.Ill_formed message -> fail "%s: %s" spec message
    | Sys_error message -> fail "%s: %s" spec message
  else
    try LL.Bench_suite.Iscas.get spec
    with Not_found -> fail "%s is neither a file nor a known benchmark" spec

let bits_arg flag s =
  try Bitvec.of_string s with Invalid_argument _ -> fail "%s %S is not a 0/1 string" flag s

(* [a] and [b] must agree on their primary inputs and outputs. *)
let check_signature ~what (name_a, a) (name_b, b) =
  let ni = Circuit.num_inputs and no = Circuit.num_outputs in
  if ni a <> ni b || no a <> no b then
    fail "%s: %s has %d inputs and %d outputs, %s has %d and %d" what name_a (ni a) (no a)
      name_b (ni b) (no b)

let check_key_free ~what (name, c) =
  if Circuit.num_keys c > 0 then fail "%s: %s has %d key inputs" what name (Circuit.num_keys c)

let design_arg ~doc position =
  Arg.(required & pos position (some string) None & info [] ~docv:"DESIGN" ~doc)

let output_arg =
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
         ~doc:"Write the resulting netlist to $(docv) (default: stdout).")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"PRNG seed.")

let emit output c =
  match output with
  | None -> print_string (Bench_io.to_string c)
  | Some path ->
      Bench_io.write_file path c;
      Printf.printf "wrote %s (%d gates)\n" path (Circuit.gate_count c)

(* --- gen --- *)

let gen_cmd =
  let run name output =
    emit output (load_design name);
    0
  in
  let bench_name = design_arg ~doc:"Benchmark name (c17, c432, ..., c7552)." 0 in
  Cmd.v
    (Cmd.info "gen" ~doc:"Emit a benchmark-suite circuit as a .bench netlist.")
    Term.(const run $ bench_name $ output_arg)

(* --- verilog --- *)

let verilog_cmd =
  let run spec output =
    let c = load_design spec in
    (match output with
    | None -> print_string (LL.Netlist.Verilog_out.to_string c)
    | Some path ->
        LL.Netlist.Verilog_out.write_file path c;
        Printf.printf "wrote %s\n" path);
    0
  in
  Cmd.v
    (Cmd.info "verilog" ~doc:"Export a netlist as structural Verilog.")
    Term.(const run $ design_arg ~doc:"Netlist file or benchmark name." 0 $ output_arg)

(* --- testbench --- *)

let testbench_cmd =
  let run spec key vectors seed output =
    let c = load_design spec in
    let key = Option.map Bitvec.of_string key in
    let text = LL.Netlist.Testbench.generate ~vectors ~seed ?key c in
    (match output with
    | None -> print_string text
    | Some path ->
        let oc = open_out path in
        output_string oc text;
        close_out oc;
        Printf.printf "wrote %s\n" path);
    0
  in
  let key =
    Arg.(value & opt (some string) None & info [ "key" ] ~docv:"BITS"
           ~doc:"Key driven on the key ports (required for locked designs).")
  in
  let vectors =
    Arg.(value & opt int 32 & info [ "vectors" ] ~docv:"N" ~doc:"Stimulus vectors.")
  in
  Cmd.v
    (Cmd.info "testbench"
       ~doc:"Emit a self-checking Verilog testbench for a design (see also 'verilog').")
    Term.(const run $ design_arg ~doc:"Netlist file or benchmark name." 0 $ key $ vectors
          $ seed_arg $ output_arg)

(* --- stats --- *)

let stats_cmd =
  let run spec =
    let c = load_design spec in
    Format.printf "%a@." Circuit.pp_stats c;
    List.iter (fun (g, n) -> Format.printf "  %-5s %d@." g n) (Circuit.gate_histogram c);
    0
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Print size statistics of a netlist.")
    Term.(const run $ design_arg ~doc:"Netlist file or benchmark name." 0)

(* --- lock --- *)

let lock_cmd =
  let run spec scheme keys width m a output seed =
    let c = load_design spec in
    let prng = LL.Util.Prng.create seed in
    let lock () =
      match scheme with
      | "xor" -> LL.Locking.Xor_lock.lock ~prng ~num_keys:keys c
      | "sll" -> LL.Locking.Sll.lock ~prng ~num_keys:keys c
      | "sarlock" -> LL.Locking.Sarlock.lock ~prng ~key_size:keys c
      | "mixed-sarlock" -> LL.Locking.Mixed_sarlock.lock ~prng ~key_size:keys c
      | "antisat" -> LL.Locking.Antisat.lock ~prng ~width c
      | "lut" -> LL.Locking.Lut_lock.lock ~prng ~stage1_luts:m ~stage1_inputs:a c
      | other ->
          Printf.eprintf
            "error: unknown scheme %s (xor|sll|sarlock|mixed-sarlock|antisat|lut)\n" other;
          exit 2
    in
    (* The schemes validate their own parameters against the design
       (key size, LUT shape, lockable wires); report what they reject. *)
    let locked = try lock () with Invalid_argument msg -> fail "lock %s: %s" spec msg in
    Printf.eprintf "scheme      : %s\n" locked.LL.Locking.Locked.scheme;
    Printf.eprintf "correct key : %s\n" (Bitvec.to_string locked.correct_key);
    emit output locked.circuit;
    0
  in
  let scheme =
    Arg.(value & opt string "xor" & info [ "scheme" ] ~docv:"NAME"
           ~doc:"Locking scheme: xor, sll, sarlock, mixed-sarlock, antisat or lut.")
  in
  let keys =
    Arg.(value & opt int 16 & info [ "keys" ] ~docv:"N"
           ~doc:"Key bits (xor) or key size (sarlock).")
  in
  let width =
    Arg.(value & opt int 8 & info [ "width" ] ~docv:"N" ~doc:"Anti-SAT block width.")
  in
  let m =
    Arg.(value & opt int 3 & info [ "stage1-luts" ] ~docv:"N" ~doc:"LUT scheme: stage-1 LUTs.")
  in
  let a =
    Arg.(value & opt int 3 & info [ "stage1-inputs" ] ~docv:"N"
           ~doc:"LUT scheme: inputs per stage-1 LUT.")
  in
  Cmd.v
    (Cmd.info "lock" ~doc:"Lock a design; the correct key is printed on stderr.")
    Term.(const run $ design_arg ~doc:"Netlist file or benchmark name." 0 $ scheme $ keys
          $ width $ m $ a $ output_arg $ seed_arg)

(* --- sim --- *)

let sim_cmd =
  let run spec inputs key =
    let c = load_design spec in
    let iv = bits_arg "--inputs" inputs in
    let kv = match key with None -> Bitvec.create 0 | Some k -> bits_arg "--key" k in
    if Bitvec.length iv <> Circuit.num_inputs c then
      fail "--inputs has %d bits, %s has %d inputs" (Bitvec.length iv) spec
        (Circuit.num_inputs c);
    if Bitvec.length kv <> Circuit.num_keys c then
      fail "--key has %d bits, %s has %d key inputs" (Bitvec.length kv) spec
        (Circuit.num_keys c);
    let out = LL.Netlist.Eval.eval_bv c ~inputs:iv ~keys:kv in
    Printf.printf "%s\n" (Bitvec.to_string out);
    0
  in
  let inputs =
    Arg.(required & opt (some string) None & info [ "inputs" ] ~docv:"BITS"
           ~doc:"Input pattern, bit 0 first.")
  in
  let key =
    Arg.(value & opt (some string) None & info [ "key" ] ~docv:"BITS" ~doc:"Key pattern.")
  in
  Cmd.v
    (Cmd.info "sim" ~doc:"Evaluate a netlist on one pattern.")
    Term.(const run $ design_arg ~doc:"Netlist file or benchmark name." 0 $ inputs $ key)

(* --- ec --- *)

let ec_cmd =
  let run spec_a spec_b key =
    let a = load_design spec_a in
    let a =
      match key with
      | None -> a
      | Some k ->
          let k = bits_arg "--key" k in
          if Bitvec.length k <> Circuit.num_keys a then
            fail "--key has %d bits, %s has %d key inputs" (Bitvec.length k) spec_a
              (Circuit.num_keys a);
          LL.Netlist.Instantiate.bind_keys a k
    in
    let b = load_design spec_b in
    check_key_free ~what:"ec" (spec_a, a);
    check_key_free ~what:"ec" (spec_b, b);
    check_signature ~what:"ec" (spec_a, a) (spec_b, b);
    match LL.Attack.Equiv.check a b with
    | LL.Attack.Equiv.Equivalent ->
        Printf.printf "EQUIVALENT\n";
        0
    | LL.Attack.Equiv.Counterexample cex ->
        Printf.printf "DIFFERENT on input %s\n"
          (Bitvec.to_string (Bitvec.of_bool_array cex));
        1
  in
  let key =
    Arg.(value & opt (some string) None & info [ "key" ] ~docv:"BITS"
           ~doc:"Bind this key to the first design's key ports before checking.")
  in
  Cmd.v
    (Cmd.info "ec" ~doc:"SAT-based combinational equivalence check of two designs.")
    Term.(const run $ design_arg ~doc:"First design." 0
          $ design_arg ~doc:"Second design." 1 $ key)

(* --- fanout --- *)

let fanout_cmd =
  let run spec n =
    if n < 0 then fail "--top %d is negative" n;
    let c = load_design spec in
    let scores = LL.Attack.Fanout.scores c in
    let rank = LL.Attack.Fanout.rank c in
    Printf.printf "input ranking by key-controlled fan-out (top %d):\n" n;
    Array.iteri
      (fun i pos ->
        if i < n then
          Printf.printf "  %2d. input %-12s (position %d): %d key-controlled gates\n"
            (i + 1)
            (Circuit.node_name c c.Circuit.inputs.(pos))
            pos scores.(pos))
      rank;
    0
  in
  let n = Arg.(value & opt int 10 & info [ "top" ] ~docv:"N" ~doc:"Entries to print.") in
  Cmd.v
    (Cmd.info "fanout" ~doc:"Rank primary inputs for split-input selection (paper Sec. 4).")
    Term.(const run $ design_arg ~doc:"Locked netlist file." 0 $ n)

(* --- attack --- *)

let attack_cmd =
  let run locked_spec oracle_spec n parallel max_iters trace metrics watch stream prom
      ring_size interval =
    (match max_iters with
    | Some m when m < 0 -> fail "--max-iterations %d is negative" m
    | _ -> ());
    (match ring_size with
    | Some r when r < 1 -> fail "--trace-ring-size %d must be at least 1" r
    | _ -> ());
    if not (interval > 0.0 && Float.is_finite interval) then
      fail "--sample-interval %g must be a positive number of seconds" interval;
    (* The trace is written after the attack and the Prometheus file on
       every sampler tick: refuse a directory that cannot hold them before
       the attack starts. *)
    let check_dir flag = function
      | Some path ->
          let dir = Filename.dirname path in
          if not (Sys.file_exists dir && Sys.is_directory dir) then
            fail "%s %s: %s is not a directory" flag path dir
      | None -> ()
    in
    check_dir "--trace" trace;
    check_dir "--prom" prom;
    let locked = load_design locked_spec in
    let original = load_design oracle_spec in
    if Circuit.num_keys locked = 0 then fail "attack: %s has no key inputs" locked_spec;
    check_key_free ~what:"attack" ("oracle " ^ oracle_spec, original);
    check_signature ~what:"attack" (locked_spec, locked) (oracle_spec, original);
    let num_inputs = Circuit.num_inputs locked in
    if n < 0 || n > num_inputs then
      fail "--split %d out of range: %s has %d inputs" n locked_spec num_inputs;
    let oracle = LL.Attack.Oracle.of_circuit original in
    let config =
      { LL.Attack.Sat_attack.default_config with max_iterations = max_iters }
    in
    let live_wanted = watch || stream <> None || prom <> None in
    let telemetry_wanted = trace <> None || metrics || live_wanted in
    (* Telemetry is collected whenever any output was requested; the
       attack itself never branches on it. *)
    if telemetry_wanted then LL.Telemetry.Telemetry.enable ?ring_capacity:ring_size ();
    (* Live exposition: the background sampler fans each delta sample to
       the sinks the flags asked for. *)
    let subscriptions = ref [] in
    let stream_sink =
      try Option.map LL.Telemetry.Live.open_sink stream
      with Sys_error msg -> fail "--stream: %s" msg
    in
    if live_wanted then begin
      LL.Attack.Progress.enable ();
      (match stream_sink with
      | Some sink ->
          sink.LL.Telemetry.Live.sink_write
            (LL.Telemetry.Export.stream_meta_line ~interval_s:interval ());
          subscriptions :=
            LL.Telemetry.Live.subscribe (fun s ->
                sink.LL.Telemetry.Live.sink_write (LL.Telemetry.Export.stream_delta_line s);
                sink.LL.Telemetry.Live.sink_write
                  (LL.Attack.Progress.jsonl_line ~t_ns:s.LL.Telemetry.Live.s_t_ns
                     (LL.Attack.Progress.view ())))
            :: !subscriptions
      | None -> ());
      (match prom with
      | Some path ->
          subscriptions :=
            LL.Telemetry.Live.subscribe (fun s ->
                LL.Telemetry.Export.write_prometheus path s.LL.Telemetry.Live.s_snap)
            :: !subscriptions
      | None -> ());
      if watch then
        subscriptions :=
          LL.Telemetry.Live.subscribe (fun _ ->
              Printf.eprintf "\r\027[2K%s%!"
                (LL.Attack.Progress.status_line (LL.Attack.Progress.view ())))
          :: !subscriptions;
      LL.Telemetry.Live.start ~interval_s:interval ()
    end;
    let finish_telemetry () =
      if live_wanted then begin
        (* [stop] publishes one final flush sample before joining, so the
           stream always carries the end state. *)
        LL.Telemetry.Live.stop ();
        List.iter LL.Telemetry.Live.unsubscribe !subscriptions;
        (match stream_sink with
        | Some sink -> sink.LL.Telemetry.Live.sink_close ()
        | None -> ());
        if watch then prerr_newline ();
        LL.Attack.Progress.disable ()
      end;
      if telemetry_wanted then begin
        let snap = LL.Telemetry.Telemetry.snapshot () in
        (match LL.Telemetry.Export.drop_warning snap with
        | Some warning -> prerr_endline warning
        | None -> ());
        (match trace with
        | Some path ->
            (try LL.Telemetry.Export.write_chrome_trace path snap
             with Sys_error msg -> fail "--trace: %s" msg);
            Printf.printf "trace  : wrote %s (%d events)\n" path
              (Array.length snap.LL.Telemetry.Telemetry.events)
        | None -> ());
        if metrics then print_string (LL.Telemetry.Export.summary snap)
      end
    in
    let check a b =
      LL.Telemetry.Telemetry.with_span "equiv.check" (fun () -> LL.Attack.Equiv.check a b)
    in
    if n = 0 then begin
      let r = LL.Attack.Sat_attack.run ~config locked ~oracle in
      Printf.printf "status : %s\n"
        (match r.LL.Attack.Sat_attack.status with
        | LL.Attack.Sat_attack.Broken -> "broken"
        | LL.Attack.Sat_attack.Iteration_limit -> "iteration limit"
        | LL.Attack.Sat_attack.Time_limit -> "time limit"
        | LL.Attack.Sat_attack.Cancelled -> "cancelled"
        | LL.Attack.Sat_attack.Stopped -> "stopped");
      Printf.printf "#DIP   : %d\n" r.num_dips;
      Printf.printf "time   : %.3f s (%.3f s solving)\n" r.total_time r.solve_time;
      (match r.key with
      | Some k -> (
          Printf.printf "key    : %s\n" (Bitvec.to_string k);
          match
            check original (LL.Netlist.Instantiate.bind_keys locked k)
          with
          | LL.Attack.Equiv.Equivalent -> Printf.printf "verify : functionally correct\n"
          | LL.Attack.Equiv.Counterexample _ -> Printf.printf "verify : WRONG key\n")
      | None -> Printf.printf "key    : none\n");
      finish_telemetry ();
      0
    end
    else begin
      let s =
        if parallel then
          LL.Attack.Split_attack.run_parallel ~config ~cancel_on_failure:true ~n locked
            ~oracle
        else LL.Attack.Split_attack.run ~config ~n locked ~oracle
      in
      Array.iteri
        (fun i t ->
          Printf.printf "task %2d: %3d DIPs, %4d gates, %.3f s\n" i
            t.LL.Attack.Split_attack.result.LL.Attack.Sat_attack.num_dips t.sub_gates
            t.task_time)
        s.tasks;
      Printf.printf "task time: min %.3f mean %.3f max %.3f (wall %.3f)\n"
        (LL.Attack.Split_attack.min_task_time s)
        (LL.Attack.Split_attack.mean_task_time s)
        (LL.Attack.Split_attack.max_task_time s)
        s.wall_time;
      let code =
        match
          LL.Telemetry.Telemetry.with_span "compose.build" (fun () ->
              LL.Attack.Compose.of_attack locked s)
        with
        | None ->
            Printf.printf "result : some task failed\n";
            1
        | Some composed -> (
            match check original composed with
            | LL.Attack.Equiv.Equivalent ->
                Printf.printf "result : multi-key composition EQUIVALENT — design broken\n";
                0
            | LL.Attack.Equiv.Counterexample _ ->
                Printf.printf "result : composition mismatch\n";
                1)
      in
      finish_telemetry ();
      code
    end
  in
  let n =
    Arg.(value & opt int 0 & info [ "n"; "split" ] ~docv:"N"
           ~doc:"Splitting effort: 0 = classic SAT attack, N>0 = 2^N sub-tasks.")
  in
  let parallel =
    Arg.(value & flag & info [ "parallel" ] ~doc:"Run sub-tasks on multiple domains.")
  in
  let max_iters =
    Arg.(value & opt (some int) None & info [ "max-iterations" ] ~docv:"N"
           ~doc:"DIP budget per (sub-)attack.")
  in
  let trace =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
           ~doc:"Write a Chrome trace_event JSON of the attack to $(docv) \
                 (load in Perfetto or about:tracing).")
  in
  let metrics =
    Arg.(value & flag & info [ "metrics" ]
           ~doc:"Print a telemetry summary (counters, histograms, span totals) on stdout.")
  in
  let watch =
    Arg.(value & flag & info [ "watch" ]
           ~doc:"Redraw a live one-line progress dashboard on stderr while the \
                 attack runs.")
  in
  let stream =
    Arg.(value & opt (some string) None & info [ "stream" ] ~docv:"DEST"
           ~doc:"Stream line-delimited JSON telemetry (meta, delta and progress \
                 records) to $(docv): a file path, $(b,-) for stdout, or \
                 $(b,unix:)$(i,PATH) for a Unix domain socket.")
  in
  let prom =
    Arg.(value & opt (some string) None & info [ "prom" ] ~docv:"FILE"
           ~doc:"Rewrite $(docv) atomically with a Prometheus text-format \
                 snapshot on every sampler tick (point a node_exporter \
                 textfile collector at it).")
  in
  let ring_size =
    Arg.(value & opt (some int) None & info [ "trace-ring-size" ] ~docv:"N"
           ~doc:"Per-domain trace ring capacity in events (default 32768). \
                 Raise it when the drop warning reports ring wraparound.")
  in
  let interval =
    Arg.(value & opt float LL.Telemetry.Live.default_interval_s
         & info [ "sample-interval" ] ~docv:"SECONDS"
             ~doc:"Live sampler period for --watch/--stream/--prom.")
  in
  Cmd.v
    (Cmd.info "attack"
       ~doc:"Run the SAT attack (or the multi-key split attack with --n) on a locked design.")
    Term.(const run $ design_arg ~doc:"Locked netlist." 0
          $ design_arg ~doc:"Original design used to simulate the oracle." 1
          $ n $ parallel $ max_iters $ trace $ metrics $ watch $ stream $ prom
          $ ring_size $ interval)

let () =
  let doc = "logic locking framework: lock, attack, verify" in
  let info = Cmd.info "logiclock" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ gen_cmd; verilog_cmd; testbench_cmd; stats_cmd; lock_cmd; sim_cmd; ec_cmd;
            fanout_cmd; attack_cmd ]))
