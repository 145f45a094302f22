(* Time-to-break benchmark: how long the paper's attack takes to carry a
   locked netlist plus an oracle to a verified unlock, end to end and per
   layer.  See README.md for the workloads, the metrics and the protocol.

   Usage (from the root of a checkout, after building):
     perf.exe --workload NAME --seed S --seconds T --trace 0|1
         one workload: set-up, then closed-loop rounds over its fixed
         instance list for T seconds (--trace 0), or one untraced and
         one traced round (--trace 1); the last line is the JSON result
     perf.exe --seed S [--seconds T] [--trace 0|1]
         every workload, each in its own child process
     perf.exe --repeat K [--seed S] [--seconds T]
         calibration: K passes over every workload, alternating the
         order, seeds S..S+K-1; prints each metric's median, quartiles
         and spread against the BENCHMARK.json bound
     perf.exe --smoke [--spec FILE]
         one tiny instance per workload, untraced and traced; fails
         unless every declared metric is printed with its unit and no
         operation failed *)

module LL = Logiclock
module W = Workloads
module M = Metrics
module Pool = LL.Runtime.Pool
module Timer = LL.Util.Timer
module Tel = LL.Telemetry.Telemetry
module Json = LL.Telemetry.Trace_check

(* Set-up is sampled twice, before and after the measured rounds, so that
   one stretch of contention on the host does not decide setup_s.  Each
   phase repeats at least [setup_min_reps] times and, outside the smoke
   check, until [setup_min_s] has passed; setup_s is the median of both. *)
let setup_min_reps = 5

let setup_min_s = 0.5

(* Events each domain's trace ring holds.  A workload on one shared pool
   records its whole traced round on two worker domains (up to ~80k
   events each); one whose attacks spawn private pools spreads it over
   many short-lived domains (under ~20k each), and every domain keeps its
   ring until the process exits. *)
let ring_capacity (w : W.t) = if w.uses_pool then 1 lsl 18 else 1 lsl 16

let work_root = ".perf-work"

let fail_usage msg =
  Printf.eprintf "perf: %s\n" msg;
  exit 2

(* Executables of the same build, next to this one in _build. *)
let sibling path =
  let root = Filename.concat (Filename.dirname Sys.executable_name) "../.." in
  let p = Filename.concat root path in
  if not (Sys.file_exists p) then
    fail_usage (Printf.sprintf "%s is not built (run bench/perf/run.sh)" path);
  p

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let describe (s : W.sample) =
  let verdict =
    match s.verdict with
    | W.Verified -> "verified"
    | W.Failed why -> "FAILED: " ^ why
    | W.Wrong why -> "WRONG: " ^ why
  in
  Printf.printf "  %-36s break %8.3f s  attack %8.3f s  max task %7.3f s  %6d DIPs  %s\n%!" s.id
    s.break_s s.attack_s s.max_task_s s.dips verdict

let run_round ops run =
  let t0 = Timer.monotonic () in
  let samples =
    List.map
      (fun (op : W.op) ->
        let s =
          try run op ()
          with e -> W.blank op.op_id (W.Failed ("raised " ^ Printexc.to_string e))
        in
        describe s;
        s)
      ops
  in
  (samples, Timer.monotonic () -. t0)

let is_wrong (s : W.sample) = match s.verdict with W.Wrong _ -> true | _ -> false

(* Deterministic counts must not depend on the round or on tracing. *)
let same_counts what a b =
  List.for_all2
    (fun (x : W.sample) (y : W.sample) ->
      x.signature = y.signature
      ||
      (Printf.printf "  MISMATCH (%s) %s: %s vs %s\n" what x.id x.signature y.signature;
       false))
    a b

(* Prints the result line; [correct] is the run's verdict. *)
let print_result ~correct ~samples ~names metrics =
  let attempted = List.length samples in
  let failed = List.length (List.filter (fun s -> not (M.verified s)) samples) in
  print_endline (M.json_line ~correct ~attempted ~failed ~names metrics);
  correct

let run_workload (w : W.t) ~seed ~seconds ~trace ~smoke ~trace_dir =
  let work_dir = Filename.concat work_root (Printf.sprintf "run-%d" (Unix.getpid ())) in
  W.mkdir_p work_dir;
  Fun.protect ~finally:(fun () -> rm_rf work_dir) @@ fun () ->
  let ctx = { W.seed; smoke; pool = None; work_dir; cli = sibling "bin/logiclock_cli.exe" } in
  Printf.printf "workload %s  seed %d  %s\n%!" w.name seed (if trace then "traced" else "untraced");
  (* Set-up: build one round's inputs and spawn the pool, repeatedly; the
     last repetition's inputs and pool are the ones measured.  Each
     repetition starts from a collected heap, so garbage the previous one
     left does not land in its time. *)
  let min_s = if smoke then 0.0 else setup_min_s in
  let setup_phase () =
    let start = Timer.monotonic () in
    let rec go times =
      Gc.full_major ();
      let (pool, ops), t =
        Timer.time (fun () ->
            let pool = if w.uses_pool then Some (Pool.create ~num_domains:W.domains ()) else None in
            (pool, w.round { ctx with pool }))
      in
      let times = t :: times in
      if List.length times < setup_min_reps || Timer.monotonic () -. start < min_s then begin
        Option.iter Pool.shutdown pool;
        go times
      end
      else (pool, ops, times)
    in
    go []
  in
  let pool, ops, setup_s = setup_phase () in
  let ctx = { ctx with pool } in
  Fun.protect ~finally:(fun () -> Option.iter Pool.shutdown pool) @@ fun () ->
  if not trace then begin
    let start = Timer.monotonic () in
    let rec loop ops rounds walls =
      let samples, wall = run_round ops (fun op -> op.W.run) in
      let rounds = rounds @ [ samples ] and walls = walls @ [ wall ] in
      let mean = Stats.sum walls /. float (List.length walls) in
      if smoke || Timer.monotonic () -. start +. mean > seconds then (rounds, walls)
      else loop (w.round ctx) rounds walls
    in
    let rounds, walls = loop ops [] [] in
    let after_pool, _, setup_after = setup_phase () in
    Option.iter Pool.shutdown after_pool;
    let setup_s = setup_s @ setup_after in
    let all = List.concat rounds in
    let deterministic = List.for_all (same_counts "round" (List.hd rounds)) (List.tl rounds) in
    let metrics = M.end_to_end_metrics ~setup_s ~round_walls:walls ~rounds in
    Printf.printf "%d round(s) of %d operation(s)\n" (List.length rounds) (List.length ops);
    M.print_table "end-to-end" metrics;
    print_result
      ~correct:(deterministic && not (List.exists is_wrong all))
      ~samples:all ~names:M.end_to_end metrics
  end
  else begin
    (* The traced mode covers the first half of the round, which keeps a
       traced run within about a minute on the reference host. *)
    let half ops = List.filteri (fun i _ -> 2 * i < List.length ops) ops in
    let ops = half ops in
    let inproc (op : W.op) = Option.value op.replica ~default:op.run in
    let processes =
      if List.exists (fun (op : W.op) -> op.replica <> None) ops then
        fst (run_round ops (fun op -> op.W.run))
      else []
    in
    let g0 = Gc.quick_stat () in
    let untraced, untraced_wall = run_round ops inproc in
    let g1 = Gc.quick_stat () in
    let ops_t = half (w.round ctx) in
    Tel.enable ~ring_capacity:(ring_capacity w) ();
    let traced, traced_wall = run_round ops_t inproc in
    let snap = Tel.snapshot () in
    Tel.disable ();
    let standalone = List.map (fun (op : W.op) -> op.standalone ()) ops_t in
    let serial_ok = ref true in
    let serial_vs_parallel =
      List.combine ops_t untraced
      |> List.filter (fun ((op : W.op), _) -> op.serial <> None)
      |> List.filteri (fun i _ -> i < 2)
      |> List.map (fun ((op : W.op), (par : W.sample)) ->
             let t, dips = (Option.get op.serial) () in
             if dips <> par.dips then begin
               Printf.printf "  MISMATCH (serial) %s: %d vs %d DIPs\n" par.id dips par.dips;
               serial_ok := false
             end;
             (t, par.attack_s))
    in
    W.mkdir_p trace_dir;
    let trace_path = Filename.concat trace_dir (w.name ^ ".json") in
    LL.Telemetry.Export.write_chrome_trace trace_path snap;
    let check_out = Filename.concat work_dir "trace_check.out" in
    let trace_ok =
      match
        W.spawn ~stdout_path:check_out ~timeout:120.0
          [| sibling "bin/trace_check.exe"; "--min-depth"; "2"; "--min-tracks"; "2"; trace_path |]
      with
      | W.Exited 0, _, _ -> true
      | _ -> false
    in
    List.iter (Printf.printf "  %s\n") (W.read_lines check_out);
    if not trace_ok then Printf.printf "  trace %s failed validation\n" trace_path;
    if snap.dropped_events > 0 then Printf.printf "  trace dropped %d events\n" snap.dropped_events;
    let spawn_s =
      match pool with
      | Some p -> (Pool.stats p).spawn_seconds
      | None -> Pool.with_pool ~num_domains:W.domains (fun p -> (Pool.stats p).spawn_seconds)
    in
    let attribution = M.attribute snap in
    let r =
      {
        M.untraced;
        processes;
        snap;
        attribution;
        serial_vs_parallel;
        standalone;
        gc = (g0, g1);
        spawn_s;
        traced_wall;
        untraced_wall;
      }
    in
    let metrics = M.per_layer_metrics r in
    Printf.printf "layer self times of the traced round (sum = break_s %.6f s):\n"
      attribution.instance_s;
    List.iter (fun (name, t) -> Printf.printf "  %-30s %18.6f s\n" name t) attribution.by_layer;
    Printf.printf "  %-30s %18.6f s\n" "unattributed" attribution.unattributed_s;
    M.print_table "per-layer" metrics;
    let deterministic =
      same_counts "traced" untraced traced
      && (processes = [] || same_counts "process" processes untraced)
    in
    let all = processes @ untraced @ traced in
    print_result
      ~correct:
        (deterministic && !serial_ok && trace_ok && snap.dropped_events = 0
        && not (List.exists is_wrong all))
      ~samples:all ~names:M.per_layer metrics
  end

(* ------------------------------------------------------------------ *)
(* Modes over every workload, each workload in a child process          *)
(* ------------------------------------------------------------------ *)

type result = {
  correct : bool;
  failed : int;
  values : (string * (float * string)) list;
}

let parse_result line =
  let num = function Some (Json.Num x) -> x | _ -> raise Exit in
  match Json.parse_json line with
  | exception _ -> None
  | j -> (
      try
        let values =
          match Json.member "metrics" j with
          | Some (Json.Obj fields) ->
              List.map
                (fun (name, m) ->
                  let unit_ =
                    match Json.member "unit" m with Some (Json.Str u) -> u | _ -> raise Exit
                  in
                  (name, (num (Json.member "value" m), unit_)))
                fields
          | _ -> raise Exit
        in
        Some
          {
            correct = Json.member "correct" j = Some (Json.Bool true);
            failed = int_of_float (num (Json.member "failed" j));
            values;
          }
      with Exit -> None)

(* Runs this executable on one workload; the parsed result line, if the
   child printed one and exited 0.  The child's output is echoed, or with
   [~quiet] only when the child fails. *)
let child ?(quiet = false) args =
  let exe = Sys.executable_name in
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let rec read acc =
    match input_line ic with
    | line ->
        if not quiet then print_endline line;
        read (line :: acc)
    | exception End_of_file -> acc
  in
  let lines = read [] in
  let result =
    match (Unix.close_process_in ic, lines) with
    | Unix.WEXITED 0, last :: _ -> parse_result last
    | _ -> None
  in
  if quiet && result = None then List.iter print_endline (List.rev lines);
  result

let workload_args ~name ~seed ~seconds ~trace ~smoke ~trace_dir =
  [
    "--workload"; name; "--seed"; string_of_int seed; "--seconds"; Printf.sprintf "%g" seconds;
    "--trace"; (if trace then "1" else "0"); "--trace-dir"; trace_dir;
  ]
  @ if smoke then [ "--smoke" ] else []

type declared = { d_name : string; d_unit : string; d_bound : float option }

let read_spec path =
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let j = Json.parse_json text in
  let list key =
    match Json.member key j with
    | Some (Json.Arr xs) ->
        List.map
          (fun x ->
            match (Json.member "name" x, Json.member "unit" x) with
            | Some (Json.Str d_name), Some (Json.Str d_unit) ->
                let d_bound = match Json.member "bound" x with Some (Json.Num b) -> Some b | _ -> None in
                { d_name; d_unit; d_bound }
            | _ -> failwith (path ^ ": malformed " ^ key ^ " entry"))
          xs
    | _ -> failwith (path ^ ": no " ^ key ^ " list")
  in
  (list "end_to_end", list "per_layer")

let run_all ~seed ~seconds ~trace ~trace_dir =
  let ok =
    List.for_all
      (fun (w : W.t) ->
        child (workload_args ~name:w.name ~seed ~seconds ~trace ~smoke:false ~trace_dir) <> None)
      W.all
  in
  if not ok then (print_endline "perf: a workload failed"; exit 1)

let run_smoke ~spec ~trace_dir =
  let e2e, layers = read_spec spec in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  List.iter
    (fun (w : W.t) ->
      List.iter
        (fun (trace, declared) ->
          match
            child ~quiet:true
              (workload_args ~name:w.name ~seed:1 ~seconds:1.0 ~trace ~smoke:true ~trace_dir)
          with
          | None -> problem "%s (trace %b): no result" w.name trace
          | Some r ->
              if r.failed > 0 || not r.correct then
                problem "%s (trace %b): failed_ratio > 0 or incorrect" w.name trace;
              List.iter
                (fun d ->
                  match List.assoc_opt d.d_name r.values with
                  | Some (_, u) when u = d.d_unit -> ()
                  | Some (_, u) -> problem "%s: %s printed in %s, declared %s" w.name d.d_name u d.d_unit
                  | None -> problem "%s: %s not printed" w.name d.d_name)
                declared;
              if List.length r.values <> List.length declared then
                problem "%s: %d metrics printed, %d declared" w.name (List.length r.values)
                  (List.length declared))
        [ (false, e2e); (true, layers) ])
    W.all;
  match !problems with
  | [] -> print_endline "perf-smoke: every declared metric printed with its unit; failed_ratio = 0"
  | ps ->
      List.iter (Printf.printf "perf-smoke: %s\n") (List.rev ps);
      exit 1

let run_repeat ~k ~seed ~seconds ~spec ~trace_dir =
  let e2e = if Sys.file_exists spec then fst (read_spec spec) else [] in
  let runs = Hashtbl.create 8 in
  for i = 0 to k - 1 do
    let order = if i mod 2 = 0 then W.all else List.rev W.all in
    List.iter
      (fun (w : W.t) ->
        match
          child
            (workload_args ~name:w.name ~seed:(seed + i) ~seconds ~trace:false ~smoke:false
               ~trace_dir)
        with
        | Some r -> Hashtbl.replace runs w.name ((seed + i, r) :: Option.value ~default:[] (Hashtbl.find_opt runs w.name))
        | None -> Printf.printf "perf: %s failed on seed %d\n" w.name (seed + i))
      order
  done;
  Printf.printf "\ncalibration: %d run(s) per workload, seeds %d..%d\n" k seed (seed + k - 1);
  List.iter
    (fun (w : W.t) ->
      let rs = List.sort compare (Option.value ~default:[] (Hashtbl.find_opt runs w.name)) in
      if rs <> [] then begin
        Printf.printf "%s\n  %-16s %14s %14s %14s %8s %6s  values by seed\n" w.name "metric"
          "median" "q1" "q3" "spread" "bound";
        List.iter
          (fun (name, _) ->
            let xs = List.map (fun (_, r) -> fst (List.assoc name r.values)) rs in
            let med = Stats.median xs in
            let q1, q3 = Stats.quartiles xs in
            let spread = Stats.ratio (q3 -. q1) med in
            let bound =
              match List.find_opt (fun d -> d.d_name = name) e2e with
              | Some { d_bound = Some b; _ } -> Printf.sprintf "%6.3f" b
              | _ -> "     -"
            in
            Printf.printf "  %-16s %14.6f %14.6f %14.6f %8.4f %s  %s\n" name med q1 q3 spread bound
              (String.concat " " (List.map (Printf.sprintf "%.6g") xs)))
          M.end_to_end
      end)
    W.all

let () =
  let workload = ref None and seed = ref 1 and seconds = ref 25.0 and trace = ref 0 in
  let repeat = ref 0 and smoke = ref false and spec = ref "BENCHMARK.json" in
  let trace_dir = ref (Filename.concat work_root "traces") in
  let specs =
    [
      ("--workload", Arg.String (fun s -> workload := Some s), "NAME run one workload");
      ("--seed", Arg.Set_int seed, "S seed every lock seed derives from (default 1)");
      ("--seconds", Arg.Set_float seconds, "T measuring time of an untraced run (default 25)");
      ("--trace", Arg.Set_int trace, "0|1 run the traced per-layer mode (default 0)");
      ("--trace-dir", Arg.Set_string trace_dir, "DIR where traced runs write their Chrome traces");
      ("--repeat", Arg.Set_int repeat, "K calibration: K alternating passes over every workload");
      ("--smoke", Arg.Set smoke, " one tiny instance per workload, checked against --spec");
      ("--spec", Arg.Set_string spec, "FILE the BENCHMARK.json to check against");
    ]
  in
  Arg.parse specs (fun a -> fail_usage ("unexpected argument " ^ a)) "perf.exe [options]";
  if !seconds <= 0.0 then fail_usage "--seconds must be positive";
  if !trace <> 0 && !trace <> 1 then fail_usage "--trace takes 0 or 1";
  if !repeat < 0 then fail_usage "--repeat must be positive";
  let trace = !trace = 1 and trace_dir = !trace_dir in
  match !workload with
  | Some name -> (
      match W.find name with
      | Some w ->
          if not (run_workload w ~seed:!seed ~seconds:!seconds ~trace ~smoke:!smoke ~trace_dir)
          then exit 1
      | None ->
          fail_usage
            (Printf.sprintf "unknown workload %s (%s)" name
               (String.concat ", " (List.map (fun (w : W.t) -> w.name) W.all))))
  | None ->
      if !smoke then run_smoke ~spec:!spec ~trace_dir
      else if !repeat > 0 then
        run_repeat ~k:!repeat ~seed:!seed ~seconds:!seconds ~spec:!spec ~trace_dir
      else run_all ~seed:!seed ~seconds:!seconds ~trace ~trace_dir
