(* The four workloads of the time-to-break benchmark.

   An operation carries one locked instance from a locked netlist plus an
   oracle to a verified unlock.  Every call the benchmark makes into a
   library layer is bracketed by a span of its own (["bench.instance"] >
   ["attack.run"] | ["compose.build"] | ["equiv.check"] |
   ["netlist.parse"]); with telemetry off each bracket costs one flag
   load, so the untraced and traced runs execute the same code.  Nothing
   here reaches into the library: timings come from the benchmark's own
   clock and every count from the results the layers already return. *)

module LL = Logiclock
module Circuit = LL.Netlist.Circuit
module Bench_io = LL.Netlist.Bench_io
module Iscas = LL.Bench_suite.Iscas
module Oracle = LL.Attack.Oracle
module Sat_attack = LL.Attack.Sat_attack
module Split_attack = LL.Attack.Split_attack
module Cube_attack = LL.Attack.Cube_attack
module Compose = LL.Attack.Compose
module Equiv = LL.Attack.Equiv
module Fanout = LL.Attack.Fanout
module Pool = LL.Runtime.Pool
module Prng = LL.Util.Prng
module Timer = LL.Util.Timer
module Tel = LL.Telemetry.Telemetry

(* Worker domains of every pool the benchmark creates: the core count of
   the 2-core host the workloads were sized on, fixed so that the
   workload does not change with the machine. *)
let domains = 2

(* Per-session wall-clock limit.  No session of a healthy run comes near
   it; one that hits it is an incomplete attack and counts as failed. *)
let config = { Sat_attack.default_config with time_limit = Some 60.0 }

(* Bound of the verification used where a complete proof of a large
   unoptimised composition could take minutes (the value bench/main.ml
   uses for Table 2). *)
let conflict_limit = 300_000

type verdict = Verified | Failed of string | Wrong of string

type session = { time_s : float; solve_s : float; dips : int; rounds : int }

type tree = {
  resplits : int;
  leaves : int;
  max_depth : int;
  imported : int;
  leaf_dips : int;  (** DIPs of the sessions that produced a final key *)
}

type sample = {
  id : string;  (** [kind/lockSEED]: the instance kind and its lock seed *)
  verdict : verdict;
  break_s : float;  (** attack + compose + verify; for a CLI job, the attack process *)
  attack_s : float;
  max_task_s : float;
  baseline_s : float option;  (** the N = 0 attack of the same instance (table2-lut) *)
  dips : int;
  max_task_dips : int;
  signature : string;
      (** deterministic counts; equal across rounds and between the
          traced and untraced runs of one instance *)
  sessions : session list;  (** every attack session, baseline included *)
  pool_task_s : float;  (** summed session time of the pooled attack *)
  pool_domains : int;  (** workers of that pool; 0 when the attack is serial *)
  oracle_queries : int;
  tree : tree;
  compose_gates : int;
  rss_kb : int;  (** peak RSS of a CLI job's process; 0 in-process *)
}

type op = {
  op_id : string;
  run : unit -> sample;  (** the timed operation *)
  replica : (unit -> sample) option;
      (** in-process replica of a CLI job: the same library calls, traceable *)
  serial : (unit -> float * int) option;
      (** serial-runner replay of the attack: seconds and total DIPs *)
  standalone : unit -> float * float;
      (** [Sat_attack.prepare] and [Fanout.rank] on the locked netlist,
          each timed alone *)
}

type ctx = {
  seed : int;
  smoke : bool;
  pool : Pool.t option;
  work_dir : string;
  cli : string;
}

type t = {
  name : string;
  uses_pool : bool;
  round : ctx -> op list;
      (** builds fresh inputs for one pass over the workload's fixed
          instance list: the set-up work *)
}

(* ------------------------------------------------------------------ *)
(* Shared pieces                                                        *)
(* ------------------------------------------------------------------ *)

let lock_seeds ctx name k =
  let g = Prng.create (Hashtbl.hash (name, ctx.seed)) in
  List.init k (fun _ -> 1 + Prng.int g 999_999)

let kind_of_id id = match String.rindex_opt id '/' with Some i -> String.sub id 0 i | None -> id

let instance id f = Tel.with_span ~note:id "bench.instance" (fun () -> Timer.time f)

let timed name f = Tel.with_span name (fun () -> Timer.time f)

let no_tree = { resplits = 0; leaves = 1; max_depth = 0; imported = 0; leaf_dips = 0 }

let blank id verdict =
  {
    id;
    verdict;
    break_s = 0.0;
    attack_s = 0.0;
    max_task_s = 0.0;
    baseline_s = None;
    dips = 0;
    max_task_dips = 0;
    signature = "";
    sessions = [];
    pool_task_s = 0.0;
    pool_domains = 0;
    oracle_queries = 0;
    tree = no_tree;
    compose_gates = 0;
    rss_kb = 0;
  }

let session_of time_s (r : Sat_attack.result) =
  { time_s; solve_s = r.solve_time; dips = r.num_dips; rounds = r.rounds }

let worst a b =
  match (a, b) with
  | (Wrong _ as w), _ | _, (Wrong _ as w) -> w
  | (Failed _ as f), _ | _, (Failed _ as f) -> f
  | Verified, Verified -> Verified

let complete_check original = function
  | None -> Failed "a sub-attack returned no key"
  | Some c -> (
      match Equiv.check original c with
      | Equiv.Equivalent -> Verified
      | Equiv.Counterexample _ -> Wrong "composition differs from the original")

let bounded_check original = function
  | None -> Failed "a sub-attack returned no key"
  | Some c -> (
      match Equiv.check_bounded ~conflict_limit original c with
      | Equiv.Proved_equivalent -> Verified
      | Equiv.Refuted _ -> Wrong "composition differs from the original"
      | Equiv.Unknown -> Failed "bounded equivalence check inconclusive")

let gates = function Some c -> Circuit.gate_count c | None -> 0

let standalone locked () =
  let _, prepare_s = Timer.time (fun () -> Sat_attack.prepare locked) in
  let _, fanout_s = Timer.time (fun () -> Fanout.rank locked) in
  (prepare_s, fanout_s)

let ints xs = String.concat "," (List.map string_of_int xs)

(* One split attack (Algorithm 1) followed by composition and
   verification, the calls [Logiclock.Pipeline.split_attack_and_verify]
   makes, each timed on its own.  Runs inside an instance window. *)
let split_steps ~original ~attack ~compose ~check () =
  let s, attack_s = timed "attack.run" attack in
  let composed = Tel.with_span "compose.build" (fun () -> compose s) in
  let verdict = Tel.with_span "equiv.check" (fun () -> check original composed) in
  (s, attack_s, verdict, gates composed)

(* The sample of [split_steps]' result; the caller fills in [break_s]
   and [oracle_queries]. *)
let split_sample ~id ((s : Split_attack.t), attack_s, verdict, compose_gates) =
  let tasks = Array.to_list s.tasks in
  let results = List.map (fun (t : Split_attack.task) -> t.result) tasks in
  let task_dips = List.map (fun (r : Sat_attack.result) -> r.num_dips) results in
  let dips = List.fold_left ( + ) 0 task_dips in
  let conflicts =
    List.fold_left (fun a (r : Sat_attack.result) -> a + r.solver_conflicts) 0 results
  in
  {
    (blank id verdict) with
    attack_s;
    max_task_s = Split_attack.max_task_time s;
    dips;
    max_task_dips = List.fold_left max 0 task_dips;
    signature = Printf.sprintf "dips=%s conflicts=%d" (ints task_dips) conflicts;
    sessions = List.map (fun (t : Split_attack.task) -> session_of t.task_time t.result) tasks;
    pool_task_s = List.fold_left (fun a (t : Split_attack.task) -> a +. t.task_time) 0.0 tasks;
    pool_domains = s.domains_used;
    tree =
      { no_tree with leaves = List.length tasks; max_depth = Array.length s.split_inputs; leaf_dips = dips };
    compose_gates;
  }

let run_split ~id ~original ~oracle ~attack ~compose ~check =
  let q0 = Oracle.query_count oracle in
  let parts, break_s = instance id (split_steps ~original ~attack ~compose ~check) in
  { (split_sample ~id parts) with break_s; oracle_queries = Oracle.query_count oracle - q0 }

(* The serial runner on the same instance: seconds and total DIPs. *)
let serial_split ~n locked ~oracle () =
  let s, t = Timer.time (fun () -> Split_attack.run ~config ~n locked ~oracle) in
  (t, Array.fold_left (fun a (t : Split_attack.task) -> a + t.result.num_dips) 0 s.tasks)

(* ------------------------------------------------------------------ *)
(* table1-sarlock                                                       *)
(* ------------------------------------------------------------------ *)

(* Paper Table 1: SARLock on c7552 split N ways.  Every cofactor still
   hides a point function, so the slowest task needs 2^(K-N) - 1 DIPs
   (the law of Zhong & Guin, arXiv:2207.01808; this SARLock variant may
   take one more). *)
let table1 =
  let round ctx =
    let circuit, k, n, count = if ctx.smoke then ("c432", 6, 2, 1) else ("c7552", 12, 4, 4) in
    let law = 1 lsl (k - n) in
    List.map
      (fun lock_seed ->
        let original = Iscas.get circuit in
        let locked =
          (LL.Locking.Sarlock.lock ~prng:(Prng.create lock_seed) ~key_size:k original)
            .LL.Locking.Locked.circuit
        in
        let oracle = Oracle.of_circuit original in
        let id = Printf.sprintf "%s/sarlock%d/n%d/lock%d" circuit k n lock_seed in
        let run () =
          let s =
            run_split ~id ~original ~oracle ~check:complete_check
              ~attack:(fun () ->
                Split_attack.run_parallel ~config ~num_domains:domains ~n locked ~oracle)
              ~compose:(Compose.of_attack locked)
          in
          if s.verdict = Verified && s.max_task_dips <> law - 1 && s.max_task_dips <> law then
            {
              s with
              verdict =
                Wrong
                  (Printf.sprintf "max task #DIP %d breaks the 2^(K-N) law (%d or %d)"
                     s.max_task_dips (law - 1) law);
            }
          else s
        in
        {
          op_id = id;
          run;
          replica = None;
          serial = Some (serial_split ~n locked ~oracle);
          standalone = standalone locked;
        })
      (lock_seeds ctx "table1-sarlock" count)
  in
  {
    name = "table1-sarlock";
    uses_pool = false;
    round;
  }

(* ------------------------------------------------------------------ *)
(* table2-lut                                                           *)
(* ------------------------------------------------------------------ *)

(* Paper Table 2: LUT insertion, the N = 0 baseline against the N = 4
   split on one shared pool.  LUT-locked hardness swings widely with the
   lock seed (attack time varies by 30% between locks of c880), so the
   round takes twenty-four locks of one circuit.  Across
   seeds the per-circuit median of five locks spread 12-22% on c880 but
   27-28% on c2670, 32-49% on c432 and 49% on c1355; LUT-locked c6288
   runs for minutes. *)
let table2 =
  let round ctx =
    let circuit, luts, inputs, n, count =
      if ctx.smoke then ("c880", 2, 2, 1, 1) else ("c880", 3, 3, 4, 24)
    in
    let pool = Option.get ctx.pool in
    List.map
      (fun lock_seed ->
        let original = Iscas.get circuit in
        let locked =
          (LL.Locking.Lut_lock.lock ~prng:(Prng.create lock_seed) ~stage1_luts:luts
             ~stage1_inputs:inputs original)
            .LL.Locking.Locked.circuit
        in
        let oracle = Oracle.of_circuit original in
        let id = Printf.sprintf "%s/lut%dx%d/n%d/lock%d" circuit luts inputs n lock_seed in
        let run () =
          let (base, base_verdict), baseline_s =
            Tel.with_span ~note:id "bench.baseline" (fun () ->
                Timer.time (fun () ->
                    let r = Tel.with_span "attack.run" (fun () -> Sat_attack.run ~config locked ~oracle) in
                    let v =
                      Tel.with_span "equiv.check" (fun () ->
                          match r.Sat_attack.key with
                          | None -> Failed "baseline attack returned no key"
                          | Some key ->
                              bounded_check original
                                (Some (LL.Netlist.Instantiate.bind_keys locked key)))
                    in
                    (r, v)))
          in
          let s =
            run_split ~id ~original ~oracle ~check:bounded_check
              ~attack:(fun () -> Split_attack.run_parallel ~pool ~config ~n locked ~oracle)
              ~compose:(Compose.of_attack ~optimize:false locked)
          in
          {
            s with
            verdict = worst base_verdict s.verdict;
            baseline_s = Some baseline_s;
            signature =
              Printf.sprintf "baseline=%d/%d %s" base.num_dips base.solver_conflicts
                s.signature;
            sessions = session_of base.total_time base :: s.sessions;
          }
        in
        {
          op_id = id;
          run;
          replica = None;
          serial = Some (serial_split ~n locked ~oracle);
          standalone = standalone locked;
        })
      (lock_seeds ctx "table2-lut" count)
  in
  {
    name = "table2-lut";
    uses_pool = true;
    round;
  }

(* ------------------------------------------------------------------ *)
(* cube-adaptive                                                        *)
(* ------------------------------------------------------------------ *)

(* The adaptive cube-and-conquer engine from n0 = 0 under a constant
   128-DIP budget: the only workload with re-splits, clause-bank imports
   and the pool's priority heap. *)
let cube =
  let round ctx =
    let circuit, k, dips, count = if ctx.smoke then ("c432", 8, 32, 1) else ("c3540", 12, 128, 4) in
    let pool = Option.get ctx.pool in
    let cfg =
      {
        Cube_attack.default_config with
        n0 = 0;
        budget = { Cube_attack.default_budget with conflicts = None; dips = Some dips; growth = 1.0 };
        base = config;
      }
    in
    List.map
      (fun lock_seed ->
        let original = Iscas.get circuit in
        let locked =
          (LL.Locking.Sarlock.lock ~prng:(Prng.create lock_seed) ~key_size:k original)
            .LL.Locking.Locked.circuit
        in
        let oracle = Oracle.of_circuit original in
        let id = Printf.sprintf "%s/sarlock%d/cube%d/lock%d" circuit k dips lock_seed in
        let run () =
          let q0 = Oracle.query_count oracle in
          let (a, attack_s, verdict, composed_gates), break_s =
            instance id (fun () ->
                let a, attack_s =
                  timed "attack.run" (fun () ->
                      Cube_attack.run_parallel ~pool ~config:cfg locked ~oracle)
                in
                let composed =
                  Tel.with_span "compose.build" (fun () -> Compose.of_cube_attack ~optimize:false locked a)
                in
                let verdict = Tel.with_span "equiv.check" (fun () -> bounded_check original composed) in
                (a, attack_s, verdict, gates composed))
          in
          let cubes = Array.to_list a.Cube_attack.cubes in
          let leaves = Array.to_list (Cube_attack.leaves a) in
          let dips_of (c : Cube_attack.cube) = c.task.result.num_dips in
          let sum f xs = List.fold_left (fun acc x -> acc + f x) 0 xs in
          let tree =
            {
              resplits = Cube_attack.resplits a;
              leaves = List.length leaves;
              max_depth = List.fold_left (fun m (c : Cube_attack.cube) -> max m c.depth) 0 cubes;
              imported = Cube_attack.imported_entries a;
              leaf_dips = sum dips_of leaves;
            }
          in
          let conflicts = sum (fun (c : Cube_attack.cube) -> c.task.result.solver_conflicts) cubes in
          {
            (blank id verdict) with
            break_s;
            attack_s;
            max_task_s = Cube_attack.max_task_time a;
            dips = Cube_attack.total_dips a;
            max_task_dips = List.fold_left (fun m c -> max m (dips_of c)) 0 cubes;
            signature =
              Printf.sprintf "dips=%d conflicts=%d tree=%d/%d/%d imported=%d"
                (Cube_attack.total_dips a) conflicts tree.resplits tree.leaves tree.max_depth
                tree.imported;
            sessions =
              List.map (fun (c : Cube_attack.cube) -> session_of c.task.task_time c.task.result) cubes;
            pool_task_s = List.fold_left (fun s (c : Cube_attack.cube) -> s +. c.task.task_time) 0.0 cubes;
            pool_domains = a.domains_used;
            oracle_queries = Oracle.query_count oracle - q0;
            tree;
            compose_gates = composed_gates;
          }
        in
        let serial () =
          let a, t = Timer.time (fun () -> Cube_attack.run ~config:cfg locked ~oracle) in
          (t, Cube_attack.total_dips a)
        in
        { op_id = id; run; replica = None; serial = Some serial; standalone = standalone locked })
      (lock_seeds ctx "cube-adaptive" count)
  in
  {
    name = "cube-adaptive";
    uses_pool = true;
    round;
  }

(* ------------------------------------------------------------------ *)
(* cli-pipeline                                                         *)
(* ------------------------------------------------------------------ *)

type job = { circuit : string; scheme : string; size : int; split : int }

(* Jobs whose attack and verification stay within a few seconds for
   every lock seed.  Left out on purpose: c3540 split jobs, whose
   optimised composition takes 10-30 s to verify, and SLL on c2670,
   whose attack time swings 0.2-4 s with the lock seed. *)
let cli_jobs ~smoke =
  let j circuit scheme size split = { circuit; scheme; size; split } in
  if smoke then [ j "c432" "sarlock" 6 1 ]
  else
    [
      j "c7552" "sarlock" 10 3;
      j "c880" "xor" 16 0;
      j "c499" "sll" 16 0;
      j "c1355" "xor" 16 1;
      j "c1908" "antisat" 8 2;
      j "c5315" "mixed-sarlock" 6 2;
      j "c432" "sarlock" 8 2;
      j "c5315" "sarlock" 8 2;
    ]

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let vm_hwm_kb pid =
  match open_in (Printf.sprintf "/proc/%s/status" pid) with
  | exception Sys_error _ -> 0
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0
        | line -> (
            try Scanf.sscanf line "VmHWM: %d kB" (fun kb -> kb) with _ -> scan ())
      in
      let kb = scan () in
      close_in ic;
      kb

type exit = Exited of int | Timed_out | Signalled of int

(* Runs [argv] with stdout to [stdout_path] (or discarded), polling
   every millisecond so the child's peak RSS can be read while it is
   alive.  A child still running after [timeout] seconds is killed and
   reaped. *)
let spawn ?stdout_path ~timeout argv =
  let out =
    match stdout_path with
    | Some p -> Unix.openfile p [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
    | None -> Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0
  in
  let err = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let t0 = Timer.monotonic () in
  let pid = Unix.create_process argv.(0) argv Unix.stdin out err in
  Unix.close out;
  Unix.close err;
  let rss = ref 0 in
  let rec wait i =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
        if i mod 10 = 0 then rss := max !rss (vm_hwm_kb (string_of_int pid));
        if Timer.monotonic () -. t0 > timeout then begin
          Unix.kill pid Sys.sigkill;
          ignore (Unix.waitpid [] pid);
          Timed_out
        end
        else begin
          Unix.sleepf 0.001;
          wait (i + 1)
        end
    | _, Unix.WEXITED c -> Exited c
    | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) -> Signalled s
  in
  let status = wait 0 in
  (status, Timer.monotonic () -. t0, !rss)

let cli_setup_step cli args =
  match spawn ~timeout:60.0 (Array.of_list (cli :: args)) with
  | Exited 0, _, _ -> ()
  | _ -> failwith ("set-up step failed: logiclock " ^ String.concat " " args)

let read_lines path =
  let ic = open_in path in
  let rec loop acc =
    match input_line ic with exception End_of_file -> List.rev acc | l -> loop (l :: acc)
  in
  let lines = loop [] in
  close_in ic;
  lines

let contains line sub =
  let n = String.length sub and m = String.length line in
  let rec at i = i + n <= m && (String.sub line i n = sub || at (i + 1)) in
  at 0

(* What a user reads off the attack command's report. *)
type cli_report = {
  task_dips : int list;
  task_times : float list;
  attack_time : float;
  equivalent : bool;
  mismatch : bool;
}

let parse_report lines =
  let scan fmt f = List.filter_map (fun l -> try Some (Scanf.sscanf l fmt f) with _ -> None) lines in
  let tasks = scan " task %d: %d DIPs, %d gates, %f s" (fun _ d _ t -> (d, t)) in
  let n0_dips = scan " #DIP : %d" Fun.id in
  let n0_time = scan " time : %f s" Fun.id in
  let wall = scan " task time: min %f mean %f max %f (wall %f)" (fun _ _ _ w -> w) in
  let has sub = List.exists (fun l -> contains l sub) lines in
  let task_dips, task_times, attack_time =
    match (tasks, n0_dips, n0_time, wall) with
    | _ :: _, _, _, [ w ] -> (List.map fst tasks, List.map snd tasks, w)
    | [], [ d ], [ t ], [] -> ([ d ], [ t ], t)
    | _ -> ([], [], 0.0)
  in
  {
    task_dips;
    task_times;
    attack_time;
    equivalent = has "EQUIVALENT" || has "functionally correct";
    mismatch = has "composition mismatch" || has "WRONG key";
  }

let cli_sample ~id ~job (status, wall, rss_kb) report =
  let verdict =
    match status with
    | _ when report.mismatch -> Wrong "the CLI reports a wrong unlock"
    | Exited 0 when report.equivalent && report.task_dips <> [] -> Verified
    | Exited c -> Failed (Printf.sprintf "attack exited %d without an equivalence line" c)
    | Timed_out -> Failed "attack process timed out"
    | Signalled s -> Failed (Printf.sprintf "attack process killed by signal %d" s)
  in
  {
    (blank id verdict) with
    break_s = wall;
    attack_s = report.attack_time;
    max_task_s = List.fold_left max 0.0 report.task_times;
    dips = List.fold_left ( + ) 0 report.task_dips;
    max_task_dips = List.fold_left max 0 report.task_dips;
    signature = "dips=" ^ ints report.task_dips;
    tree = { no_tree with leaves = 1 lsl job.split; max_depth = job.split };
    rss_kb;
  }

(* The attack command's library calls, in the CLI's order and with its
   defaults: parse both netlists, attack, compose (optimised), verify
   completely. *)
let cli_replica ~id ~job ~orig_path ~locked_path () =
  let (sample, queries), break_s =
    instance id (fun () ->
        let locked, original =
          Tel.with_span "netlist.parse" (fun () ->
              (Bench_io.parse_file locked_path, Bench_io.parse_file orig_path))
        in
        let oracle = Oracle.of_circuit original in
        if job.split = 0 then begin
          let r, attack_s = timed "attack.run" (fun () -> Sat_attack.run ~config locked ~oracle) in
          let verdict =
            Tel.with_span "equiv.check" (fun () ->
                match r.key with
                | None -> Failed "attack returned no key"
                | Some k -> complete_check original (Some (LL.Netlist.Instantiate.bind_keys locked k)))
          in
          ( {
              (blank id verdict) with
              attack_s;
              max_task_s = r.total_time;
              dips = r.num_dips;
              max_task_dips = r.num_dips;
              signature = "dips=" ^ string_of_int r.num_dips;
              sessions = [ session_of r.total_time r ];
              tree = { no_tree with leaf_dips = r.num_dips };
            },
            oracle )
        end
        else
          let s =
            split_sample ~id
              (split_steps ~original ~check:complete_check
                 ~attack:(fun () ->
                   Split_attack.run_parallel ~config ~cancel_on_failure:true ~n:job.split locked
                     ~oracle)
                 ~compose:(Compose.of_attack locked) ())
          in
          ({ s with signature = "dips=" ^ ints (List.map (fun (x : session) -> x.dips) s.sessions) }, oracle))
  in
  { sample with break_s; oracle_queries = Oracle.query_count queries }

let cli =
  let round ctx =
    List.mapi
      (fun i (job, lock_seed) ->
        let dir = Filename.concat ctx.work_dir (Printf.sprintf "cli-%d" i) in
        mkdir_p dir;
        let orig_path = Filename.concat dir "orig.bench" in
        let locked_path = Filename.concat dir "locked.bench" in
        let size_flag = if job.scheme = "antisat" then "--width" else "--keys" in
        cli_setup_step ctx.cli [ "gen"; job.circuit; "-o"; orig_path ];
        cli_setup_step ctx.cli
          [
            "lock"; orig_path; "--scheme"; job.scheme; size_flag; string_of_int job.size;
            "--seed"; string_of_int lock_seed; "-o"; locked_path;
          ];
        let id =
          Printf.sprintf "%s/%s%d/split%d/lock%d" job.circuit job.scheme job.size job.split
            lock_seed
        in
        let run () =
          let report_path = Filename.concat dir "attack.out" in
          let argv =
            [ ctx.cli; "attack"; locked_path; orig_path ]
            @ if job.split > 0 then [ "--split"; string_of_int job.split; "--parallel" ] else []
          in
          let outcome = spawn ~stdout_path:report_path ~timeout:120.0 (Array.of_list argv) in
          cli_sample ~id ~job outcome (parse_report (read_lines report_path))
        in
        let serial =
          if job.split = 0 then None
          else
            Some
              (fun () ->
                let locked = Bench_io.parse_file locked_path in
                let oracle = Oracle.of_circuit (Bench_io.parse_file orig_path) in
                serial_split ~n:job.split locked ~oracle ())
        in
        {
          op_id = id;
          run;
          replica = Some (cli_replica ~id ~job ~orig_path ~locked_path);
          serial;
          standalone = (fun () -> standalone (Bench_io.parse_file locked_path) ());
        })
      (let jobs = cli_jobs ~smoke:ctx.smoke in
       let jobs = if ctx.smoke then jobs else jobs @ jobs @ jobs in
       List.combine jobs (lock_seeds ctx "cli-pipeline" (List.length jobs)))
  in
  {
    name = "cli-pipeline";
    uses_pool = false;
    round;
  }

let all = [ table1; table2; cube; cli ]

let find name = List.find_opt (fun w -> w.name = name) all
