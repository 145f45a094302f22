module Timer = Ll_util.Timer
module Tel = Ll_telemetry.Telemetry

let m_subtasks = Tel.Metric.counter "split.tasks"

(* "3=1,5=0": the fixed-input pattern of a cofactor sub-attack, used to
   tag its trace span. *)
let condition_string cond =
  String.concat ","
    (List.map (fun (i, b) -> Printf.sprintf "%d=%c" i (if b then '1' else '0')) cond)

type task = {
  condition : (int * bool) list;
  sub_inputs : int;
  sub_gates : int;
  result : Sat_attack.result;
  task_time : float;
}

(* Seed for a cube identified by its pin path: the engine creates cubes
   dynamically, so the seed must be a pure function of (root seed, path)
   for serial == parallel determinism, and a cube keeps its seed whether
   it was a seed cube or the child of a re-split.  A simple avalanche
   fold over the (position, value) pins. *)
let cube_seed ~seed condition =
  let mix h v = (h lxor ((v + 0x9e3779b9 + (h lsl 6) + (h lsr 2)) * 0x01000193)) land max_int in
  List.fold_left
    (fun h (pos, b) -> mix h ((2 * pos) + if b then 1 else 0))
    (mix (seed land max_int) 0x5bd1e995)
    condition

(* One cofactor sub-attack over the shared preparation: the miter is
   synthesized, analysed and compiled exactly once per split attack (in
   {!Sat_attack.prepare}) and encoded and first simplified once (in
   {!Sat_attack.root}).  The cube takes its session from its parent
   inside the task's span and timer, then pins the inputs of [condition]
   that the session does not pin yet: all of them on a fork of the root,
   the one new pin on a re-split parent's session. *)
let run_task ~config ~prep ~oracle ~session condition =
  let t0 = Timer.monotonic () in
  let depth = List.length condition in
  if Tel.enabled () then
    Tel.span_begin ~a0:depth ~note:(condition_string condition) "split.task";
  Tel.Metric.incr m_subtasks;
  Progress.cube_started ~depth;
  match
    let s = session () in
    let pinned = List.length (Sat_attack.condition s) in
    let pins = List.filteri (fun i _ -> i >= pinned) condition in
    let result, stopped = Sat_attack.resume ~config s ~pins ~oracle in
    ( {
        condition;
        sub_inputs = Sat_attack.prep_inputs prep - depth;
        sub_gates = Sat_attack.prep_gates prep;
        result;
        task_time = Timer.monotonic () -. t0;
      },
      stopped )
  with
  | (task, _) as outcome ->
      (match task.result.Sat_attack.status with
      | Sat_attack.Broken -> Progress.cube_solved ~depth
      | _ -> Progress.cube_stopped ~depth);
      if Tel.enabled () then Tel.span_end ~v:task.result.Sat_attack.num_dips ();
      outcome
  | exception e ->
      Progress.cube_stopped ~depth;
      if Tel.enabled () then Tel.span_end ~v:(-1) ~note:"exception" ();
      raise e

(* A sub-task cancelled before it started: no cofactoring happened and no
   solver ran, only the shape of the record is filled in. *)
let cancelled_task ~prep condition =
  {
    condition;
    sub_inputs = Sat_attack.prep_inputs prep - List.length condition;
    sub_gates = 0;
    result =
      {
        Sat_attack.status = Sat_attack.Cancelled;
        key = None;
        dips = [];
        num_dips = 0;
        rounds = 0;
        oracle_queries = 0;
        total_time = 0.0;
        solve_time = 0.0;
        solver_conflicts = 0;
        imported = 0;
      };
    task_time = 0.0;
  }

let fatal (task : task) =
  match task.result.Sat_attack.status with
  | Sat_attack.Iteration_limit | Sat_attack.Time_limit -> true
  | Sat_attack.Broken | Sat_attack.Cancelled | Sat_attack.Stopped -> false

(* --- Merged-result classification ------------------------------------ *)

(* Distinct failure accounting for the merged result of a multi-cube
   attack.  [Broken] without a key means the solver proved {e no} key can
   reproduce the oracle under the cube (an inconsistent oracle): retrying
   or re-splitting such a cube is pointless, so it is counted apart from
   the recoverable statuses ([Cancelled] sub-tasks never ran; [Stopped]
   ones were preempted by a difficulty budget and can be re-split). *)
type failure_counts = {
  unsat_no_key : int;  (** [Broken] with no surviving key *)
  cancelled : int;
  stopped : int;
  iteration_limit : int;
  time_limit : int;
}

let no_failures =
  { unsat_no_key = 0; cancelled = 0; stopped = 0; iteration_limit = 0; time_limit = 0 }

let count_failure fc (r : Sat_attack.result) =
  match r.Sat_attack.status with
  | Sat_attack.Broken when r.Sat_attack.key <> None -> fc
  | Sat_attack.Broken -> { fc with unsat_no_key = fc.unsat_no_key + 1 }
  | Sat_attack.Cancelled -> { fc with cancelled = fc.cancelled + 1 }
  | Sat_attack.Stopped -> { fc with stopped = fc.stopped + 1 }
  | Sat_attack.Iteration_limit ->
      { fc with iteration_limit = fc.iteration_limit + 1 }
  | Sat_attack.Time_limit -> { fc with time_limit = fc.time_limit + 1 }

let classify results =
  List.fold_left count_failure no_failures results
