module Circuit = Ll_netlist.Circuit
module Bitvec = Ll_util.Bitvec

(* A thin preset over the cube engine: scheduling, seeding, pools and
   cancellation all live in {!Cube_engine}, so the fixed split and the
   adaptive attack cannot drift apart. *)
type task = Cube_prep.task = {
  condition : (int * bool) list;
  sub_inputs : int;
  sub_gates : int;
  result : Sat_attack.result;
  task_time : float;
}

type t = {
  split_inputs : int array;
  tasks : task array;
  wall_time : float;
  domains_used : int;
}

let keys t =
  let collected =
    Array.map (fun task -> task.result.Sat_attack.key) t.tasks |> Array.to_list
  in
  if List.for_all Option.is_some collected then
    Some (Array.of_list (List.map Option.get collected))
  else None

type verdict = Keys of Bitvec.t array | Incomplete of Cube_prep.failure_counts

let verdict t =
  match keys t with
  | Some ks -> Keys ks
  | None ->
      Incomplete
        (Cube_prep.classify
           (Array.to_list (Array.map (fun task -> task.result) t.tasks)))

let task_times t = Array.map (fun task -> task.task_time) t.tasks

let max_task_time t = Array.fold_left max 0.0 (task_times t)

let min_task_time t =
  Array.fold_left min infinity (task_times t)

let mean_task_time t =
  let times = task_times t in
  Array.fold_left ( +. ) 0.0 times /. float_of_int (Array.length times)

let recommended_effort ?cores locked =
  let cores =
    match cores with Some c -> max 1 c | None -> Domain.recommended_domain_count ()
  in
  let rec log2 n = if n <= 1 then 0 else 1 + log2 (n / 2) in
  min (log2 cores) (max 0 (Circuit.num_inputs locked - 1))

(* Algorithm 1 is the engine with every budget off and no room to
   re-split: each of the 2^n seed cubes runs to completion. *)
let preset ?config n =
  {
    Cube_engine.n0 = n;
    budget = { conflicts = None; dips = None; wall_s = None; growth = 1.0 };
    max_extra_depth = 0;
    base = Option.value config ~default:Sat_attack.default_config;
  }

(* The engine returns cubes in canonical (path-lexicographic) order, in
   which the first split input is the most significant pin.  A fixed
   split reports its tasks in condition-integer order instead
   ({!Ll_synth.Cofactor.conditions}: the first split input is the least
   significant), so [tasks.(i)] and [keys.(i)] serve condition [i];
   {!Compose.of_attack} composes them in that order. *)
let of_engine (e : Cube_engine.t) =
  let index (task : task) =
    List.fold_right (fun (_, b) acc -> (2 * acc) + Bool.to_int b) task.condition 0
  in
  let tasks = Array.map (fun (c : Cube_engine.cube) -> c.task) e.cubes in
  Array.sort (fun a b -> compare (index a) (index b)) tasks;
  {
    split_inputs = e.seed_inputs;
    tasks;
    wall_time = e.wall_time;
    domains_used = e.domains_used;
  }

let run ?config ?inputs ?seed ~n locked ~oracle =
  of_engine (Cube_engine.run ~config:(preset ?config n) ?rank:inputs ?seed locked ~oracle)

let run_parallel ?config ?inputs ?num_domains ?pool ?seed ?cancel_on_failure ~n locked
    ~oracle =
  of_engine
    (Cube_engine.run_parallel ~config:(preset ?config n) ?rank:inputs ?num_domains ?pool
       ?seed ?cancel_on_failure locked ~oracle)
