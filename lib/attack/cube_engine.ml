(* The cube-and-conquer engine behind both public split attacks:
   {!Cube_attack} exposes it with difficulty budgets, and {!Split_attack}
   is its budgets-off preset (n0 = N, max_extra_depth = 0), which is the
   paper's Algorithm 1.  Private to the library, so the preset's explicit
   split order ([rank]) and [cancel_on_failure] stay out of the public
   configuration. *)

module Circuit = Ll_netlist.Circuit
module Bitvec = Ll_util.Bitvec
module Timer = Ll_util.Timer
module Cofactor = Ll_synth.Cofactor
module Pool = Ll_runtime.Pool
module Tel = Ll_telemetry.Telemetry

let m_resplits = Tel.Metric.counter "cube.resplits"

let m_imported = Tel.Metric.counter "cube.imported_entries"

type budget = {
  conflicts : int option;
  dips : int option;
  wall_s : float option;
  growth : float;
}

let default_budget =
  { conflicts = Some 2000; dips = Some 64; wall_s = None; growth = 2.0 }

type config = {
  n0 : int;
  budget : budget;
  max_extra_depth : int;
  base : Sat_attack.config;
}

let default_config =
  {
    n0 = 1;
    budget = default_budget;
    max_extra_depth = 8;
    base = Sat_attack.default_config;
  }

type cube = {
  task : Cube_prep.task;
  depth : int;
  resplit_input : int option;
  priority : int;
}

type t = {
  seed_inputs : int array;
  cubes : cube array;
  wall_time : float;
  domains_used : int;
}

(* ------------------------------------------------------------------ *)
(* Accessors                                                          *)
(* ------------------------------------------------------------------ *)

let leaves t =
  Array.of_list
    (List.filter (fun c -> c.resplit_input = None) (Array.to_list t.cubes))

let resplits t =
  Array.fold_left
    (fun n c -> if c.resplit_input <> None then n + 1 else n)
    0 t.cubes

let imported_entries t =
  Array.fold_left
    (fun n c -> n + c.task.Cube_prep.result.Sat_attack.imported)
    0 t.cubes

let total_dips t =
  Array.fold_left
    (fun n c -> n + c.task.Cube_prep.result.Sat_attack.num_dips)
    0 t.cubes

let max_task_time t =
  Array.fold_left (fun m c -> max m c.task.Cube_prep.task_time) 0.0 t.cubes

let keys t =
  let ls = leaves t in
  let collected =
    Array.map
      (fun c ->
        match c.task.Cube_prep.result.Sat_attack.key with
        | Some k -> Some (c.task.Cube_prep.condition, k)
        | None -> None)
      ls
  in
  if Array.for_all Option.is_some collected then
    Some (Array.map Option.get collected)
  else None

type verdict =
  | Keys of ((int * bool) list * Bitvec.t) array
  | Incomplete of Cube_prep.failure_counts

let verdict t =
  match keys t with
  | Some ks -> Keys ks
  | None ->
      (* Only leaves count: a re-split cube's [Stopped] result was
         superseded by its children, not failed. *)
      Incomplete
        (Cube_prep.classify
           (Array.to_list
              (Array.map (fun c -> c.task.Cube_prep.result) (leaves t))))

(* ------------------------------------------------------------------ *)
(* The adaptive controller                                            *)
(* ------------------------------------------------------------------ *)

let validate cfg ~n_in ~rank =
  if cfg.n0 < 0 || cfg.n0 > n_in then
    invalid_arg "Cube_attack: n0 must be in [0, num_inputs]";
  if cfg.n0 > Array.length rank then
    invalid_arg "Cube_attack: not enough split inputs";
  if cfg.budget.growth < 1.0 then
    invalid_arg "Cube_attack: budget growth must be >= 1.0";
  if cfg.max_extra_depth < 0 then
    invalid_arg "Cube_attack: max_extra_depth must be >= 0";
  (match cfg.budget.conflicts with
  | Some c when c < 1 -> invalid_arg "Cube_attack: conflict budget must be >= 1"
  | _ -> ());
  match cfg.budget.dips with
  | Some d when d < 1 -> invalid_arg "Cube_attack: dip budget must be >= 1"
  | _ -> ()

(* Difficulty budget of a cube at [depth]: the base budget scaled by
   [growth^(depth - n0)].  Deeper cubes earn more headroom, so the
   re-split recursion always terminates: past some depth the budget
   exceeds the remaining work.  Conflict/DIP budgets are over
   deterministic solver counters, so the cube tree is reproducible;
   a wall-clock budget trades that for responsiveness (off by
   default). *)
let budget_hook cfg ~depth =
  let b = cfg.budget in
  if b.conflicts = None && b.dips = None && b.wall_s = None then None
  else begin
    let scale = b.growth ** float_of_int (max 0 (depth - cfg.n0)) in
    let scaled v = int_of_float (ceil (float_of_int v *. scale)) in
    let conflicts = Option.map scaled b.conflicts in
    let dips = Option.map scaled b.dips in
    let wall = Option.map (fun w -> w *. scale) b.wall_s in
    Some
      (fun (pg : Sat_attack.progress) ->
        (match conflicts with
        | Some c -> pg.Sat_attack.pg_conflicts >= c
        | None -> false)
        || (match dips with Some d -> pg.Sat_attack.pg_dips >= d | None -> false)
        ||
        match wall with Some w -> pg.Sat_attack.pg_elapsed > w | None -> false)
  end

(* The seed cubes' parent: the attack's root session
   ({!Sat_attack.root}), built once when the attack starts.  Each seed
   cube takes its session from it when its task starts, so only running
   cubes hold copies.  A lone seed cube ([n0 = 0]) takes the root
   itself; otherwise each takes a fork reseeded with its own cube seed,
   so no copy depends on which cube forks first.  Forks are taken under
   [lock] because a copy writes into its source.  The last seed cube to
   start, or to be cancelled before it starts, drops the root. *)
type root = {
  lock : Mutex.t;
  mutable session : Sat_attack.session option;
  mutable waiting : int;  (** seed cubes that have not started *)
}

(* Every cube's pinned positions are a prefix of [sh_rank] (the fan-out
   rank unless a split order is given): the seed set pins rank[0..n0)
   and each re-split pins the next ranked input, so the cube tree is a
   (depth-pruned) binary tree with one variable per level — exactly the
   shape {!Compose.build_cubes} recomposes. *)
type shared = {
  sh_cfg : config;
  sh_prep : Sat_attack.prep;
  sh_root : root;
  sh_oracle : Oracle.t;
  sh_rank : int array;
  sh_max_depth : int;
  sh_seed : int;
  sh_abort : bool Atomic.t option;
      (** [cancel_on_failure]: set by the first fatal cube, observed by
          pending cubes (which then return a cancelled placeholder
          without running the solver) and by running ones through their
          [interrupt] hook *)
}

let aborted sh = match sh.sh_abort with Some a -> Atomic.get a | None -> false

(* Count one seed cube out of the root, under its lock. *)
let leave_root r =
  let root = Option.get r.session in
  r.waiting <- r.waiting - 1;
  if r.waiting = 0 then r.session <- None;
  root

let take_root sh ~condition =
  let r = sh.sh_root in
  Mutex.protect r.lock @@ fun () ->
  let root = leave_root r in
  if sh.sh_cfg.n0 = 0 then root
  else begin
    let copy =
      Sat_attack.fork ~seed:(Cube_prep.cube_seed ~seed:sh.sh_seed condition) root
    in
    if Tel.enabled () then
      Tel.instant ~a0:(Sat_attack.arena_words copy)
        ~note:(Cube_prep.condition_string condition) "cube.fork";
    copy
  end

(* Attack one cube; when its difficulty budget preempts it, return the
   two child cubes (next ranked input pinned both ways), each with the
   session it continues.  A seed cube ([session = None]) takes its
   session from the root.  Child 1 gets a copy of the stopped session,
   reseeded with its own cube seed, and child 0 takes the original: both
   states are fixed here, before either child runs, so the tree does not
   depend on scheduling. *)
let attack_cube sh ~condition ~session ~priority =
  let cfg = sh.sh_cfg in
  let depth = List.length condition in
  let cube ?resplit_input task = { task; depth; resplit_input; priority } in
  if aborted sh then begin
    (* A cancelled seed cube makes no copy of the root. *)
    if Option.is_none session then
      Mutex.protect sh.sh_root.lock (fun () -> ignore (leave_root sh.sh_root));
    (cube (Cube_prep.cancelled_task ~prep:sh.sh_prep condition), None)
  end
  else begin
    let can_split = depth < sh.sh_max_depth in
    let config =
      { cfg.base with
        Sat_attack.solver_seed = Cube_prep.cube_seed ~seed:sh.sh_seed condition;
        stop = (if can_split then budget_hook cfg ~depth else None);
        interrupt =
          (match (sh.sh_abort, cfg.base.Sat_attack.interrupt) with
          | None, user -> user
          | Some abort, None -> Some (fun () -> Atomic.get abort)
          | Some abort, Some user -> Some (fun () -> Atomic.get abort || user ()));
      }
    in
    let task, stopped =
      Cube_prep.run_task ~config ~prep:sh.sh_prep ~oracle:sh.sh_oracle
        ~session:(fun () ->
          match session with Some s -> s | None -> take_root sh ~condition)
        condition
    in
    Tel.Metric.add m_imported task.Cube_prep.result.Sat_attack.imported;
    (match sh.sh_abort with
    | Some abort when Cube_prep.fatal task -> Atomic.set abort true
    | _ -> ());
    match stopped with
    | Some original ->
        let input = sh.sh_rank.(depth) in
        let child b = condition @ [ (input, b) ] in
        let copy =
          Sat_attack.fork ~seed:(Cube_prep.cube_seed ~seed:sh.sh_seed (child true)) original
        in
        Tel.Metric.incr m_resplits;
        if Tel.enabled () then begin
          let note = Cube_prep.condition_string condition in
          Tel.instant ~a0:depth ~note "cube.resplit";
          Tel.instant ~a0:(Sat_attack.arena_words copy) ~note "cube.fork"
        end;
        (* Deepest-first: a waiting child holds a whole solver copy, and
           the deepest children have the least work left, so this keeps
           the copies waiting in the queue few and brief. *)
        let prio = depth + 1 in
        ( cube ~resplit_input:input task,
          Some (prio, (child false, original), (child true, copy)) )
    | None -> (cube task, None)
  end

(* Canonical order: conditions compared as pin lists.  Every condition
   pins rank-prefix positions in rank order, so structural comparison
   sorts parents before children and 0-branches before 1-branches —
   independent of creation or completion order. *)
let finish sh ~cubes ~t0 ~domains_used =
  let cubes = Array.of_list cubes in
  Array.sort
    (fun a b -> compare a.task.Cube_prep.condition b.task.Cube_prep.condition)
    cubes;
  {
    seed_inputs = Array.sub sh.sh_rank 0 sh.sh_cfg.n0;
    cubes;
    wall_time = Timer.monotonic () -. t0;
    domains_used;
  }

let make_shared cfg ?rank ~abort locked ~oracle ~seed =
  let n_in = Circuit.num_inputs locked in
  let rank = match rank with Some r -> r | None -> Fanout.rank locked in
  validate cfg ~n_in ~rank;
  let prep = Sat_attack.prepare locked in
  let root_config = { cfg.base with Sat_attack.solver_seed = Cube_prep.cube_seed ~seed [] } in
  {
    sh_cfg = cfg;
    sh_prep = prep;
    sh_root =
      {
        lock = Mutex.create ();
        session = Some (Sat_attack.root ~config:root_config prep);
        waiting = 1 lsl cfg.n0;
      };
    sh_oracle = oracle;
    sh_rank = rank;
    sh_max_depth =
      max cfg.n0
        (min (cfg.n0 + cfg.max_extra_depth) (min (n_in - 1) (Array.length rank)));
    sh_seed = seed;
    sh_abort = (if abort then Some (Atomic.make false) else None);
  }

let seed_conditions sh =
  Cofactor.conditions ~split_inputs:sh.sh_rank sh.sh_cfg.n0

(* [rank] overrides the fan-out rank as the split order.  Internal to
   the library: the {!Split_attack} preset passes its [?inputs] here. *)
let run ?(config = default_config) ?rank ?(seed = 0) locked ~oracle =
  let sh = make_shared config ?rank ~abort:false locked ~oracle ~seed in
  let t0 = Timer.monotonic () in
  Tel.with_span ~a0:config.n0 ~note:"serial" "cube.run" (fun () ->
      let cubes = ref [] in
      (* Depth-first; order is irrelevant to the results (each cube's
         seed, budget and session depend only on its path).  Siblings are
         announced to [Progress] together, so live coverage never reads
         a region as done before its siblings exist. *)
      let rec process cubes_here priority =
        List.iter (fun (c, _) -> Progress.cube_created ~depth:(List.length c)) cubes_here;
        List.iter
          (fun (condition, session) ->
            let cube, resplit = attack_cube sh ~condition ~session ~priority in
            cubes := cube :: !cubes;
            match resplit with
            | None -> ()
            | Some (prio, (c0, s0), (c1, s1)) -> process [ (c0, Some s0); (c1, Some s1) ] prio)
          cubes_here
      in
      process (List.map (fun c -> (c, None)) (Array.to_list (seed_conditions sh))) 0;
      finish sh ~cubes:!cubes ~t0 ~domains_used:1)

(* [cancel_on_failure] (internal, for the {!Split_attack} preset): once a
   cube ends with a fatal status, pending cubes return cancelled
   placeholders and running ones are interrupted. *)
let run_parallel ?(config = default_config) ?rank ?num_domains ?pool ?(seed = 0)
    ?(cancel_on_failure = false) locked ~oracle =
  Tel.with_span ~a0:config.n0 ~note:"steal" "cube.run" @@ fun () ->
  let sh = make_shared config ?rank ~abort:cancel_on_failure locked ~oracle ~seed in
  let t0 = Timer.monotonic () in
  let own_pool, pool =
    match pool with
    | Some p -> (false, p)
    | None ->
        let d =
          match num_domains with
          | Some d -> d
          | None -> Domain.recommended_domain_count ()
        in
        (* Never more workers than the tree can have leaves. *)
        (true, Pool.create ~num_domains:(max 1 (min d (1 lsl min 20 sh.sh_max_depth))) ())
  in
  (* Cubes submit their children from inside pool workers (submit never
     blocks; workers never await, so no pool starvation) and list every
     handle.  A cube submits its children before it finishes, so once all
     handles listed so far have finished, any new ones are listed too:
     the caller awaits batches until none is left.  Awaiting handles,
     rather than counting finished cubes, also means every task is
     settled in the pool's books when the call returns. *)
  let lock = Mutex.create () in
  let handles = ref [] in
  let rec submit_cube condition session priority =
    Progress.cube_created ~depth:(List.length condition);
    let handle =
      Pool.submit ~priority pool (fun _ctx ->
          (* A re-split cube's child 0 continues in this task, on the
             session its parent just stopped with, so only child 1's copy
             ever waits in the queue. *)
          let rec chain condition session priority acc =
            let cube, resplit = attack_cube sh ~condition ~session ~priority in
            match resplit with
            | None -> cube :: acc
            | Some (prio, (c0, s0), (c1, s1)) ->
                Progress.cube_created ~depth:(List.length c0);
                submit_cube c1 (Some s1) prio;
                chain c0 (Some s0) prio (cube :: acc)
          in
          chain condition session priority [])
    in
    Mutex.lock lock;
    handles := handle :: !handles;
    Mutex.unlock lock
  in
  Array.iter (fun cond -> submit_cube cond None 0) (seed_conditions sh);
  let rec drain outcomes =
    Mutex.lock lock;
    let batch = !handles in
    handles := [];
    Mutex.unlock lock;
    match batch with
    | [] -> outcomes
    | _ -> drain (List.rev_append (List.map Pool.await batch) outcomes)
  in
  let outcomes = drain [] in
  let domains_used = Pool.num_domains pool in
  if own_pool then Pool.shutdown pool;
  let cubes =
    List.concat_map
      (function
        | Pool.Done cubes -> cubes
        | Pool.Failed e -> raise e
        | Pool.Cancelled -> [] (* handles are never cancelled *))
      outcomes
  in
  finish sh ~cubes ~t0 ~domains_used
