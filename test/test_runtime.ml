(* The work-stealing domain pool: exactly-once execution, stealing under
   imbalance, submission-order PRNG determinism, cancellation, failure
   isolation. *)

module Pool = Logiclock.Runtime.Pool
module Deque = Logiclock.Runtime.Deque
module Prng = Logiclock.Util.Prng
module Tel = Logiclock.Telemetry.Telemetry

let unwrap = function
  | Pool.Done v -> v
  | Pool.Cancelled -> Alcotest.fail "task unexpectedly cancelled"
  | Pool.Failed e -> raise e

(* Burn CPU in a way the compiler cannot elide; coarse enough to outlive a
   few OS timeslices when [spins] is large. *)
let busy_work spins =
  let acc = ref 0 in
  for i = 1 to spins do
    acc := (!acc * 31) + i
  done;
  !acc

let test_deque_order () =
  let d = Deque.create () in
  Alcotest.(check bool) "fresh empty" true (Deque.is_empty d);
  for i = 0 to 40 do
    Deque.push_back d i
  done;
  Alcotest.(check int) "length" 41 (Deque.length d);
  Alcotest.(check (option int)) "owner pop is LIFO" (Some 40) (Deque.pop_back d);
  Alcotest.(check (option int)) "thief pop is FIFO" (Some 0) (Deque.pop_front d);
  Alcotest.(check (option int)) "next steal" (Some 1) (Deque.pop_front d);
  (* Drain across the ring-growth boundary. *)
  let rec drain acc = match Deque.pop_front d with None -> acc | Some x -> drain (x :: acc) in
  Alcotest.(check int) "drained rest" 38 (List.length (drain []));
  Alcotest.(check (option int)) "empty again" None (Deque.pop_back d)

let test_map_array_in_order () =
  Pool.with_pool ~num_domains:3 (fun pool ->
      let xs = Array.init 20 (fun i -> i) in
      let out = Pool.map_array pool (fun _ctx x -> (2 * x) + 1) xs in
      Array.iteri
        (fun i o -> Alcotest.(check int) "result slot" ((2 * i) + 1) (unwrap o))
        out)

let test_exactly_once_and_steals () =
  (* 16 tasks, 4 workers, round-robin placement: tasks 0,4,8,12 land on
     worker 0's deque and carry nearly all the work.  Workers 1-3 drain
     their trivial tasks quickly and must steal from worker 0 to finish. *)
  let num_tasks = 16 in
  let runs = Array.init num_tasks (fun _ -> Atomic.make 0) in
  let pool = Pool.create ~num_domains:4 () in
  let out =
    Pool.map_array pool
      (fun _ctx i ->
        Atomic.incr runs.(i);
        if i mod 4 = 0 then busy_work 3_000_000 else busy_work 100)
      (Array.init num_tasks (fun i -> i))
  in
  let stats = Pool.stats pool in
  Pool.shutdown pool;
  Array.iter (fun o -> ignore (unwrap o)) out;
  Array.iteri
    (fun i r -> Alcotest.(check int) (Printf.sprintf "task %d ran once" i) 1 (Atomic.get r))
    runs;
  Alcotest.(check int) "all tasks ran" num_tasks stats.Pool.tasks_run;
  Alcotest.(check bool) "steals happened" true (stats.Pool.steals > 0);
  Alcotest.(check bool) "steals bounded by tasks" true (stats.Pool.steals < num_tasks);
  Alcotest.(check bool) "spawn time measured" true (stats.Pool.spawn_seconds >= 0.0)

let test_prng_streams_scheduling_independent () =
  (* Streams are split at submission, in submission order: the drawn
     values must not depend on the pool width (i.e. on scheduling). *)
  let draw num_domains =
    Pool.with_pool ~num_domains ~seed:42 (fun pool ->
        Pool.map_array pool
          (fun ctx _ -> Prng.int (Pool.prng ctx) 1_000_000)
          (Array.make 12 ())
        |> Array.map unwrap)
  in
  let one = draw 1 and two = draw 2 and four = draw 4 in
  Alcotest.(check (array int)) "1 vs 2 domains" one two;
  Alcotest.(check (array int)) "1 vs 4 domains" one four;
  let distinct = Array.to_list one |> List.sort_uniq compare |> List.length in
  Alcotest.(check bool) "streams differ across tasks" true (distinct > 1)

let test_cancel_pending () =
  let pool = Pool.create ~num_domains:1 () in
  let gate = Atomic.make false in
  let started = Atomic.make false in
  let blocker =
    Pool.submit pool (fun _ctx ->
        Atomic.set started true;
        while not (Atomic.get gate) do
          Domain.cpu_relax ()
        done;
        "blocker")
  in
  (* Wait until the single worker is definitely inside the blocker, so the
     next submission stays pending in the deque. *)
  while not (Atomic.get started) do
    Domain.cpu_relax ()
  done;
  let victim = Pool.submit pool (fun _ctx -> "victim") in
  let ran_after = Atomic.make false in
  let after =
    Pool.submit pool (fun _ctx ->
        Atomic.set ran_after true;
        "after")
  in
  Pool.cancel victim;
  Atomic.set gate true;
  Alcotest.(check string) "blocker completed" "blocker" (unwrap (Pool.await blocker));
  (match Pool.await victim with
  | Pool.Cancelled -> ()
  | Pool.Done _ -> Alcotest.fail "cancelled task ran"
  | Pool.Failed e -> raise e);
  Alcotest.(check string) "later task unaffected" "after" (unwrap (Pool.await after));
  Alcotest.(check bool) "after really ran" true (Atomic.get ran_after);
  let stats = Pool.stats pool in
  Pool.shutdown pool;
  Alcotest.(check int) "one cancellation counted" 1 stats.Pool.tasks_cancelled

let test_cooperative_cancel_of_running_task () =
  Pool.with_pool ~num_domains:1 (fun pool ->
      let started = Atomic.make false in
      let h =
        Pool.submit pool (fun ctx ->
            Atomic.set started true;
            let polls = ref 0 in
            while not (Pool.cancel_requested ctx) do
              incr polls;
              Domain.cpu_relax ()
            done;
            !polls)
      in
      while not (Atomic.get started) do
        Domain.cpu_relax ()
      done;
      Pool.cancel h;
      (* A task that observes cancellation and returns normally is Done —
         cooperative wind-down keeps its partial result. *)
      Alcotest.(check bool) "wound down cooperatively" true (unwrap (Pool.await h) >= 0))

exception Boom

let test_failed_task_isolated () =
  Pool.with_pool ~num_domains:2 (fun pool ->
      let out =
        Pool.map_array pool
          (fun _ctx i -> if i = 3 then raise Boom else i)
          (Array.init 8 (fun i -> i))
      in
      Array.iteri
        (fun i o ->
          match o with
          | Pool.Done v -> Alcotest.(check int) "survivor" i v
          | Pool.Failed Boom when i = 3 -> ()
          | Pool.Failed e -> raise e
          | Pool.Cancelled -> Alcotest.fail "unexpected cancellation")
        out;
      (* The pool survives a failing task. *)
      Alcotest.(check int) "still serving" 7 (unwrap (Pool.await (Pool.submit pool (fun _ -> 7)))))

let test_priority_order () =
  (* With one worker pinned inside a blocker, pending prioritized tasks
     accumulate in the global heap and must run highest-priority first
     (submission order breaking ties), ahead of any unprioritized deque
     work. *)
  Pool.with_pool ~num_domains:1 (fun pool ->
      let gate = Atomic.make false in
      let started = Atomic.make false in
      let blocker =
        Pool.submit pool (fun _ctx ->
            Atomic.set started true;
            while not (Atomic.get gate) do
              Domain.cpu_relax ()
            done)
      in
      while not (Atomic.get started) do
        Domain.cpu_relax ()
      done;
      let order = ref [] in
      let record tag = Pool.submit pool (fun _ctx -> order := tag :: !order) in
      let plain = record "plain" in
      let submit_prio priority tag =
        Pool.submit ~priority pool (fun _ctx -> order := tag :: !order)
      in
      let a = submit_prio 1 "p1" in
      let b = submit_prio 5 "p5" in
      let c = submit_prio 3 "p3" in
      let d = submit_prio 5 "p5bis" in
      Atomic.set gate true;
      List.iter
        (fun h -> ignore (unwrap (Pool.await h)))
        [ blocker; plain; a; b; c; d ];
      Alcotest.(check (list string)) "hardest first, stable ties, heap before deque"
        [ "p5"; "p5bis"; "p3"; "p1"; "plain" ]
        (List.rev !order))

let test_shutdown_drains_and_rejects () =
  let pool = Pool.create ~num_domains:2 () in
  let hs = Array.init 10 (fun i -> Pool.submit pool (fun _ctx -> busy_work 10_000 |> ignore; i)) in
  Pool.shutdown pool;
  Array.iteri (fun i h -> Alcotest.(check int) "drained" i (unwrap (Pool.await h))) hs;
  Pool.shutdown pool (* idempotent *);
  Alcotest.check_raises "submit after shutdown"
    (Invalid_argument "Pool.submit: pool is shut down") (fun () ->
      ignore (Pool.submit pool (fun _ -> ())));
  Alcotest.(check bool) "join time measured" true ((Pool.stats pool).Pool.join_seconds >= 0.0)

(* A task's "pool.task" span closes before its outcome is published, so
   in a snapshot taken as soon as [await] returns the newest "pool.task"
   event is a span end.  A small ring keeps each snapshot cheap. *)
let test_task_span_closed_at_await () =
  Tel.enable ~ring_capacity:64 ();
  Fun.protect
    ~finally:(fun () ->
      Tel.disable ();
      Tel.reset ())
    (fun () ->
      Pool.with_pool ~num_domains:1 (fun pool ->
          for i = 1 to 1000 do
            ignore (unwrap (Pool.await (Pool.submit pool (fun _ctx -> i))));
            let newest =
              Array.fold_left
                (fun acc (e : Tel.event) -> if e.Tel.er_name = "pool.task" then Some e else acc)
                None (Tel.snapshot ()).Tel.events
            in
            match newest with
            | Some e when e.Tel.er_kind = Tel.kind_end -> ()
            | Some _ -> Alcotest.failf "round %d: pool.task span still open after await" i
            | None -> Alcotest.failf "round %d: no pool.task span recorded" i
          done))

let suite =
  [
    Alcotest.test_case "deque order" `Quick test_deque_order;
    Alcotest.test_case "map_array in order" `Quick test_map_array_in_order;
    Alcotest.test_case "exactly once + steals" `Quick test_exactly_once_and_steals;
    Alcotest.test_case "prng streams scheduling independent" `Quick
      test_prng_streams_scheduling_independent;
    Alcotest.test_case "cancel pending" `Quick test_cancel_pending;
    Alcotest.test_case "cooperative cancel" `Quick test_cooperative_cancel_of_running_task;
    Alcotest.test_case "priority order" `Quick test_priority_order;
    Alcotest.test_case "failed task isolated" `Quick test_failed_task_isolated;
    Alcotest.test_case "shutdown drains and rejects" `Quick test_shutdown_drains_and_rejects;
    Alcotest.test_case "task span closed at await" `Quick test_task_span_closed_at_await;
  ]
