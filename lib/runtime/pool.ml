module Prng = Ll_util.Prng
module Timer = Ll_util.Timer
module Tel = Ll_telemetry.Telemetry

let m_tasks = Tel.Metric.counter "pool.tasks"

let m_steals = Tel.Metric.counter "pool.steals"

let m_cancelled = Tel.Metric.counter "pool.cancelled"

let g_queue_depth = Tel.Metric.gauge "pool.queue_depth"

type ctx = { ctx_prng : Prng.t; ctx_cancelled : unit -> bool }

let prng c = c.ctx_prng

let cancel_requested c = c.ctx_cancelled ()

type 'a outcome = Done of 'a | Cancelled | Failed of exn

(* A job is the type-erased form of a submitted task: [job_run] executes
   the user function and returns the thunk that records its outcome in the
   handle, [job_skip] records [Cancelled] without running.  Publishing
   takes the pool lock.  The worker publishes only after it has closed the
   task's trace span, so a snapshot taken once [await] returns never sees
   that span open. *)
type job = {
  job_id : int;  (* submission sequence number, for trace labelling *)
  job_cancelled : bool Atomic.t;
  job_run : unit -> unit -> unit;
  job_skip : unit -> unit;
}

type t = {
  lock : Mutex.t;
  wake : Condition.t;  (* signalled on submit, completion and shutdown *)
  deques : job Deque.t array;
  (* Shared binary max-heap of prioritized jobs: (priority, submission id,
     job), ordered priority-descending with submission order as the FIFO
     tie-break.  Workers drain it before their own deque, so "hardest
     first" holds globally, not per worker.  Protected by [lock]. *)
  mutable prio_heap : (int * int * job) array;
  mutable prio_len : int;
  mutable domains : unit Domain.t array;
  mutable next_deque : int;  (* round-robin submission cursor *)
  mutable n_submitted : int;
  mutable stopping : bool;
  root_prng : Prng.t;  (* split once per task, under [lock], in submit order *)
  mutable n_run : int;
  mutable n_cancelled : int;
  mutable n_steals : int;
  mutable max_queue : int;
  mutable spawn_seconds : float;
  mutable join_seconds : float;
}

type 'a state = Pending | Finished of 'a outcome

type 'a handle = {
  h_pool : t;
  mutable h_state : 'a state;  (* protected by [h_pool.lock] *)
  h_cancel : bool Atomic.t;
}

let num_domains pool = Array.length pool.deques

(* --- Priority heap (lock held for all operations) --- *)

let heap_before (p1, s1, _) (p2, s2, _) = p1 > p2 || (p1 = p2 && s1 < s2)

(* Fills every slot past [prio_len]: a job left there would keep its
   closure, and whatever the closure captured, alive after it ran. *)
let vacant =
  ( min_int,
    -1,
    {
      job_id = -1;
      job_cancelled = Atomic.make true;
      job_run = (fun () () -> ());
      job_skip = ignore;
    } )

let heap_push pool entry =
  if pool.prio_len = Array.length pool.prio_heap then begin
    let grown =
      Array.make (max 8 (2 * Array.length pool.prio_heap)) vacant
    in
    Array.blit pool.prio_heap 0 grown 0 pool.prio_len;
    pool.prio_heap <- grown
  end;
  let h = pool.prio_heap in
  let i = ref pool.prio_len in
  pool.prio_len <- pool.prio_len + 1;
  h.(!i) <- entry;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if heap_before h.(!i) h.(parent) then begin
      let tmp = h.(parent) in
      h.(parent) <- h.(!i);
      h.(!i) <- tmp;
      i := parent
    end
    else continue := false
  done

let heap_pop pool =
  if pool.prio_len = 0 then None
  else begin
    let h = pool.prio_heap in
    let (_, _, top) = h.(0) in
    pool.prio_len <- pool.prio_len - 1;
    h.(0) <- h.(pool.prio_len);
    h.(pool.prio_len) <- vacant;
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let best = ref !i in
      if l < pool.prio_len && heap_before h.(l) h.(!best) then best := l;
      if r < pool.prio_len && heap_before h.(r) h.(!best) then best := r;
      if !best <> !i then begin
        let tmp = h.(!best) in
        h.(!best) <- h.(!i);
        h.(!i) <- tmp;
        i := !best
      end
      else continue := false
    done;
    Some top
  end

(* Called with [pool.lock] held.  Highest-priority pending job first, then
   the worker's own deque (LIFO), then steal the oldest task of the first
   non-empty victim, scanning in index order after the worker's own slot
   so the choice is stable. *)
let try_take pool w =
  match heap_pop pool with
  | Some job -> Some (job, false)
  | None -> (
      match Deque.pop_back pool.deques.(w) with
      | Some job -> Some (job, false)
      | None ->
          let n = Array.length pool.deques in
          let rec scan k =
            if k >= n then None
            else
              match Deque.pop_front pool.deques.((w + k) mod n) with
              | Some job -> Some (job, true)
              | None -> scan (k + 1)
          in
          scan 1)

let worker pool w () =
  Mutex.lock pool.lock;
  let rec loop () =
    match try_take pool w with
    | Some (job, stolen) ->
        if stolen then pool.n_steals <- pool.n_steals + 1;
        Mutex.unlock pool.lock;
        if stolen then begin
          Tel.instant ~a0:job.job_id "pool.steal";
          Tel.Metric.incr m_steals
        end;
        if Atomic.get job.job_cancelled then begin
          Tel.Metric.incr m_cancelled;
          job.job_skip ()
        end
        else begin
          Tel.Metric.incr m_tasks;
          let publish =
            if Tel.enabled () then Tel.with_span ~a0:job.job_id "pool.task" job.job_run
            else job.job_run ()
          in
          publish ()
        end;
        Mutex.lock pool.lock;
        loop ()
    | None ->
        if pool.stopping then Mutex.unlock pool.lock
        else begin
          (* Idle time is measured around the wait and emitted as a
             backdated span after wake-up, so a snapshot taken while a
             worker sleeps never sees a dangling open span. *)
          let t0 = if Tel.enabled () then Tel.now_ns () else 0 in
          Condition.wait pool.wake pool.lock;
          if t0 <> 0 then Tel.timed_span ~t0_ns:t0 "pool.idle";
          loop ()
        end
  in
  loop ()

let create ?num_domains ?(seed = 0) () =
  let n =
    match num_domains with
    | Some d -> max 1 d
    | None -> max 1 (Domain.recommended_domain_count ())
  in
  let pool =
    {
      lock = Mutex.create ();
      wake = Condition.create ();
      deques = Array.init n (fun _ -> Deque.create ());
      prio_heap = [||];
      prio_len = 0;
      domains = [||];
      next_deque = 0;
      n_submitted = 0;
      stopping = false;
      root_prng = Prng.create seed;
      n_run = 0;
      n_cancelled = 0;
      n_steals = 0;
      max_queue = 0;
      spawn_seconds = 0.0;
      join_seconds = 0.0;
    }
  in
  let domains, dt = Timer.time (fun () -> Array.init n (fun w -> Domain.spawn (worker pool w))) in
  pool.domains <- domains;
  pool.spawn_seconds <- dt;
  pool

let submit ?priority pool fn =
  Mutex.lock pool.lock;
  if pool.stopping then begin
    Mutex.unlock pool.lock;
    invalid_arg "Pool.submit: pool is shut down"
  end;
  let stream = Prng.split pool.root_prng in
  let handle = { h_pool = pool; h_state = Pending; h_cancel = Atomic.make false } in
  let finish outcome =
    Mutex.lock pool.lock;
    handle.h_state <- Finished outcome;
    (match outcome with
    | Cancelled -> pool.n_cancelled <- pool.n_cancelled + 1
    | Done _ | Failed _ -> pool.n_run <- pool.n_run + 1);
    Condition.broadcast pool.wake;
    Mutex.unlock pool.lock
  in
  let ctx = { ctx_prng = stream; ctx_cancelled = (fun () -> Atomic.get handle.h_cancel) } in
  let job =
    {
      job_id = pool.n_submitted;
      job_cancelled = handle.h_cancel;
      job_run =
        (fun () ->
          match fn ctx with
          | v -> fun () -> finish (Done v)
          | exception e -> fun () -> finish (Failed e));
      job_skip = (fun () -> finish Cancelled);
    }
  in
  pool.n_submitted <- pool.n_submitted + 1;
  (match priority with
  | Some p -> heap_push pool (p, job.job_id, job)
  | None ->
      let d = pool.deques.(pool.next_deque) in
      Deque.push_back d job;
      if Deque.length d > pool.max_queue then pool.max_queue <- Deque.length d;
      pool.next_deque <- (pool.next_deque + 1) mod Array.length pool.deques);
  if Tel.enabled () then begin
    (* Backlog visible to the live sampler: queued, not yet taken.  Cheap
       under the lock already held — a few deque length reads. *)
    let queued =
      Array.fold_left (fun acc d -> acc + Deque.length d) pool.prio_len pool.deques
    in
    Tel.Metric.set g_queue_depth (float_of_int queued)
  end;
  Condition.broadcast pool.wake;
  Mutex.unlock pool.lock;
  handle

let await handle =
  let pool = handle.h_pool in
  Mutex.lock pool.lock;
  let rec wait () =
    match handle.h_state with
    | Finished outcome ->
        Mutex.unlock pool.lock;
        outcome
    | Pending ->
        Condition.wait pool.wake pool.lock;
        wait ()
  in
  wait ()

let cancel handle = Atomic.set handle.h_cancel true

let map_array pool f xs =
  let handles = Array.map (fun x -> submit pool (fun ctx -> f ctx x)) xs in
  Array.map await handles

type stats = {
  tasks_run : int;
  tasks_cancelled : int;
  steals : int;
  max_queue : int;
  spawn_seconds : float;
  join_seconds : float;
}

let stats pool =
  Mutex.lock pool.lock;
  let s =
    {
      tasks_run = pool.n_run;
      tasks_cancelled = pool.n_cancelled;
      steals = pool.n_steals;
      max_queue = pool.max_queue;
      spawn_seconds = pool.spawn_seconds;
      join_seconds = pool.join_seconds;
    }
  in
  Mutex.unlock pool.lock;
  s

let shutdown pool =
  Mutex.lock pool.lock;
  if pool.stopping then Mutex.unlock pool.lock
  else begin
    pool.stopping <- true;
    Condition.broadcast pool.wake;
    Mutex.unlock pool.lock;
    let (), dt = Timer.time (fun () -> Array.iter Domain.join pool.domains) in
    pool.join_seconds <- dt
  end

let with_pool ?num_domains ?seed f =
  let pool = create ?num_domains ?seed () in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)
