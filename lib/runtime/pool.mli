(** Reusable domain pool with per-worker work-stealing deques.

    The pool is the shared parallel substrate of the library: the split
    attack fans its [2^N] cofactor sub-attacks over it, AppSAT samples
    error-estimate batches on it, and the benchmark suite generates
    circuit sweeps with it.  Tasks are expected to be {e coarse-grained}
    (milliseconds and up); scheduling is serialized under one pool lock,
    which is noise at that granularity and keeps the scheduler obviously
    correct.

    {b Scheduling.} Submissions are placed round-robin across the
    per-worker deques ({!Deque}).  A worker pops its own deque LIFO; when
    empty it scans the other deques in index order starting after its own
    and steals the {e oldest} task (FIFO), bumping the pool's steal
    counter.  Idle workers sleep on a condition variable.

    {b Determinism.} Each task receives a {!Ll_util.Prng.t} stream derived
    with [Prng.split] from the pool's root generator {e at submission
    time}, in submission order — two runs that submit the same tasks in
    the same order see identical streams no matter how the tasks are
    scheduled or stolen.

    {b Cancellation.} {!cancel} marks a handle; a task that has not
    started is discarded without running (its outcome is {!Cancelled}),
    while a running task can poll {!cancel_requested} through its context
    and wind down cooperatively (its own return value is still delivered
    as {!Done}).

    Do not {!await} from inside a task of the same pool: the worker would
    block and starve the pool. *)

type t

type ctx
(** Per-task execution context handed to the task function. *)

val prng : ctx -> Ll_util.Prng.t
(** The task's private PRNG stream (split from the pool root at
    submission; see determinism note above). *)

val cancel_requested : ctx -> bool
(** Cooperative cancellation poll for running tasks. *)

type 'a outcome =
  | Done of 'a
  | Cancelled  (** cancelled before the task started; it never ran *)
  | Failed of exn  (** the task raised *)

type 'a handle

val create : ?num_domains:int -> ?seed:int -> unit -> t
(** [create ()] spawns the worker domains (default:
    [Domain.recommended_domain_count ()], min 1).  [seed] (default 0)
    seeds the root PRNG from which per-task streams are split. *)

val num_domains : t -> int

val submit : ?priority:int -> t -> (ctx -> 'a) -> 'a handle
(** Enqueue a task.  Raises [Invalid_argument] after {!shutdown}.

    Without [priority] the task lands in the round-robin deques described
    above.  With [priority] it goes to a pool-global max-heap that every
    worker drains {e before} its own deque: prioritized tasks run
    hardest-first (higher value first, submission order as the FIFO
    tie-break) regardless of which worker frees up.  Priorities are
    scheduling {e hints} only — they affect wall time, never results;
    callers must not rely on execution order for correctness.  The
    adaptive cube-and-conquer attack uses them to run the deepest
    waiting cubes first, so the solver copies they hold are freed
    early. *)

val await : 'a handle -> 'a outcome
(** Block until the task reaches a terminal state. *)

val cancel : 'a handle -> unit
(** Request cancellation; idempotent, never blocks.  See the cancellation
    note above for started vs. pending tasks. *)

val map_array : t -> (ctx -> 'a -> 'b) -> 'a array -> 'b outcome array
(** [map_array p f xs] submits [f] over every element (in index order, so
    PRNG streams are positionally stable) and awaits them all. *)

type stats = {
  tasks_run : int;  (** tasks executed to completion (incl. [Failed]) *)
  tasks_cancelled : int;  (** tasks discarded before starting *)
  steals : int;  (** tasks executed by a worker that took them from
                     another worker's deque *)
  max_queue : int;  (** high-water mark of any single deque's length *)
  spawn_seconds : float;  (** wall time spent spawning the domains *)
  join_seconds : float;  (** wall time spent joining them (at shutdown) *)
}

val stats : t -> stats
(** Snapshot of the pool counters (taken under the scheduler lock). *)

val shutdown : t -> unit
(** Drain remaining tasks, stop the workers and join their domains.
    Idempotent.  Submitting afterwards raises. *)

val with_pool : ?num_domains:int -> ?seed:int -> (t -> 'a) -> 'a
(** [with_pool f] runs [f] over a fresh pool and shuts it down on the way
    out, whether [f] returns or raises. *)
