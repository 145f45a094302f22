(** Adaptive cube-and-conquer over the cofactor space.

    The paper's Algorithm 1 fixes [N] split inputs up front; attack
    difficulty, however, varies wildly across cofactors and instances.
    This engine starts from a small seed cube set ([2^n0] cofactors over
    the top fan-out-ranked inputs), monitors each cofactor's difficulty
    online through the {!Sat_attack.progress} hook (solver conflicts,
    DIP count, wall time), and {e re-splits} any cofactor that exceeds
    its budget into two child cubes by pinning the next ranked input —
    so the effective [N] is chosen per region of the input space, by
    measurement instead of up front.

    Re-splitting wastes nothing: the preempted cube's live solver
    session is forked into its two children ({!Sat_attack.fork}), and
    each child pins its one new input and continues.  A child keeps
    every DIP constraint its ancestors paid solves and oracle queries
    for, their learnt clauses and their simplified clause database; it
    re-encodes nothing.  The seed cubes, too, start from a session: the
    attack encodes the miter and runs the first simplification once, in
    a root session ({!Sat_attack.root}), and each seed cube forks it
    when it starts (a lone seed cube, [n0 = 0], runs on the root
    itself).
    Budgets scale by [growth] per extra depth, so the recursion
    terminates; at [n0 + max_extra_depth] a cube runs to completion with
    no budget.

    Every cube pins a {e prefix} of the fan-out rank, so the final cube
    set is a depth-pruned binary tree — exactly the shape
    {!Compose.build_cubes} turns into a variable-arity MUX tree
    (Fig. 1(b), generalized to non-uniform leaf depths).

    With every budget off and [max_extra_depth = 0] no cube can re-split
    and the engine is Algorithm 1 itself: {!Split_attack} is exactly that
    preset, so a fixed split at [N] and a budgets-off run at [n0 = N]
    return the same per-cofactor DIP sequences, keys and statuses.

    {b Determinism.} A cube's solver seed is a pure function of the root
    [seed] and its pin path; conflict/DIP budgets read deterministic
    solver counters; every seed fork of the root is reseeded with its
    cube's seed, and a re-split forks both children's sessions before
    either runs, so each cube's state depends only on its path.  Serial
    and parallel runs therefore produce byte-identical cube trees, DIP
    sequences and keys under any domain count or stealing (unless a
    wall-clock budget [wall_s] is set). *)

type budget = {
  conflicts : int option;
      (** preempt a cube once its session exceeds this many solver
          conflicts (deterministic; the main difficulty signal for
          conflict-heavy locks like XOR/LUT) *)
  dips : int option;
      (** preempt after this many DIPs found by the cube itself —
          inherited ancestor DIPs do not count (the difficulty signal for
          point-function locks like SARLock/Anti-SAT, whose cofactors
          generate many trivial DIPs but few conflicts) *)
  wall_s : float option;
      (** wall-clock budget in seconds; {b non-deterministic} — re-split
          decisions then depend on machine speed.  [None] (default)
          keeps runs reproducible *)
  growth : float;
      (** budget multiplier per level below [n0] (>= 1): children get
          [growth] times their parent's budget, so deep cubes eventually
          run to completion *)
}

val default_budget : budget
(** [conflicts = Some 2000], [dips = Some 64], [wall_s = None],
    [growth = 2.0]. *)

type config = {
  n0 : int;  (** seed split width: the attack starts from [2^n0] cubes *)
  budget : budget;
  max_extra_depth : int;
      (** hard depth cap at [n0 + max_extra_depth] (clamped to leave one
          free input, but never below [n0]): cubes at the cap run with
          no budget *)
  base : Sat_attack.config;
      (** per-cube attack configuration.  [solver_seed] and [stop] are
          managed by the engine and ignored; [interrupt], the limits
          and [solver_simp] apply to every cube, and the limits count
          from each cube's own start *)
}

val default_config : config
(** [n0 = 1], {!default_budget}, [max_extra_depth = 8],
    {!Sat_attack.default_config} base. *)

type cube = {
  task : Cube_prep.task;  (** the cube's attack session result *)
  depth : int;  (** number of pinned inputs *)
  resplit_input : int option;
      (** [Some i]: the budget preempted this cube ([Stopped]) and it was
          re-split on input [i]; its two children carry on.  [None]: a
          leaf of the final cube tree *)
  priority : int;
      (** scheduling priority it ran at: its depth for a re-split
          child, 0 for a seed cube *)
}

type t = {
  seed_inputs : int array;  (** the [n0] seed split inputs, rank order *)
  cubes : cube array;
      (** the whole cube tree in canonical (path-lexicographic) order:
          parents precede children, 0-branches precede 1-branches *)
  wall_time : float;
  domains_used : int;
}

val leaves : t -> cube array
(** The final partition of the input space, canonical order. *)

val keys : t -> ((int * bool) list * Ll_util.Bitvec.t) array option
(** Per-leaf [(condition, key)] pairs, canonical order — the input to
    {!Compose.build_cubes}.  [None] when any leaf failed. *)

type verdict =
  | Keys of ((int * bool) list * Ll_util.Bitvec.t) array
  | Incomplete of Cube_prep.failure_counts
      (** failure accounting over the {e leaves} (a re-split cube's
          [Stopped] result was superseded, not failed).  A leaf the
          solver proved unkeyable ([unsat_no_key]) is never re-split or
          retried — re-splitting cannot help an inconsistent oracle *)

val verdict : t -> verdict

val resplits : t -> int
(** Number of cubes the budget preempted (= internal tree nodes). *)

val imported_entries : t -> int
(** Sum over all cubes of [Sat_attack.result.imported]: the ancestor
    DIPs each cube's solver inherited through forks.  A DIP found at
    depth [d] counts once in every descendant cube's solver. *)

val total_dips : t -> int
(** Sum of per-cube DIP counts (inherited constraints excluded). *)

val max_task_time : t -> float

val run :
  ?config:config ->
  ?seed:int ->
  Ll_netlist.Circuit.t ->
  oracle:Oracle.t ->
  t
(** Serial reference runner (depth-first over the cube tree).  Raises
    [Invalid_argument] on an invalid configuration ([n0] outside
    [0..num_inputs], [growth < 1], non-positive budgets). *)

val run_parallel :
  ?config:config ->
  ?num_domains:int ->
  ?pool:Ll_runtime.Pool.t ->
  ?seed:int ->
  Ll_netlist.Circuit.t ->
  oracle:Oracle.t ->
  t
(** Pooled runner: when a cube re-splits, its child 0 continues in the
    same pool task on the stopped session and child 1, on its copy, is
    submitted deepest-first ({!Ll_runtime.Pool.submit}'s heap, keyed by
    depth), so re-split work starts without waiting for a global
    barrier and few solver copies wait in the queue.  When [pool] is given it is used and left running;
    otherwise a private pool of [num_domains] workers (default
    recommended count, capped at [2^(n0 + max_extra_depth)]) is created
    and shut down around the call.
    Results are byte-identical to {!run} (see the determinism note
    above). *)
