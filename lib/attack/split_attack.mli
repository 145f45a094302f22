(** The paper's multi-key attack (Algorithm 1).

    The primary-input space is split into [2^N] cofactors over [N] selected
    inputs; each conditional netlist is synthesized ({!Ll_synth.Cofactor})
    and attacked independently with the classic SAT attack against a
    restricted oracle.  The resulting keys — usually {e incorrect} for the
    full design — collectively unlock it through the key-selecting MUX of
    Fig. 1(b) (see {!Compose}).

    This module is a preset of the cube engine behind {!Cube_attack}: one
    run with [n0 = n], every budget off and [max_extra_depth = 0], so
    each cofactor runs to completion.  {!run} executes the cofactors
    sequentially, {!run_parallel} schedules them on a domain pool
    ({!Ll_runtime.Pool}, the paper's 16-core scenario).  A cofactor's
    solver seed is {!Cube_prep.cube_seed} of its pin path, so the serial
    and every parallel run return byte-identical per-task results
    regardless of domain count or stealing — and the same results as a
    budgets-off {!Cube_attack} run at [n0 = n]. *)

type task = Cube_prep.task = {
  condition : (int * bool) list;  (** pinned input positions and values *)
  sub_inputs : int;  (** free inputs of the conditional netlist *)
  sub_gates : int;
      (** gate count of the shared synthesized miter: the same for every
          task, 0 for a task cancelled before it started *)
  result : Sat_attack.result;
  task_time : float;
      (** wall clock of the task's attack session, taking its session
          (a seed cube's fork of the root) included; cubes pin their
          inputs in the shared miter, so no cofactor circuit is built *)
}

type t = {
  split_inputs : int array;  (** selected input positions, in split order *)
  tasks : task array;  (** indexed by condition integer *)
  wall_time : float;
  domains_used : int;
}

val keys : t -> Ll_util.Bitvec.t array option
(** The key list [K] of Algorithm 1 — [None] when any task failed to
    converge (hit a limit). *)

type verdict =
  | Keys of Ll_util.Bitvec.t array  (** every task produced a key *)
  | Incomplete of Cube_prep.failure_counts
      (** per-status failure accounting: a cube the solver proved
          unkeyable ([unsat_no_key], an inconsistent oracle — pointless
          to retry) is reported apart from one that merely never ran
          ([cancelled]) or hit a limit *)

val verdict : t -> verdict
(** Like {!keys}, but a failed attack says {e why} per status instead of
    collapsing every non-key outcome into [None]. *)

val max_task_time : t -> float
(** Runtime of the slowest sub-task — the paper's headline metric
    (Table 2 reports [max / baseline]). *)

val min_task_time : t -> float
val mean_task_time : t -> float

val run :
  ?config:Sat_attack.config ->
  ?inputs:int array ->
  ?seed:int ->
  n:int ->
  Ll_netlist.Circuit.t ->
  oracle:Oracle.t ->
  t
(** [run ~n locked ~oracle] — [inputs] overrides the fan-out-cone selection
    of split inputs ({!Fanout.select}); its first [n] entries are used.
    [n = 0] degenerates to the plain SAT attack as a single task.  [seed]
    (default 0) is the root of the per-cofactor solver seeds.  As in
    {!Cube_attack.config}, [config.solver_seed] and [stop] are managed
    per cofactor.  Raises
    [Invalid_argument] unless [0 <= n <= num_inputs]. *)

val run_parallel :
  ?config:Sat_attack.config ->
  ?inputs:int array ->
  ?num_domains:int ->
  ?pool:Ll_runtime.Pool.t ->
  ?seed:int ->
  ?cancel_on_failure:bool ->
  n:int ->
  Ll_netlist.Circuit.t ->
  oracle:Oracle.t ->
  t
(** Same, scheduled on a work-stealing domain pool.

    When [pool] is given it is used (and left running) — the intended mode
    for reusing one pool across many attacks; [num_domains] is then
    ignored.  Otherwise a private pool of
    [min num_domains (2^n)] workers (default
    [Domain.recommended_domain_count]) is created and shut down around the
    call.

    [cancel_on_failure] (default [false]): once any sub-task ends with a
    fatal status ([Iteration_limit] or [Time_limit] — the whole attack can
    no longer produce a key set), outstanding sub-tasks are cancelled:
    pending ones never run, running ones are interrupted cooperatively.
    Affected tasks report status {!Sat_attack.Cancelled}.  Note that
    {e which} tasks get cancelled depends on scheduling; leave the flag
    off when reproducible per-task results matter. *)

val recommended_effort : ?cores:int -> Ll_netlist.Circuit.t -> int
(** The paper's "adjust N to the computational resources": the largest [n]
    with [2^n <= cores] (default: the runtime's recommended domain count)
    that also leaves at least one free primary input per cofactor. *)
