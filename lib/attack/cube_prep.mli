(** Per-cofactor machinery of the cube engine.

    The engine behind {!Cube_attack} and its fixed-split preset
    {!Split_attack} runs many {!Sat_attack} sessions over one
    shared preparation, each pinned to a cube of the primary-input space.
    What a single cube session needs — span/metric bookkeeping,
    deterministic seeding, cancellation placeholders — and the
    classification of merged results live here. *)

type task = {
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

val condition_string : (int * bool) list -> string
(** ["3=1,5=0"] — the trace-span note format for a cube. *)

val cube_seed : seed:int -> (int * bool) list -> int
(** Solver seed of a cube: a pure function of the root seed and the
    cube's pin path, so runs are reproducible under any scheduling and a
    fixed split at [N] seeds its cofactors exactly like a budgets-off
    adaptive run at [n0 = N]. *)

val run_task :
  config:Sat_attack.config ->
  prep:Sat_attack.prep ->
  oracle:Oracle.t ->
  session:(unit -> Sat_attack.session) ->
  (int * bool) list ->
  task * Sat_attack.session option
(** Run one cube session under a ["split.task"] telemetry span: [a0] is
    the cube's depth, the note its {!condition_string}.  [session ()],
    called inside the span and the task's timer, hands the cube the
    session it continues: a fork of the attack's root session for a
    seed cube, the (forked) session of its parent for a re-split child.
    Its {!Sat_attack.condition} must be a prefix of [condition]; the
    cube pins the rest and {!Sat_attack.resume}s it.  The session comes
    back when the task ended [Stopped]. *)

val cancelled_task : prep:Sat_attack.prep -> (int * bool) list -> task
(** Placeholder for a sub-task cancelled before it started. *)

val fatal : task -> bool
(** A status after which the merged attack can no longer produce a key
    set by itself ([Iteration_limit], [Time_limit]).  [Stopped] is not
    fatal: the adaptive controller re-splits such cubes. *)

(** {2 Merged-result classification} *)

type failure_counts = {
  unsat_no_key : int;
      (** [Broken] but no key survives: the oracle contradicts the
          circuit under the cube.  Never worth retrying or
          re-splitting. *)
  cancelled : int;  (** never ran ({!Sat_attack.Cancelled}) *)
  stopped : int;  (** preempted by a difficulty budget; re-splittable *)
  iteration_limit : int;
  time_limit : int;
}

val classify : Sat_attack.result list -> failure_counts
(** Count the failures among merged sub-results ([Broken] {e with} a key
    counts as success). *)
