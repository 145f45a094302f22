(** The oracle-guided SAT attack [Subramanyan et al., HOST'15] — the
    baseline ([N = 0]) of the paper's experiments.

    The attack solves a key-duplicated miter of the locked netlist to find
    distinguishing input patterns (DIPs), queries the oracle on each DIP
    and constrains both key copies to reproduce the observed output,
    iterating until the miter is unsatisfiable; any key satisfying the
    accumulated constraints is then functionally correct.  Each DIP
    constraint is constant-propagated before it is encoded: the key cone,
    compiled once, is cofactored under the DIP and only its live key
    logic reaches the solver.

    The miter's "find a difference" clause is guarded by an activation
    literal, so the final key extraction reuses the same incremental solver
    with the guard released.

    Each round of the DIP loop finds one DIP: one miter solve, one
    oracle query, one cofactor and one encoded constraint per key copy. *)

type progress = {
  pg_dips : int;  (** DIPs accumulated so far *)
  pg_conflicts : int;  (** solver conflicts so far (deterministic) *)
  pg_elapsed : float;  (** wall-clock seconds since the session started *)
  pg_candidate : unit -> Ll_util.Bitvec.t option;
      (** extract a key satisfying every DIP constraint so far (one
          solve with the difference guard released — the same
          extraction a [Broken] session ends with); [None] when no key
          survives.  The solve changes the solver's state, so a hook
          that calls it can change the later DIP sequence. *)
}
(** Snapshot handed to {!config.stop} between rounds. *)

type config = {
  max_iterations : int option;  (** DIP budget; [None] = unlimited *)
  time_limit : float option;  (** wall-clock seconds; checked between rounds *)
  interrupt : (unit -> bool) option;
      (** cooperative cancellation hook, polled between rounds; when it
          returns [true] the attack stops with status {!Cancelled}.  Used by
          the parallel split attack to abandon sub-attacks early once a
          sibling has failed. *)
  solver_seed : int;
      (** seed of the CDCL solver's decision PRNG (default 0).  The split
          attack derives one seed per sub-task from a
          {!Ll_util.Prng.split} stream so runs are reproducible under any
          scheduling. *)
  solver_simp : bool;
      (** enable the solver's inprocessing engine (subsumption, bounded
          variable elimination, vivification) on the attack's incremental
          CNF (default [true]; disable for A/B comparison — see the
          [simp_compare] records of [BENCH_sat.json]). *)
  stop : (progress -> bool) option;
      (** stopping rule, polled before every round after the other
          limits; returning [true] ends the session with status
          {!Stopped} and no key.  The adaptive cube controller uses it
          to preempt a cofactor that exceeded its difficulty budget and
          re-split it; {!Appsat} uses it to score [pg_candidate] keys
          and settle for an approximate one.  Budgets over
          [pg_conflicts]/[pg_dips] keep the decision deterministic;
          [pg_elapsed] trades that away. *)
}

val default_config : config
(** No limits, solver seed 0, inprocessing on. *)

type status =
  | Broken  (** miter proved UNSAT; the returned key is functionally correct *)
  | Iteration_limit
  | Time_limit
  | Cancelled  (** the [interrupt] hook fired *)
  | Stopped  (** the [stop] difficulty budget fired (cube re-split) *)

type result = {
  status : status;
  key : Ll_util.Bitvec.t option;  (** present when [status = Broken] *)
  dips : Ll_util.Bitvec.t list;  (** in discovery order *)
  num_dips : int;
  rounds : int;  (** main solves that found a DIP: [= num_dips] *)
  oracle_queries : int;
  total_time : float;
  solve_time : float;  (** time inside the SAT solver *)
  solver_conflicts : int;
  imported : int;
      (** DIPs the session's solver inherited from its ancestors when it
          was forked from a stopped cube (see {!resume}); 0 for a
          session taken from the root.  Their constraints are in the solver but
          they count nowhere else in this result. *)
}

val run : ?config:config -> Ll_netlist.Circuit.t -> oracle:Oracle.t -> result
(** [run locked ~oracle] — [locked] must carry key ports and match the
    oracle's input/output counts.  Raises [Invalid_argument] otherwise.
    It runs [resume (root (prepare locked)) ~pins:[]], with
    [total_time] counting the root's construction too. *)

(** {2 Shared preparation}

    The cofactor sub-attacks of {!Split_attack} all work on the same
    locked circuit: the synthesized key-duplicated miter, the output
    key-dependence split and the compiled key cone are identical across
    cubes.  {!prepare} computes them once. *)

type prep
(** Immutable per-circuit preparation, safe to share across domains. *)

val prepare : Ll_netlist.Circuit.t -> prep
(** Raises [Invalid_argument] when the circuit has no key ports. *)

val prep_inputs : prep -> int
(** Primary input count of the prepared circuit. *)

val prep_gates : prep -> int
(** Gate count of the shared synthesized miter. *)

(** {2 Sessions}

    A session is one cube's live solver: the miter, the guarded
    difference clause, the cube's pins and every DIP constraint added so
    far.  An attack opens one unpinned {e root} session ({!root}): the
    miter is encoded and the solver's first simplification session runs
    once per attack.  Every cube then continues a session it takes from
    its parent, pinning its inputs as root units with {!resume}: a seed
    cube takes a {!fork} of the root (or the root itself when it is the
    only seed cube), and the two children of a re-split take the stopped
    session of their parent and a fork of it.  So the children keep the
    parent's DIP constraints, learnt clauses and simplified clause
    database instead of rebuilding them, and no seed cube repeats the
    root's encoding or first simplification.

    A child also keeps the constraints of parent DIPs that lie outside
    its cube.  The correct key satisfies them as well, so they only
    narrow the keys that survive; the key a child returns is still
    correct inside its cube. *)

type session
(** Mutable, owned by one caller at a time.  Use {!fork} to obtain an
    independent copy before handing it to another domain. *)

val root : ?config:config -> prep -> session
(** [root prep] opens the unpinned session of [prep] and runs its
    solver's first simplification session ({!Ll_sat.Solver.simplify})
    under an ["attack.root"] telemetry span ([a0] = clauses before the
    session, [v] = after).  [config.solver_seed] seeds its solver and
    [config.solver_simp] enables its inprocessing; the other fields are
    ignored.  [resume (root prep) ~pins:[]] searches exactly as a fresh
    solver whose first solve ran the session. *)

val condition : session -> (int * bool) list
(** The inputs [session] pins, in pin order; [[]] for a root. *)

val resume :
  ?config:config ->
  session ->
  pins:(int * bool) list ->
  oracle:Oracle.t ->
  result * session option
(** [resume session ~pins ~oracle] pins [pins] (primary input positions
    and their constants) on top of the session's own {!condition} and
    runs the DIP loop on.  The oracle is the {e full-width} oracle of
    the original circuit — queries carry the pinned values — and the
    reported [dips] contain only the free input positions, in their
    original relative order.  The result counts only what this run did:
    [dips], [num_dips], [rounds], [oracle_queries], [solver_conflicts],
    [total_time] and the [max_iterations], [time_limit] and [stop]
    budgets all start from zero, and [imported] is the number of DIPs
    the session inherited.  [config.solver_seed] and [solver_simp] are
    ignored: they were fixed when the session was opened or forked.
    The session comes back with a [Stopped] result ([None] with any
    other), for {!fork} and another [resume].  Raises
    [Invalid_argument] on oracle port mismatches and on out-of-range,
    repeated or already pinned positions. *)

val fork : ?seed:int -> session -> session
(** An independent copy of a root or stopped session
    ({!Ll_sat.Solver.copy} and {!Ll_sat.Tseitin.copy}); [seed] reseeds
    the copy's decision PRNG.  Copying writes into the source (see
    {!Ll_sat.Solver.copy}), so forks of one session must not be taken
    concurrently. *)

val arena_words : session -> int
(** Live words in the session solver's clause arena: what a {!fork}
    copies. *)
