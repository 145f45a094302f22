(** Conflict-driven clause-learning SAT solver.

    A from-scratch implementation of the MiniSAT-era algorithm: two-literal
    watching, VSIDS decision heuristic with phase saving, first-UIP conflict
    analysis with clause minimization, Luby restarts and activity/LBD-guided
    deletion of learnt clauses.  It replaces the MiniSAT dependency of the
    original SAT attack [Subramanyan et al., HOST'15].

    The solver is incremental: clauses and variables may be added between
    {!solve} calls, and {!solve} accepts assumption literals.  A solver
    instance is not thread-safe; use one instance per domain.

    Clauses are stored in a flat integer arena (contiguous
    [header |
     activity | literals] slices of one int array, referenced by offset),
    so propagation walks cache-local memory and allocates nothing;
    learnt-clause deletion compacts the arena in place.  See the "SAT
    core" section of the architecture notes for the layout.

    {2 Inprocessing and the frozen-variable protocol}

    Unless created with [~simp:false], the solver runs a {!Simp}
    simplification session at the start of every [solve] (subsumption,
    self-subsuming resolution, bounded variable elimination) and a
    vivification round every few restarts.  Variable elimination rewrites
    the formula in a way that only preserves models {e projected onto the
    surviving variables}, so the solver keeps every eliminated clause on
    a stack.  Mentioning an eliminated variable in a later clause or
    assumption transparently {e restores} it (its original clauses are
    replayed), preserving the incremental contract; callers with
    long-lived interface variables should still {!freeze_var} them to
    avoid the eliminate/restore churn (circuit encoders freeze inputs,
    key bits and outputs; attack loops freeze their
    assumption/activation literals).  Models returned after elimination
    are extended over the eliminated variables on demand, so {!value}
    remains total on a [Sat] answer.
    While DRUP recording is enabled ({!enable_proof}), elimination is
    disabled entirely — every other simplification is
    equivalence-preserving and is logged as RUP additions/deletions. *)

type t

type result = Sat | Unsat

type stats = {
  conflicts : int;
  decisions : int;
  propagations : int;
  restarts : int;
  learnt_literals : int;
  deleted_clauses : int;
  arena_gcs : int;  (** clause-arena compactions performed by [reduce_db] *)
  arena_words : int;  (** live words in the clause arena (headers + literals) *)
  simp_subsumed : int;  (** clauses removed by subsumption *)
  simp_self_subsumed : int;  (** literals removed by self-subsuming resolution *)
  simp_eliminated_vars : int;  (** variables eliminated by BVE *)
  simp_vivified : int;  (** clauses shrunk by vivification *)
}

(** DRUP proof events, in derivation order.  Each added clause is a
    reverse-unit-propagation (RUP) consequence of the original formula and
    the previously added clauses; a final empty addition refutes the
    formula.  Verify with {!Drup.check_refutation}. *)
type proof_event = P_add of Lit.t array | P_delete of Lit.t array

val create : ?seed:int -> ?simp:bool -> unit -> t
(** [seed] randomises variable tie-breaking very slightly (2% random
    decisions), matching common solver defaults.  The default seed gives
    deterministic behaviour.  [simp] (default [true]) enables the
    inprocessing engine; pass [false] for a plain CDCL solver. *)

val copy : ?seed:int -> t -> t
(** [copy s] is an independent solver in [s]'s exact state: clause
    arena, learnt clauses, watches, assignment and trail, activities,
    saved phases, the decision heap, frozen and eliminated variables,
    the inprocessing engine and the statistics.  Nothing mutable is
    shared (the eliminated-clause stack as it stands becomes a frozen
    chunk both solvers read, see {!Simp.copy}), so each solver can be
    extended and solved apart, also from different domains.  Without
    [seed] the copy's decision PRNG continues [s]'s stream and the copy
    behaves exactly as [s] would; [seed] restarts it from that seed.
    The cost is one pass over the solver's arrays.  [copy] writes into
    [s] too (it freezes the eliminated-clause stack and leaves [s] an
    empty one), so copies of one solver must not be taken concurrently. *)

val new_var : t -> int
(** Allocate a fresh variable and return its index. *)

val num_vars : t -> int

val num_clauses : t -> int
(** Problem clauses currently attached (learnt clauses excluded; unit
    clauses absorbed at the root are not counted). *)

val num_learnts : t -> int
(** Learnt clauses currently retained. *)

val add_clause : t -> Lit.t list -> unit
(** Add a clause over existing variables.  May be called between [solve]
    calls.  Adding an empty (or root-falsified) clause makes the instance
    permanently unsatisfiable.  Mentioning an eliminated variable
    restores it first (see the inprocessing notes above). *)

val add_clause_a : t -> Lit.t array -> unit

val freeze_var : t -> int -> unit
(** Exempt a variable from elimination.  Call before the solve that could
    eliminate it; freezing is the caller's promise registry for variables
    that future clauses or assumptions may mention. *)

val unfreeze_var : t -> int -> unit
(** Retract {!freeze_var}: the variable becomes eligible for elimination
    at the next simplification session. *)

val is_frozen : t -> int -> bool

val is_eliminated : t -> int -> bool
(** True while the variable is eliminated by simplification.  Mentioning
    it in a new clause or assumption restores it; encoders use this flag
    to re-encode a cached gate instead of triggering a restore. *)

val solve : ?assumptions:Lit.t list -> ?conflict_limit:int -> t -> result
(** Decide satisfiability under the given assumptions.  [conflict_limit]
    bounds the search ([Unsat] is then only reported when proven; hitting
    the limit raises {!Conflict_limit}).  Assumption variables are frozen
    for the duration of the call (and restored first if previously
    eliminated). *)

val simplify : t -> unit
(** Run now the root simplification session that the next {!solve}
    would start with (on a fresh solver, a full preprocessing pass; later,
    only once the database has grown enough).  A solve right after it
    finds nothing new and runs no session of its own, so [simplify]
    followed by [solve] searches exactly as [solve] alone, provided the
    solve's assumption variables are frozen (a session inside {!solve}
    protects them; this one cannot know them).  Like any mutation it
    drops the current model.  Runs no session when the solver was
    created with [~simp:false] or is already inconsistent. *)

exception Conflict_limit

val value : t -> Lit.t -> bool
(** Model value of a literal after a [Sat] answer, for variables that
    existed during that solve.  Total even for eliminated variables: the
    first query about one replays the eliminated-clause stack once for
    this model (counted by the [sat.model_extensions] telemetry counter),
    and later queries read the result.  Queries about surviving variables
    never trigger the replay.  The model, and its extension, stay valid
    until the next {!solve}, {!add_clause} or {!add_clause_a}; after
    that a query about an unassigned or eliminated variable raises
    [Invalid_argument]. *)

val model_var : t -> int -> bool

val ok : t -> bool
(** False once the clause set is known unsatisfiable at the root. *)

val stats : t -> stats

val enable_proof : t -> unit
(** Start recording DRUP events (call before the first solve; recording
    covers clauses learnt afterwards).  Disables variable elimination for
    the lifetime of the solver; raises [Invalid_argument] if variables
    were already eliminated by an earlier solve. *)

val proof : t -> proof_event list
(** Recorded events, oldest first.  Empty when recording was never
    enabled. *)
