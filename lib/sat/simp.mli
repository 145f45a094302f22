(** MiniSAT/SatELite-style preprocessing and inprocessing over the flat
    clause arena.

    The engine owns the simplification {e algorithms} — variable-indexed
    occurrence lists, forward/backward subsumption and self-subsuming
    resolution with 64-bit signature filtering, bounded variable
    elimination (BVE) by clause distribution, and clause vivification —
    while the solver retains ownership of the clause database {e
    bookkeeping} (watches, reasons, trail, proof log).  The two meet
    through a {!host} record of callbacks the solver passes in per call.

    Two entry points:

    - {!session} runs at the root, at the start of a [solve]: strip
      root-satisfied clauses and root-false literals, subsume, strengthen,
      and (unless a DRUP proof is being recorded) eliminate unfrozen
      variables.  Eliminated clauses are pushed onto an internal stack so
      {!extend_model} can later complete any model over the surviving
      variables.
    - {!vivify} runs at restart boundaries under a propagation budget:
      high-activity learnt clauses (plus a rotating sample of problem
      clauses) are re-derived literal-by-literal under trial assumptions
      and shrunk when propagation proves a suffix redundant.

    Everything except BVE preserves logical equivalence, so it is sound
    under arbitrary later clause additions.  BVE only preserves the model
    set projected onto the surviving variables, which is why the solver
    enforces a frozen-variable protocol: variables that may be mentioned
    by future clauses or assumptions must be frozen, and eliminated
    variables may never be re-mentioned. *)

type stats = {
  mutable subsumed : int;  (** clauses removed by (forward or backward) subsumption *)
  mutable self_subsumed : int;  (** literals removed by self-subsuming resolution *)
  mutable eliminated_vars : int;  (** variables eliminated by BVE *)
  mutable vivified : int;  (** clauses shrunk by vivification *)
  mutable removed_satisfied : int;  (** root-satisfied clauses removed *)
  mutable strengthened_lits : int;  (** root-false literals stripped *)
  mutable sessions : int;
}

type config = {
  session_growth : int;
      (** percent of problem-clause growth (new clauses + new root units
          since the previous session) that schedules the next session; a
          session rebuilds the occurrence index in O(formula), so tiny
          increments — e.g. one blocking clause per incremental solve —
          must accumulate before paying for another full pass *)
  session_min_conflicts : int;
      (** conflicts since the previous session required before another
          one runs: simplification effort is scaled to search effort, so
          incremental workloads whose solves are trivial (a handful of
          conflicts per call) never pay for repeated passes they cannot
          amortise, while conflict-heavy instances inprocess eagerly *)
  subsumption_budget : int;
      (** occurrence-list entries and literal comparisons per session *)
  subsume_occ_limit : int;
      (** skip occurrence lists longer than this during subsumption
          scans; variables shared by very many clauses (e.g. circuit
          inputs mentioned by every model-blocking clause) would
          otherwise make each queued clause pay a scan linear in the
          whole database for candidates that almost never subsume *)
  bve_grow : int;  (** max clause-count growth per eliminated variable *)
  bve_max_occ : int;  (** skip variables with more occurrences per polarity *)
  bve_max_clause : int;  (** skip resolutions involving longer clauses *)
  vivify_budget : int;  (** propagations per vivification round *)
  vivify_max_clauses : int;  (** learnt candidates per round *)
  inprocess_interval : int;  (** restarts between vivification rounds *)
}

val default_config : config
(** The only configuration: every engine reads this record. *)

(** Callbacks into the owning solver.  All clause mutation goes through
    the host so watches, reasons, the proof log and hole accounting stay
    consistent; the engine itself only reads the arena.  [value] is the
    current assignment (which equals the root assignment during a
    {!session}, but includes trial decisions during {!vivify}). *)
type host = {
  nvars : int;
  ar : Arena.t;
  clauses : int Vec.t;
  learnts : int Vec.t;
  value : Lit.t -> int;  (** -1 unassigned / 0 false / 1 true *)
  frozen : int -> bool;
  assigned : int -> bool;  (** variable has a (root) value *)
  proof : bool;  (** DRUP recording active: variable elimination is disabled *)
  solver_ok : unit -> bool;
  trail_size : unit -> int;
  trail_lit : int -> Lit.t;
  remove_clause : int -> unit;
  strengthen_clause : int -> Lit.t -> unit;
  replace_clause : int -> Lit.t array -> unit;
  add_resolvent : Lit.t array -> int -> int -> int;
      (** [add_resolvent buf ofs n] adds the clause [buf.(ofs .. ofs+n-1)]
          (read before the call returns); returns the new cref, or [-1]
          if absorbed *)
  eliminate_var : int -> unit;
  detach_clause : int -> unit;
  attach_clause : int -> unit;
  assume : Lit.t -> unit;
  propagate_ok : unit -> bool;  (** propagate at the current level; false on conflict *)
  backtrack : unit -> unit;  (** cancel to decision level 0 *)
  propagation_count : unit -> int;
}

type t

val create : unit -> t

val copy : t -> t
(** An independent engine in the same state: statistics are copied.  The
    eliminated-clause stack as it stands is frozen into a chunk that
    both engines share read-only (neither ever writes it again), so the
    copy costs nothing per stored clause.  Only meaningful together with
    a copy of the host's clause database (see [Solver.copy]). *)

val stats : t -> stats

val session : t -> host -> new_from:int -> unit
(** Run one root simplification session.  [new_from] is the index into
    [host.clauses] of the first clause added since the previous session
    ([0] on the first call — a full preprocessing pass).  On return dead
    crefs are marked in the arena but still present in [host.clauses] /
    [host.learnts]; the caller filters the vectors and decides whether to
    compact the arena. *)

val vivify : t -> host -> unit
(** Run one vivification round at decision level 0, bounded by
    [vivify_budget] propagations.  Same cleanup contract as {!session}. *)

val restore : t -> var:int -> unelim:(int -> unit) -> readd:(Lit.t array -> unit) -> unit
(** Re-activate the eliminated variable [var]: pop the eliminated-clause
    stack from [var]'s first frame to the top, calling [unelim] on every
    pivot variable of the popped suffix (possibly repeatedly) and then
    [readd] on each stored original clause.  The suffix — not just
    [var]'s own frames — must be restored because clauses of
    later-eliminated variables may mention [var].  No-op when [var] has
    no frames. *)

val extend_model : t -> value:(int -> int) -> set:(int -> int -> unit) -> unit
(** Complete a model over the surviving variables to one over all
    variables, replaying the eliminated-clause stack in reverse
    elimination order.  [value v] must return the current model value of
    variable [v] (-1 unknown, consulting previous [set]s), [set v b]
    records the chosen value of an eliminated variable. *)
