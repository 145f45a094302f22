(** Combinational equivalence checking: fast random simulation, then a
    complete SAT decision — a plain output miter under a small conflict
    budget, and SAT sweeping when that budget runs out.

    Both circuits are encoded into one solver over shared input
    variables, by the attack's CNF walk ([Tseitin.encode_program]) into
    one Tseitin memo that folds constants and equal MUX branches, so
    logic the two circuits share maps onto the same literals.  The
    miter is asserted behind an activation literal and solved for at
    most {e miter_budget} (200) conflicts; compositions that still share
    most of their structure close there.  Otherwise the miter is retired
    and the sweep proves the circuits equal node by node: nodes of the
    second circuit are re-encoded in topological order (constant and
    dead nodes have no literal and are skipped), and a node whose
    512-pattern simulation signature
    matches a node of the first circuit, up to complement, is proved
    equal to it with two assumption solves of at most {e pair_budget}
    (100) conflicts each.  A proved pair is merged (the equality is
    asserted and later gates hash onto the first circuit's encoding); a
    refuted pair's input model is simulated to split the signature
    classes.  The output miter is then solved over whatever output pairs
    are still distinct.

    Nodes are merged only after UNSAT proofs and every added clause is
    implied by the two circuits' definitions, so the verdict is that of
    the plain miter and every counterexample is real.  All phases run in
    one solver, so its conflict counter is the total that
    {!check_bounded} bounds.  Telemetry: counters [equiv.solves],
    [equiv.merged] and [equiv.refuted], and an [equiv.sweep] span
    entered only when the budgeted miter gives up. *)

type verdict = Equivalent | Counterexample of bool array

val check :
  ?seed:int -> ?samples:int -> Ll_netlist.Circuit.t -> Ll_netlist.Circuit.t -> verdict
(** [check a b] for key-free circuits of equal signature.  [samples]
    controls the number of 64-pattern random-simulation rounds tried before
    falling back to SAT (default 8); [seed] is passed to the SAT solver's
    decision randomisation.  The returned counterexample is an input
    pattern on which the circuits differ. *)

val equal_outputs :
  Ll_netlist.Circuit.t -> Ll_netlist.Circuit.t -> inputs:bool array -> bool
(** One-pattern comparison (shared by tests and verdict checking). *)

type bounded_verdict =
  | Proved_equivalent
  | Refuted of bool array
  | Unknown  (** resource limit hit before a decision *)

val check_bounded :
  ?seed:int ->
  ?samples:int ->
  conflict_limit:int ->
  Ll_netlist.Circuit.t ->
  Ll_netlist.Circuit.t ->
  bounded_verdict
(** Like {!check}, but gives up ([Unknown]) once the SAT search exceeds
    [conflict_limit] conflicts, counted over every phase (budgeted miter,
    pair proofs, final miter) — for verifying huge compositions where a
    complete proof may be impractical (e.g. multiplier equivalence). *)
