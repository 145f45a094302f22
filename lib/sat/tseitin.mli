(** Tseitin transformation of circuits into solver clauses.

    One walk turns gates into clauses: {!encode_program} visits a
    compiled program ({!Ll_netlist.Compiled.t}) in topological order and
    hands every node that is X and live in its scratch's ternary state to
    the per-node builder {!encode_node}.  The ternary state says which
    nodes are constant: [Compiled.cofactor_into] pins the primary inputs
    (the per-DIP constraints, {!encode_cofactored}) and
    [Compiled.constants_into] leaves every port X (whole circuits,
    {!encode}).  Constant fanins fold into their readers — dropped from
    AND/OR, parity-folded into XOR, MUX specialised on a constant select
    or branch, LUT tables restricted to their unknown fanins — and a MUX
    whose two unknown branches have one literal is that literal.  Dead
    nodes get no literal.  [Buf] and [Not] reuse (and negate) their
    fanin literal.  Gate shapes are not normalised: the memo below
    shares a gate only between equal fanin literals (sorted for AND/OR).

    An {!env} is bound to one solver and can encode several circuits into
    it, sharing port literals — exactly what miter construction and
    incremental DIP constraints need.  Every gate literal goes through
    one memo keyed by operator and fanin literals, so structure shared
    between encodings (the key cone of all DIP constraints, the two
    circuits of an equivalence miter) is encoded once. *)

type env

val create : Solver.t -> env

val copy : env -> Solver.t -> env
(** [copy env solver'] binds [env]'s gate memo and constant literal to
    [solver'], which must be a {!Solver.copy} of [env]'s solver:
    re-encoding a gate [env] already encoded then reuses its literal and
    emits no clause.  The memo as it stands is shared read-only by both
    envs (it is never written again, so the envs may be used from
    different domains); what either encodes afterwards goes to a table
    of its own. *)

val solver : env -> Solver.t

val fresh_lits : env -> int -> Lit.t array
(** Allocate fresh variables, returned as positive literals. *)

val lit_true : env -> Lit.t
(** A literal forced true at the root (allocated once per env). *)

val encode_program :
  env ->
  Ll_netlist.Compiled.t ->
  Ll_netlist.Compiled.scratch ->
  input_lits:Lit.t array ->
  key_lits:Lit.t array ->
  Lit.t array
(** [encode_program env p s ~input_lits ~key_lits] is the walk: it
    encodes every live X node of [p] under [s]'s ternary state (left by
    [Compiled.cofactor_into] or [Compiled.constants_into]) with
    {!encode_node}, writing each literal to [s.lits], and returns the
    output literals in port order.  An output constant in [s] yields
    {!lit_true} or its negation.  Input and key ports read
    [input_lits] and [key_lits] (port order); these, and the output
    literals, are frozen against variable elimination, since later
    clauses re-mention them.  Raises [Invalid_argument] on port-count
    mismatches or LUT gates wider than [Gate.max_lut_inputs]. *)

val encode :
  env ->
  Ll_netlist.Circuit.t ->
  input_lits:Lit.t array ->
  key_lits:Lit.t array ->
  Lit.t array
(** [encode env c ~input_lits ~key_lits] compiles [c], marks its
    constants with [Compiled.constants_into] and runs {!encode_program}:
    clauses constraining fresh gate variables to compute [c] over the
    given port literals.  Returns the output literals in output-port
    order. *)

val encode_cofactored :
  env ->
  Ll_netlist.Compiled.t ->
  Ll_netlist.Compiled.scratch ->
  key_lits:Lit.t array ->
  Lit.t array
(** The per-DIP constraint: {!encode_program} after
    [Compiled.cofactor_into], whose pinned inputs need no literal.  Only
    the live key logic of the cofactor is visited; its gates share the
    memo with every earlier DIP.  This path alone opens a
    [kernel.encode] span (value: gates encoded) and bumps the
    [kernel.encodes] counter.  Raises [Invalid_argument] on a key literal
    count mismatch. *)

val encode_node :
  env ->
  Ll_netlist.Compiled.t ->
  Ll_netlist.Compiled.scratch ->
  input_lits:Lit.t array ->
  key_lits:Lit.t array ->
  int ->
  Lit.t
(** [encode_node env p s ~input_lits ~key_lits i] is the per-node builder
    of the walk: the literal of node [i], which must be X in [s], over
    the literals its X fanins hold in [s.lits].  Allocates nothing for
    non-LUT gates.  The equivalence sweep calls it to re-encode a node
    after merges rewrote its fanins' literals. *)

val output_lits :
  env -> Ll_netlist.Compiled.t -> Ll_netlist.Compiled.scratch -> Lit.t array
(** The output literals of [p] as they stand in [s.lits], constants
    included (as for {!encode_program}). *)

(** {1 Gate constructors}

    Memoized building blocks for custom constraint emitters.  Each
    returns the (cached) output literal of the gate over the given fanin
    literals. *)

val mk_and : env -> Lit.t array -> Lit.t

val mk_xor : env -> Lit.t array -> Lit.t
(** n-ary parity, chained through cached 2-input XORs. *)

val force : env -> Lit.t -> bool -> unit
(** Unit-clause a literal to a constant. *)

val force_equal : env -> Lit.t -> Lit.t -> unit
(** Add clauses making two literals equal. *)
