(** Tseitin transformation of circuits into solver clauses.

    An {!env} is bound to one solver and can encode several circuits into
    it, sharing port literals — exactly what miter construction and
    incremental DIP constraints need.  [Buf] and [Not] gates reuse (and
    negate) their fanin literal instead of allocating variables, so the
    encoding stays compact. *)

type env

val create : Solver.t -> env

val copy : env -> Solver.t -> env
(** [copy env solver'] binds [env]'s gate memo and constant literal to
    [solver'], which must be a {!Solver.copy} of [env]'s solver:
    re-encoding a gate [env] already encoded then reuses its literal and
    emits no clause.  The memo as it stands is shared read-only by both
    envs (it is never written again, so the envs may be used from
    different domains); what either encodes afterwards goes to a table
    of its own.  Raises [Invalid_argument] inside {!with_batch}. *)

val solver : env -> Solver.t

val fresh_lits : env -> int -> Lit.t array
(** Allocate fresh variables, returned as positive literals. *)

val lit_true : env -> Lit.t
(** A literal forced true at the root (allocated once per env). *)

val encode :
  env ->
  Ll_netlist.Circuit.t ->
  input_lits:Lit.t array ->
  key_lits:Lit.t array ->
  Lit.t array
(** [encode env c ~input_lits ~key_lits] adds clauses constraining fresh
    gate variables to compute [c], with the circuit's primary inputs bound
    to [input_lits] and key ports to [key_lits] (port order).  Returns the
    output literals in output-port order.  Raises [Invalid_argument] on
    port-count mismatches or LUT gates wider than 16 inputs. *)

val encode_cofactored :
  env ->
  Ll_netlist.Compiled.t ->
  Ll_netlist.Compiled.scratch ->
  key_lits:Lit.t array ->
  Lit.t array
(** Direct emitter over a cofactored flat program: after
    [Compiled.cofactor_into], encodes only the live, non-constant nodes —
    constant fanins fold into their readers (dropped from AND/OR, parity-
    folded into XOR, MUX specialised on a constant select or branch, LUT
    tables restricted to their symbolic fanins) and dead nodes are never
    visited, so no intermediate simplified circuit is built.  Gate
    literals go through the same memo cache as {!encode}, so key-cone
    structure shared between DIP cofactors still deduplicates.  Returns
    the output literals in port order; an output constant under the
    cofactor yields [lit_true env] or its negation, which a caller can
    force against the oracle response exactly like any other output
    literal.  Raises [Invalid_argument] on a key literal count
    mismatch. *)

(** {1 Gate constructors}

    The memoized building blocks used by both encoders, exposed for
    custom constraint emitters.  Each returns the (cached) output literal
    of the gate over the given fanin literals. *)

val mk_and : env -> Lit.t array -> Lit.t

val mk_or : env -> Lit.t array -> Lit.t

val mk_xor : env -> Lit.t array -> Lit.t
(** n-ary parity, chained through cached 2-input XORs. *)

val mk_mux : env -> Lit.t -> Lit.t -> Lit.t -> Lit.t
(** [mk_mux env sel lo hi] — [hi] when [sel], else [lo]. *)

val mk_lut : env -> Ll_util.Bitvec.t -> Lit.t array -> Lit.t
(** Raises [Invalid_argument] on tables wider than 16 inputs. *)

val force : env -> Lit.t -> bool -> unit
(** Unit-clause a literal to a constant. *)

val force_equal : env -> Lit.t -> Lit.t -> unit
(** Add clauses making two literals equal. *)

val with_batch : env -> (unit -> 'a) -> 'a
(** [with_batch env f] buffers every clause emitted by [f] (through this
    env: both encoders, the gate constructors, {!force}) and flushes them
    on exit — exception included — as one {!Solver.add_clause_batch}
    contiguous arena append, in emission order.  Nested calls are
    transparent: only the outermost batch flushes.

    Unit clauses emitted inside the batch do not propagate until the
    flush, so a batch may retain clauses that immediate emission would
    have absorbed as root-satisfied; the formula is the same but the
    clause stream can differ.  Do not solve inside [f]. *)
