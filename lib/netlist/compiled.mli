(** Compiled flat-netlist kernel.

    A one-shot compiler from {!Circuit.t} into a flat program — an opcode
    array, CSR fanin arrays and port/output index maps — plus kernels that
    run over it with caller-owned scratch buffers and zero per-gate
    allocation:

    - scalar and 64-lane packed simulation ({!eval_into},
      {!eval_lanes_into});
    - an in-place ternary (0/1/X) constant-propagation cofactor pass that
      pins every primary input and leaves key inputs symbolic
      ({!cofactor_into}), the substrate of the per-DIP constraint
      generation in the SAT attack, and its all-X variant
      ({!constants_into}).  Both leave the ternary and liveness state
      that the one CNF walk, [Ll_sat.Tseitin.encode_program] (above this
      library in the layering), reads to fold constants and skip dead
      nodes.

    {b Scratch ownership.}  A {!scratch} belongs to exactly one domain at
    a time: the kernels write its buffers with no synchronization.  Either
    allocate one per task ({!scratch}) or use the per-domain cache
    ({!local_scratch}), which hands every domain its own buffers keyed by
    program identity — the pattern used by [Attack.Oracle] so one
    precompiled oracle serves any number of pool workers allocation-free.
    Programs themselves are immutable after {!compile} (apart from the
    fan-out index that the first incremental pass builds, published
    atomically) and safe to share across domains.

    {b Incremental evaluation.}  A scratch keeps its last scalar
    evaluation ({!eval_into}, {!eval_bv}) and its last ternary cofactor
    ({!cofactor_into}).  The next call of the same kind compares the new
    port values with the stored ones and re-evaluates only the nodes
    whose value can have changed: the consumers of changed ports, and
    transitively the consumers of every node whose value did change.
    Results are exact — node values, [tern], [live] and [unknown] are
    bit-identical to a full sweep from a fresh scratch — so callers see
    no difference except the time taken.  The first call on a scratch
    is a full sweep; so is a call where more than a quarter of the
    ports changed, and a scan that re-evaluates more than a quarter of
    the nodes finishes as one, which keeps uncorrelated (random-pattern)
    callers at the cost of a plain sweep.  The liveness pass of
    {!cofactor_into} is always a full backward sweep.  The packed kernel
    ({!eval_lanes_into}) is always a full sweep and leaves the scalar and
    ternary state untouched.  Callers must not write [vals] or [tern]:
    the kernels take them as the stored evaluation. *)

(** {1 The flat program} *)

type t = private {
  id : int;  (** process-unique, keys the per-domain scratch cache *)
  source : Circuit.t;
  num_nodes : int;
  num_inputs : int;
  num_keys : int;
  num_outputs : int;
  op : int array;  (** opcode per node, one of the [op_*] codes below *)
  arg : int array;
      (** per-opcode argument: port position ([op_input]/[op_key]),
          constant value 0/1 ([op_const]), index into [luts] ([op_lut]),
          0 otherwise *)
  fanin_off : int array;  (** CSR offsets, length [num_nodes + 1] *)
  fanin_idx : int array;  (** CSR fanin node indices, in fanin order *)
  luts : Ll_util.Bitvec.t array;  (** LUT truth tables, in [arg] order *)
  outputs : int array;  (** driving node of every output, port order *)
  input_node : int array;  (** node index of every primary input port *)
  key_node : int array;  (** node index of every key port *)
  fanout : fanout Atomic.t;
      (** consumer index for incremental evaluation, built on the
          program's first incremental pass *)
}

and fanout
(** Opaque CSR consumer index. *)

(** Opcodes ([op] entries).  Fixed small ints so kernel dispatch compiles
    to a jump table; exposed for the CNF walk. *)

val op_const : int

val op_input : int

val op_key : int

val op_and : int

val op_or : int

val op_nand : int

val op_nor : int

val op_xor : int

val op_xnor : int

val op_not : int

val op_buf : int

val op_mux : int

val op_lut : int

val compile : Circuit.t -> t
(** One linear pass over the circuit.  Emits a [kernel.compile] telemetry
    span (value: node count) and bumps the [kernel.compiles] counter.
    The scalar and ternary kernels add the nodes they evaluate to the
    [kernel.node_evals] counter (the whole program on a full sweep). *)

val cached : Circuit.t -> t
(** [compile] behind a small per-domain memo keyed by physical equality
    of the circuit — repeated simulation of the same circuit value (the
    [Eval] entry points, equivalence filtering loops) compiles once per
    domain. *)

(** {1 Scratch buffers} *)

type scratch = private {
  for_id : int;  (** the program this scratch was sized for *)
  vals : Bytes.t;  (** scalar node values, ['\000']/['\001'] *)
  lanes : int64 array;  (** packed node values, one lane per bit *)
  tern : Bytes.t;  (** ternary node values after {!cofactor_into}: 0/1/2=X *)
  live : Bytes.t;  (** 1 = node needed by a non-constant output *)
  lits : int array;  (** per-node literal slots for the CNF walk *)
  mutable unknown : int;  (** #X nodes after the last {!cofactor_into} *)
  ports : Bytes.t;  (** staged port values, inputs then keys *)
  changed : int array;  (** nodes of the ports the current call changed *)
  dirty : Bytes.t;  (** per-node re-evaluation marks; clear between calls *)
  mutable vals_full : bool;  (** [vals] holds a complete evaluation *)
  mutable tern_full : bool;  (** [tern] holds a complete cofactor *)
}

val scratch : t -> scratch
(** Fresh buffers sized for the program — one allocation up front, none
    per kernel call. *)

val local_scratch : t -> scratch
(** The calling domain's cached scratch for this program (allocated on
    first use per domain).  The cache holds it weakly by the program, so
    it is freed with the program. *)

(** {1 Simulation kernels} *)

val eval_into : t -> scratch -> inputs:bool array -> keys:bool array -> unit
(** Scalar simulation of every node into [scratch.vals], incrementally
    from the scratch's previous evaluation (see above).  Raises
    [Invalid_argument] on port-count mismatches. *)

val eval_lanes_into : t -> scratch -> inputs:int64 array -> keys:int64 array -> unit
(** 64-lane packed simulation into [scratch.lanes]: bit [j] of every word
    is pattern [j]. *)

val node_val : scratch -> int -> bool
(** Scalar value of a node after {!eval_into}. *)

val output_val : t -> scratch -> int -> bool
(** Scalar value of output port [j] after {!eval_into}. *)

val output_lanes : t -> scratch -> int -> int64
(** Packed value of output port [j] after {!eval_lanes_into}. *)

val read_outputs : t -> scratch -> bool array
(** All scalar output values (allocates the result array). *)

val read_output_lanes : t -> scratch -> int64 array
(** All packed output values (allocates the result array). *)

val eval : t -> inputs:bool array -> keys:bool array -> bool array
(** [eval_into] + {!read_outputs} over {!local_scratch}. *)

val eval_lanes : t -> inputs:int64 array -> keys:int64 array -> int64 array
(** [eval_lanes_into] + {!read_output_lanes} over {!local_scratch}. *)

val eval_bv :
  t -> inputs:Ll_util.Bitvec.t -> keys:Ll_util.Bitvec.t -> Ll_util.Bitvec.t
(** Scalar simulation straight from/to bit vectors — no intermediate
    [bool array]. *)

(** {1 Cofactoring} *)

val cofactor_into : t -> scratch -> inputs:bool array -> unit
(** Pin every primary input to [inputs], leave key inputs symbolic, and
    compute per node, in one topological sweep, whether it is constant
    under that cofactor and if so its value: [scratch.tern.(i)] becomes
    0, 1 or 2 (= X, key-dependent).  A second, backward sweep marks in
    [scratch.live] the nodes a non-constant output still depends on
    (constant fanins are not live; a MUX with a constant select keeps
    only its selected branch live) — the node set the CNF walk
    encodes.  No intermediate circuit is built.  [scratch.unknown] is the
    number of X nodes.  The forward sweep is incremental from the
    scratch's previous cofactor (see above).  Raises [Invalid_argument]
    on an input-count mismatch. *)

val constants_into : t -> scratch -> unit
(** The ternary state of {!cofactor_into} with every port X: a node is
    constant only through [Const] nodes, and [scratch.live] marks the
    nodes a non-constant output depends on.  The CNF walk reads this
    state to encode a whole program.  Always a full sweep, not counted
    in [kernel.node_evals] or [kernel.cofactors]; the next
    {!cofactor_into} on the scratch is a full sweep too. *)

val tern_val : scratch -> int -> int
(** Ternary value (0/1/2) of a node after {!cofactor_into}. *)

val output_tern : t -> scratch -> int -> int
(** Ternary value of output port [j] after {!cofactor_into}. *)

val is_live : scratch -> int -> bool
(** Liveness mark of a node after {!cofactor_into}. *)

val unknown_count : scratch -> int
(** [scratch.unknown]. *)
