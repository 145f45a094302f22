(** Multi-key netlist composition (paper Fig. 1(b)).

    Given one (possibly incorrect) key per input-space cofactor, build the
    key-free netlist in which a MUX tree — selected by the split inputs —
    routes each input pattern through the copy carrying the key that
    unlocks its region.  The result is functionally equivalent to the
    original design when every key unlocks its own cofactor. *)

val of_attack : ?optimize:bool -> Ll_netlist.Circuit.t -> Split_attack.t -> Ll_netlist.Circuit.t option
(** Compose a {!Split_attack} result through {!build_cubes}: the root MUX
    selects the last split input, and [tasks.(i)]'s key serves the
    cofactor whose condition assigns bit [j] of [i] to input position
    [split_inputs.(j)] (the {!Ll_synth.Cofactor.conditions} order).
    [None] when some task produced no key. *)

val build_cubes :
  ?optimize:bool ->
  Ll_netlist.Circuit.t ->
  cubes:((int * bool) list * Ll_util.Bitvec.t) array ->
  Ll_netlist.Circuit.t
(** [build_cubes locked ~cubes] composes a cube partition of the input
    space: each element pairs a cube's condition with the key unlocking
    it.  The conditions must form a binary-decision-tree partition —
    every condition pins positions in one shared order, as
    {!Cube_attack.keys} produces — and leaves at different depths are
    composed by a recursive MUX on each tree node's split input, so a
    uniform [2{^N}] split and the adaptive attack's uneven tree take the
    same path.  One key-bound copy of [locked] is instantiated per cube,
    in array order.  [optimize] (default true) runs the synthesis
    pipeline on the result.  Raises [Invalid_argument] on key-length
    mismatches or a cube set that overlaps or leaves the space
    uncovered. *)

val of_cube_attack :
  ?optimize:bool -> Ll_netlist.Circuit.t -> Cube_attack.t -> Ll_netlist.Circuit.t option
(** Compose a {!Cube_attack} result.  [None] when some leaf produced no
    key. *)
