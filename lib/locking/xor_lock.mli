(** Random XOR/XNOR key-gate insertion (EPIC-style, Roy et al.).

    Each key bit guards one randomly chosen wire with an XOR (correct bit 0)
    or XNOR (correct bit 1) key gate, so a wrong bit inverts that wire.
    This is the classical baseline scheme the SAT attack of [5] breaks in
    few iterations. *)

val lock :
  ?prng:Ll_util.Prng.t ->
  ?base_key:Ll_util.Bitvec.t ->
  num_keys:int ->
  Ll_netlist.Circuit.t ->
  Locked.t
(** [base_key] supplies the correct bits of any key ports the circuit
    already carries (see {!Compose_key}); it is mandatory when re-locking a
    locked circuit.  Raises [Invalid_argument] when [num_keys < 1] or the
    circuit has fewer lockable wires (gate and primary-input nodes) than
    [num_keys]. *)
