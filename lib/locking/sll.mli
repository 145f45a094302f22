(** Strong Logic Locking (SLL) — interference-aware XOR/XNOR insertion
    [Yasin et al., TCAD'16].

    Plain random insertion ({!Xor_lock}) tends to scatter key gates into
    mutually isolated cones, where each bit can be attacked one at a time
    (see {!Ll_attack.Sensitization}).  SLL greedily places each new key
    gate so that its fanin/fanout cones overlap the cones of the gates
    already placed, making the bits interfere: no single bit can be
    sensitized to an output without muting the others.

    This raises the sensitization attack's failure rate while remaining as
    vulnerable to the SAT attack as any XOR scheme — which is exactly the
    historical progression the paper's Section 1 sketches. *)

val lock :
  ?prng:Ll_util.Prng.t ->
  ?base_key:Ll_util.Bitvec.t ->
  num_keys:int ->
  Ll_netlist.Circuit.t ->
  Locked.t
(** Raises [Invalid_argument] when [num_keys < 1] or the circuit has
    fewer lockable wires than [num_keys]. *)

val interference_edges : Ll_netlist.Circuit.t -> int
(** Diagnostic: the number of ordered key-gate pairs (g1, g2) of a locked
    circuit where g2 lies in the transitive fanout of g1 — the quantity
    SLL maximises and random insertion leaves near zero.  Key gates are
    identified as the gates directly fed by key ports. *)
