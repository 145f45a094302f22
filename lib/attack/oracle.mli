(** The attacker's black-box oracle: a functional chip that answers
    input/output queries (the "commercially available chip" of the threat
    model).

    Oracles are pure functions plus an atomic query counter, so one oracle
    can safely serve several attack domains running in parallel. *)

type t

val of_circuit : Ll_netlist.Circuit.t -> t
(** Oracle backed by simulation of a key-free circuit.  Raises
    [Invalid_argument] when the circuit still has key ports. *)

val of_function : num_inputs:int -> num_outputs:int -> (bool array -> bool array) -> t

val query : t -> bool array -> bool array
(** Raises [Invalid_argument] on a wrong-length pattern. *)

val query_count : t -> int
(** Total queries served (across all domains). *)

val num_inputs : t -> int
val num_outputs : t -> int

val restrict : t -> (int * bool) list -> t
(** [restrict o condition] is the oracle of the cofactored design: queries
    carry only the unpinned inputs (in their original relative order); the
    pinned positions are filled from [condition].  Query counts still
    accumulate on the parent. *)
