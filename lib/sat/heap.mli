(** Indexed binary max-heap over variable indices, ordered by a score
    array (VSIDS activities).

    The heap stores each variable at most once and supports
    decrease/increase-key via {!update} in O(log n). *)

type t

val create : float array -> t
(** [create score] orders variable [v] by [score.(v)].  The array is read
    on every comparison, never copied, so bumping an activity in place
    then calling {!update} reorders correctly.  Every variable inserted
    must index into the array. *)

val set_scores : t -> float array -> unit
(** Re-point the heap at a grown copy of its score array (same values for
    the variables already present).  No reordering takes place. *)

val copy : t -> float array -> t
(** [copy h score] is an independent heap with [h]'s contents, ordered by
    [score] (a copy of [h]'s score array, with the same values). *)

val mem : t -> int -> bool
val is_empty : t -> bool
val size : t -> int

val insert : t -> int -> unit
(** No-op when the variable is already present. *)

val remove_max : t -> int
(** Raises [Not_found] when empty. *)

val update : t -> int -> unit
(** Restore heap order after the variable's score changed.  No-op when the
    variable is absent. *)
