(** Growable arrays, used for trails, watch lists and clause databases.

    A [dummy] element fills unused capacity; it is never observable through
    the API. *)

type 'a t

val create : dummy:'a -> 'a t
val make : dummy:'a -> int -> 'a t
(** [make ~dummy capacity] pre-allocates capacity (length stays 0). *)

val copy : 'a t -> 'a t
(** An independent vector with the same elements (the elements themselves
    are shared). *)

val length : 'a t -> int
val is_empty : 'a t -> bool
val get : 'a t -> int -> 'a
val set : 'a t -> int -> 'a -> unit

val unsafe_get : 'a t -> int -> 'a
(** [get] without the bounds check.  The index must be within the live
    prefix; reserved for profiled hot loops (solver propagation). *)

val unsafe_set : 'a t -> int -> 'a -> unit
(** [set] without the bounds check; same contract as {!unsafe_get}. *)

val push : 'a t -> 'a -> unit
val pop : 'a t -> 'a
(** Removes and returns the last element.  Raises [Invalid_argument] when
    empty. *)

val last : 'a t -> 'a
val clear : 'a t -> unit
val shrink : 'a t -> int -> unit
(** [shrink v n] truncates to length [n] (must not exceed current length). *)

val iter : ('a -> unit) -> 'a t -> unit
val fold : ('b -> 'a -> 'b) -> 'b -> 'a t -> 'b
val to_list : 'a t -> 'a list
val sort_in_place : ('a -> 'a -> int) -> 'a t -> unit
(** Sorts the live prefix. *)

val filter_in_place : ('a -> bool) -> 'a t -> unit
(** Keeps elements satisfying the predicate, preserving order. *)
