(** Flat clause arena: the storage layer shared by {!Solver} and {!Simp}.

    Every clause lives contiguously in one growable [int array] as

    {v
    [ header | activity | lit_0 ... lit_{n-1} ]
    v}

    and is referred to by the arena index of its header (a {e cref}, a
    plain [int]).  The header packs the clause size (bits 13 and up), the
    simplifier's queue bit (bit 12, see {!queued}), the LBD capped at 1023
    (bits 2–11), a mark bit (bit 1, set on clauses that are dead and
    awaiting compaction) and a learnt bit (bit 0).  The activity slot of a
    learnt clause stores the low 63 bits of the IEEE pattern of a
    non-negative float, an exact round-trip; problem clauses have no
    activity, and the simplifier caches their {!signature} in the slot
    instead ({!stored_signature}).

    In-place shrinking ({!remove_lit_at}, {!set_size}) leaves {e hole}
    words behind the clause: a negative word [-k] at a clause boundary
    means "skip [k] words".  Holes (and marked clauses) are reclaimed by
    the solver's arena compaction; {!dead} tracks how many words they
    currently waste so the solver can decide when compaction pays. *)

type t = {
  mutable a : int array;
  mutable len : int;  (** words in use (clauses + holes) *)
  mutable dead : int;  (** words wasted in marked clauses and holes *)
}

val hdr_lbd_max : int

val hdr_size_shift : int

val no_cref : int

val create : unit -> t

val copy : t -> t
(** An independent arena with the same words, offsets and hole
    accounting, so every cref stays valid in the copy. *)

val alloc : t -> Lit.t array -> int -> learnt:bool -> lbd:int -> int
(** [alloc t lits n] appends the clause [lits.(0 .. n-1)] (callers pass a
    reusable buffer), growing the backing array as needed; returns its
    cref.  Note that the backing array may be reallocated: never cache
    [t.a] across an [alloc]. *)

val size : t -> int -> int

val learnt : t -> int -> bool

val marked : t -> int -> bool

val mark : t -> int -> unit
(** Mark a clause dead.  Idempotent; accounts the clause's words in
    {!dead} on the first call. *)

val unmark : t -> int -> unit
(** Clear the mark bit (used transiently by learnt-DB reduction); undoes
    the {!dead} accounting. *)

val lbd : t -> int -> int

val act : t -> int -> float
(** Learnt clauses only. *)

val set_act : t -> int -> float -> unit
(** Learnt clauses only. *)

val queued : t -> int -> bool
(** Queue bit of a problem clause: set while the clause waits in the
    simplifier's subsumption queue, so membership needs no side table. *)

val set_queued : t -> int -> bool -> unit

val stored_signature : t -> int -> int
(** The {!signature} last saved by {!store_signature}.  Problem clauses
    only; the caller keeps it current when the clause changes. *)

val store_signature : t -> int -> unit
(** Compute the clause's {!signature} into its activity slot.  Problem
    clauses only. *)

val lit : t -> int -> int -> Lit.t

val set_lit : t -> int -> int -> Lit.t -> unit

val lits : t -> int -> Lit.t array

val remove_lit_at : t -> int -> int -> unit
(** [remove_lit_at t c k] drops the literal at index [k] of clause [c] in
    place: the last literal is swapped into position [k], the clause size
    decremented, and a one-word hole left behind the clause. *)

val set_size : t -> int -> int -> unit
(** [set_size t c n] truncates clause [c] to its first [n] literals
    ([n <= size]), leaving one hole block over the freed words. *)

val signature : t -> int -> int
(** 64-bit clause abstraction: the OR over literals of
    [1 lsl (var mod 63)].  [signature c land lnot (signature d) <> 0]
    proves [c] cannot subsume [d]. *)
