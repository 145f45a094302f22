(** Propositional literals.

    A literal packs a variable index (a non-negative [int]) and a sign into
    one integer: [lit = 2*var + (0 when positive, 1 when negated)].  This is
    the MiniSAT convention; it makes literal arrays unboxed and negation a
    single XOR. *)

type t = int

val pos : int -> t
(** Positive literal of a variable. *)

val neg : int -> t
(** Negative literal of a variable. *)

val make : int -> bool -> t
(** [make v phase] is [pos v] when [phase] is true. *)

val var : t -> int
val is_pos : t -> bool
val negate : t -> t

val of_dimacs : int -> t
(** From a non-zero DIMACS literal ([-3] is the negation of variable 3;
    DIMACS variables are 1-based, ours 0-based). *)

val to_dimacs : t -> int

val sort_prefix : t array -> int -> unit
(** [sort_prefix a n] sorts [a.(0 .. n-1)] ascending in place (the clause
    order of the solver's intake and of the Tseitin gate keys).  Short
    prefixes, nearly every clause, are sorted without allocating. *)

val pp : Format.formatter -> t -> unit
(** Prints DIMACS style. *)
