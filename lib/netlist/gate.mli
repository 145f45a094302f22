(** Combinational gate functions.

    Gates are pure boolean functions of an ordered list of fanins.  [And],
    [Or], [Nand], [Nor], [Xor] and [Xnor] are n-ary (arity >= 1; [Xor]/[Xnor]
    fold left-to-right, i.e. n-ary parity / its complement).  [Not] and [Buf]
    are unary.  [Mux] is ternary with fanins [[|s; a; b|]] and returns [a]
    when [s] is false and [b] when [s] is true.  [Lut table] evaluates a
    truth table: with fanins [x0..x(k-1)], the output is bit
    [x0 + 2*x1 + ... + 2^(k-1)*x(k-1)] of [table]. *)

type t =
  | And
  | Or
  | Nand
  | Nor
  | Xor
  | Xnor
  | Not
  | Buf
  | Mux
  | Lut of Ll_util.Bitvec.t

val eval : t -> bool array -> bool
(** [eval g fanins] — raises [Invalid_argument] on an arity mismatch. *)

val eval_lanes : t -> int64 array -> int64
(** Bitwise 64-lane evaluation: lane [i] of the result is [eval] applied to
    lane [i] of every fanin. *)

val eval_sub : t -> bool array -> len:int -> bool
(** [eval_sub g buf ~len] evaluates [g] over the first [len] entries of
    [buf] — a reusable-scratch variant of {!eval} for interpreter loops
    that must not allocate a fresh fanin array per gate. *)

val eval_lanes_sub : t -> int64 array -> len:int -> int64
(** 64-lane {!eval_sub}. *)

val max_lut_inputs : int
(** The widest LUT (16 inputs) the CNF encoder ([Ll_sat.Tseitin]) takes:
    it writes one clause per table row.  The [.bench] parser rejects
    wider ones. *)

val arity_ok : t -> int -> bool
(** Whether a gate of this function may take the given number of fanins. *)

val is_symmetric : t -> bool
(** Whether fanin order is irrelevant (used by structural hashing). *)

val name : t -> string
(** Upper-case mnemonic as used by the [.bench] format ([LUT] gates print as
    [LUT_<table>]). *)

val of_name : string -> t option
(** Inverse of [name] for the non-parameterised gates ([And] … [Mux]). *)

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
