(** Deterministic pseudo-random number generation (SplitMix64).

    Every randomized component of the library — benchmark generators, locking
    schemes, attack heuristics — draws from this generator, so any experiment
    is reproducible from a single integer seed.  The generator is *not*
    cryptographic; it is chosen for speed and excellent statistical quality at
    64-bit width. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] returns a fresh generator.  Equal seeds yield equal
    streams. *)

val copy : t -> t
(** [copy g] is an independent generator with the same current state. *)

val split : t -> t
(** [split g] derives a statistically independent child generator and
    advances [g].  Use one child per parallel task to keep parallel runs
    reproducible regardless of scheduling. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val bool : t -> bool
(** Uniform boolean. *)

val int : t -> int -> int
(** [int g bound] is uniform in [\[0, bound)].  [bound] must be positive. *)

val float : t -> float -> float
(** [float g bound] is uniform in [\[0, bound)]. *)

val chance : t -> float -> bool
(** [chance g p] is [float g 1.0 < p] (true with probability [p]),
    computed without boxing the drawn float: it draws what [float] draws
    and leaves the stream in the same state. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val sample : t -> k:int -> n:int -> int list
(** [sample g ~k ~n] draws [k] distinct integers from [\[0, n)], in increasing
    order.  Requires [0 <= k <= n]. *)
