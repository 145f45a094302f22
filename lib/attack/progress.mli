(** Per-attack progress model for live observability.

    The attack engines feed this process-wide tracker through cheap
    hooks ({!add_dips}, {!cube_started}, ...); the exposition layer (the
    CLI's [--watch] / [--stream] modes, later the [logiclockd] daemon)
    reads consistent {!view}s and renders them.

    {b Overhead and determinism.}  Disabled (the default), every feeder
    is one atomic load and a branch.  Enabled, feeders take a mutex but
    never influence control flow: attack results and golden DIP
    sequences are byte-identical with tracking on or off.

    {b Cube accounting.}  A cube fixing [d] inputs weighs [2^-d] of the
    input space.  Re-splitting a stopped cube removes its weight and its
    two children add the same amount back, so total weight is invariant
    and [coverage] (solved weight / total weight) is the completed
    fraction of the input space. *)

val enabled : unit -> bool

val enable : unit -> unit
(** Resets all counts ({!reset}) and turns the feeders on. *)

val disable : unit -> unit

val reset : unit -> unit
(** Zero every count and restart the attack clock. *)

(** {1 Feeders} *)

val add_dips : int -> unit
(** [k] new distinguishing inputs found; also advances the EWMA DIP
    rate. *)

val add_imported : int -> unit
(** DIP constraints a re-split cube inherited: the ancestor DIPs already
    in the forked solver session it continues. *)

val set_key_bits : int -> unit
(** Key width of the attacked instance (max over concurrent attacks). *)

val cube_created : depth:int -> unit
(** A cofactor sub-attack scheduled ([depth] = fixed inputs). *)

val cube_started : depth:int -> unit

val cube_solved : depth:int -> unit
(** The cube's session completed (key found, or proven keyless). *)

val cube_stopped : depth:int -> unit
(** The cube hit its difficulty budget and will be re-split. *)

(** {1 View} *)

type view = {
  v_elapsed_s : float;
  v_dips : int;
  v_imported : int;
  v_dip_rate : float;  (** EWMA, dips per second (tau = 5 s) *)
  v_key_bits : int;
  v_keyspace_log2 : float;
      (** log2 upper bound on surviving keys ([2^K] minus one per DIP
          constraint, local or imported), or [-1] when the key width is
          unknown *)
  v_cubes_pending : int;
  v_cubes_running : int;
  v_cubes_solved : int;
  v_cubes_stopped : int;
  v_coverage : float;  (** solved input-space fraction, depth-weighted *)
  v_eta_s : float;
      (** coverage-proportional remaining time, or [-1] before any cube
          completes *)
}

val view : unit -> view

val keyspace_log2 : key_bits:int -> constraints:int -> float

(** {1 Renderers} *)

val jsonl_line : ?t_ns:int -> view -> string
(** The stream's [progress] record
    (cf. {!Ll_telemetry.Trace_check.validate_stream}). *)

val status_line : view -> string
(** One-line dashboard for [--watch]. *)
