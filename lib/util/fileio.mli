(** Crash-safe file output.

    Benchmark and trace artifacts ([BENCH_*.json], Chrome traces) are
    written through a temp-file-plus-rename so an interrupted run can never
    leave a truncated file behind: readers see either the old content or
    the complete new content. *)

val write_atomic : string -> (out_channel -> unit) -> unit
(** [write_atomic path f] runs [f] on a temp file in [path]'s directory and
    renames it over [path] on success.  On any failure (of [f], of
    creating or closing the temp file, or of the rename) the temp file is
    removed, [path] is untouched and the exception re-raised; a
    [Sys_error] is re-raised as [Sys_error "<path>: <reason>"], naming
    [path] rather than the temp file. *)

val write_atomic_string : string -> string -> unit
(** [write_atomic_string path s] — {!write_atomic} with fixed content. *)
