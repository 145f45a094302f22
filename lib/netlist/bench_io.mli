(** Reader and writer for the ISCAS/locking community [.bench] netlist
    format.

    Supported syntax:
    {v
    # comment
    INPUT(a)
    OUTPUT(y)
    w = NAND(a, b)
    y = NOT(w)
    v}

    Gate mnemonics: AND OR NAND NOR XOR XNOR NOT/INV BUF/BUFF MUX, plus the
    extension [LUT_<bits>] for truth-table gates.  Following the convention
    of public logic-locking benchmarks, an input whose name starts with
    [keyinput] (case-insensitive) is parsed as a key port; the writer names
    key ports that way so round-trips preserve them.  Definitions may appear
    in any order; the parser topologically sorts them.  Sequential elements
    (DFF) are not supported. *)

exception Parse_error of { line : int; message : string }

val parse_string : ?name:string -> string -> Circuit.t
(** Raises {!Parse_error} on malformed input (a [LUT_] gate wider than
    {!Gate.max_lut_inputs} included) and {!Circuit.Ill_formed} on
    combinational cycles or other structural problems. *)

val parse_file : string -> Circuit.t
(** [parse_file path] — the circuit name is the file's basename without
    extension. *)

val to_string : Circuit.t -> string

val write_file : string -> Circuit.t -> unit
