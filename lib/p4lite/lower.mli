(** Lowering from the P4-lite AST to the {!P4ir.Program} graph IR.

    Control flow becomes the DAG: [apply] chains tables, [if] becomes a
    conditional node whose arms rejoin at the continuation, and [switch]
    turns its table into a switch-case (per-action successors). Each
    table may be applied at most once (the IR gives every applied table
    one node). *)

exception Error of string
(** Message carries the source line where lowering failed. *)

val parse_program : string -> P4ir.Program.t
(** Parse ({!Parser.parse}) and lower. The result is validated.
    @raise Parser.Error on syntax errors.
    @raise Error on unknown fields/actions/tables, kind mismatches,
    duplicate or missing applications, or invalid patterns. *)

val load_file : string -> P4ir.Program.t
(** Parse and lower a [.p4l] file. *)
