(** Seeded random generation of valid P4 programs, runtime profiles, and
    packet workloads — the input half of the differential conformance
    fuzzer.

    Programs are generated as structured blocks (apply / if-else /
    switch-case) and lowered the same way the P4-lite frontend lowers
    source, so every generated program round-trips through
    {!P4lite.Emit} and mixes exact, LPM, ternary and range tables with
    branching and re-joining control flow.

    Entry sets are constrained so that table lookup is unambiguous:
    ternary and range entries get unique priorities, LPM entries keep
    priority 0 with at most one LPM key per table, and exact tuples are
    deduplicated. Without this the reference lookup (priority, then
    specificity, then entry order) and the hash-table engines may
    legitimately pick different entries among equal-priority overlapping
    matches, which is not a bug worth reporting. *)

type params = {
  max_tables : int;  (** program size budget, >= 1 *)
  max_block_stmts : int;  (** statements per control block *)
  max_depth : int;  (** nesting of if/switch blocks *)
  max_keys : int;  (** keys per table, >= 1 *)
  max_actions : int;  (** actions per table, >= 1 *)
  max_entries : int;  (** entries per table (ignored when [rules] is set) *)
  max_prims : int;  (** primitives per action *)
  drop_prob : float;  (** probability an action is a bare [drop] *)
  allow_range : bool;
  rules : int option;
      (** rule-scale knob: every table gets between n/2 and n entries
          (instead of [max_entries]), with ternary masks drawn from a
          bounded per-table pool so group counts stay hardware-shaped.
          Pair with a wider [value_bits] so patterns stay distinct. *)
  value_bits : int;
      (** value-space width: entry and packet values live in the low
          [value_bits] bits of each field (clamped to the field width).
          The default 6 reproduces the historical generator draw for
          draw. *)
}

val default_params : params

val program : ?params:params -> ?name:string -> Stdx.Prng.t -> P4ir.Program.t
(** A valid program ({!P4ir.Program.validate} passes) with at least one
    table. *)

val profile : Stdx.Prng.t -> P4ir.Program.t -> Profile.t
(** Random but well-formed stats for every table and conditional of the
    program (action probabilities sum to 1). *)

type flow = (P4ir.Field.t * P4ir.Value.t) list
(** Field assignments applied on top of packet defaults; fields the
    program never reads are left to their defaults. *)

val packets : ?params:params -> Stdx.Prng.t -> P4ir.Program.t -> n:int -> flow list
(** [n] packets drawn Zipf-distributed from a population of 4-32 flows whose
    field values are biased towards the program's own entry constants
    and branch arguments (so entries actually hit). *)

type case = {
  program : P4ir.Program.t;
  profile : Profile.t;
  packets : flow list;
}

val case : ?params:params -> ?n_packets:int -> Stdx.Prng.t -> case
(** One self-contained fuzz input; [n_packets] defaults to 64. *)
