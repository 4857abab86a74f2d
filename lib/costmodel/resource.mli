(** Resource accounting for the optimization constraints (Eq. 5).

    Memory [M(v)] approximates a table's footprint as total entry bytes,
    multiplied by the same [m] as in Eq. 4a for LPM/ternary tables (they
    are implemented as multiple hash tables). [E(v)] is the table's entry
    update rate from the profile. *)

val table_memory : Target.t -> P4ir.Table.t -> int
(** [M(v)] in bytes: entries times entry bytes times [m]. Entries are the
    provisioned capacity for caches (their budget is reserved) and the
    current count otherwise. An entry's bytes are its key widths rounded
    up to bytes (plus a prefix-length byte for LPM, doubled for ternary
    value+mask and range lo+hi) plus 8 bytes of action data. *)

val program_memory : Target.t -> P4ir.Program.t -> int
val program_update_rate : Profile.t -> P4ir.Program.t -> float

type budget = { memory_bytes : int; updates_per_sec : float }

val within : budget -> memory:int -> updates:float -> bool

val default_budget : budget
(** 16 MiB of table memory and 10k updates/sec. *)
