(** Resource accounting for the optimization constraints (Eq. 5).

    Memory [M(v)] approximates a table's footprint as total entry bytes,
    multiplied by the same [m] as in Eq. 4a for LPM/ternary tables (they
    are implemented as multiple hash tables). [E(v)] is the table's entry
    update rate from the profile. *)

val entry_bytes : P4ir.Table.t -> int
(** Bytes of one entry: key widths rounded up to bytes (doubled for
    ternary value+mask, range lo+hi) plus a fixed action-data overhead. *)

val table_memory : Target.t -> P4ir.Table.t -> int
(** [M(v)] in bytes, based on provisioned [max_entries] for caches (their
    budget is reserved) and current entries otherwise. *)

val program_memory : Target.t -> P4ir.Program.t -> int
val program_update_rate : Profile.t -> P4ir.Program.t -> float

type budget = { memory_bytes : int; updates_per_sec : float }

val within : budget -> memory:int -> updates:float -> bool

val default_budget : budget
(** 16 MiB of table memory and 10k updates/sec. *)
