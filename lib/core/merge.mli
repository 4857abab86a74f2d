(** Table merging (§3.2.3): several tables become one, performing all
    their actions with a single key match.

    Two variants, as in the paper: a plain merge produces a ternary table
    whose entries are the cross product of the originals' entries plus
    wildcard combinations expressing per-table misses (Fig. 6); because
    the ternary [m] can make this slower, the exact variant instead
    builds an exact table of hit-hit combinations used as a lookaside
    cache, falling back to the originals on a miss. *)

val max_merged_entries : int
(** Cross-product guard (4096 entries). *)

val mergeable : P4ir.Table.t list -> bool
(** Semantics check: no table writes a field that a later covered table
    matches or reads (the single merged lookup reads all keys at once),
    no range keys, and the cross product stays within bounds. *)

val fallback_compatible : P4ir.Table.t list -> bool
(** The exact-lookaside variant additionally needs all-exact keys. *)

val entry_estimate : P4ir.Table.t list -> int
(** The paper's N(T_AB) = prod N(T_i). *)

val update_estimate : Profile.t -> P4ir.Table.t list -> float
(** The paper's I(T_AB) = sum_i I(T_i) * prod_{j<>i} N(T_j). *)

val build_ternary : name:string -> P4ir.Table.t list -> P4ir.Table.t
(** @raise Invalid_argument if not {!mergeable}. *)

val build_fallback : name:string -> P4ir.Table.t list -> P4ir.Table.t
(** @raise Invalid_argument if not {!mergeable} or not
    {!fallback_compatible}. *)
