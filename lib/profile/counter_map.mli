(** Fold counters of an optimized program back onto the original program
    (§4.1.2 "counter map").

    When a table is cached, its original traffic is split between the
    cache table and the fall-back table; when tables are merged, the
    merged table's action counts decompose into per-original-action
    counts. Fused action names are self-describing —
    ["T1:a1;T2:a2"] — so the fold-back needs no positional guessing,
    and drop-truncated or group-cache sequences (covering only a subset
    of tables) decompose exactly as executed. *)

val fuse : (string * string) list -> string
(** [(table, action)] pairs to a fused action name. *)

val split_fused : string -> (string * string) list
(** Inverse of {!fuse}; [[]] for names not produced by it (e.g. ["miss"]). *)

val fold_back : optimized:P4ir.Program.t -> Counter.t -> Counter.t
(** A fresh counter store with counts attributed to original table and
    action names. Regular tables pass through; [Cache]/[Merged] tables
    decompose their fused action counts; navigation and migration tables
    are dropped; branch counters pass through. *)
