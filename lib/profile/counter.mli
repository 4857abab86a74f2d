(** P4-style counters used for runtime profiling (§4.1.2).

    Pipeleon instruments every conditional branch and table action with a
    counter; the simulator increments them as packets execute. Counters
    are keyed by (owner name, label) where the owner is a table or branch
    name — names survive program rewrites, node ids do not. *)

type t

type key = { owner : string; label : string }

val create : unit -> t
val clear : t -> unit
val incr : ?by:int64 -> t -> owner:string -> label:string -> unit

type cell = int ref
(** A pre-resolved counter handle: one hash probe at resolution time,
    an allocation-free int add per increment. The representation is
    deliberately concrete: the compiled data path bumps one cell per
    executed op per sampled packet, and the dev profile compiles with
    [-opaque] (no cross-module inlining), so an abstract type would
    force an out-of-line call per increment. Callers must treat a cell
    as increment-only: bump it with [c := !c + 1].
    Used by the compiled data path,
    which resolves every (table, action) and (branch, outcome) pair at
    deploy time. Resolving a cell registers a zero-valued entry, which
    no reader observes ({!dump} filters zeros, {!diff} keeps positive
    deltas only), so unfired cells never change a dump.

    Cells are invalidated by {!clear} (the underlying slots are
    discarded); re-resolve after clearing. *)

val cell : t -> owner:string -> label:string -> cell

val get : t -> owner:string -> label:string -> int64
val owner_total : t -> string -> int64
(** Sum over all labels of one owner. *)

val dump : t -> (key * int64) list
(** All nonzero counters, sorted by owner then label. *)

val merge_into : dst:t -> src:t -> unit
(** Add all of [src]'s counts into [dst]. *)

val snapshot : t -> t
(** Deep copy, so a profiling window can be diffed against a baseline. *)

val diff : current:t -> baseline:t -> t
(** Per-key [current - baseline] (clamped at zero). *)
