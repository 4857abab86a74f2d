(** Entry-update API mapping (§2.3: "Pipeleon ensures the same program
    management APIs by mapping the API calls to the original program to
    the optimized version").

    The control plane keeps issuing inserts/deletes against *original*
    table names; this module translates each call into the operations the
    *optimized* program needs: a direct update when the table survived, a
    rebuild of any merged table covering it, and an invalidation of any
    flow cache whose contents the update stales. *)

type op =
  | Direct of { table : string; insert : bool; entry : P4ir.Table.entry }
      (** plain insert (or delete of the entry's patterns) on a surviving
          table *)
  | Rebuild of { table : string; entries : P4ir.Table.entry list }
      (** replace a merged table's entries wholesale (cross-product
          recompute); its size measures the update amplification *)
  | Invalidate of string  (** clear a cache table *)

val map_insert :
  original:P4ir.Program.t ->
  optimized:P4ir.Program.t ->
  table:string ->
  P4ir.Table.entry ->
  op list
(** [original] must carry the *current* entries (the control plane's
    source of truth), already including the new entry.
    @raise Invalid_argument if [table] is not in the original program. *)

val map_delete :
  original:P4ir.Program.t ->
  optimized:P4ir.Program.t ->
  table:string ->
  P4ir.Table.entry ->
  op list
(** Same contract; [original] must already reflect the removal. *)
