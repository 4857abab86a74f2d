(** Convenience constructors for programs used by examples, tests, and the
    benchmark suites. *)

val exact_key : Field.t -> Table.key
val lpm_key : Field.t -> Table.key
val ternary_key : Field.t -> Table.key

val forward_action : ?extra_prims:int -> string -> Action.t
(** [forward_action ~extra_prims n] forwards to a fixed port and carries
    [extra_prims] additional metadata writes, so [n_a = 1 + extra_prims];
    used to sweep action complexity (Fig. 5b). *)

val acl_table : name:string -> keys:Table.key list -> unit -> Table.t
(** 1024-entry ACL with actions [allow] (no-op) and [deny] (drop);
    default [allow]. *)

val exact_chain :
  ?actions_per_table:int ->
  ?extra_prims:int ->
  prefix:string ->
  n:int ->
  key_of:(int -> Field.t) ->
  unit ->
  Table.t list
(** [n] exact-match tables named [prefix_i], each keyed on [key_of i]. *)

val cond :
  name:string ->
  field:Field.t ->
  op:Program.cmp ->
  arg:Value.t ->
  on_true:Program.next ->
  on_false:Program.next ->
  Program.node

val chain_into : Program.t -> Table.t list -> exit:Program.next -> Program.t * Program.node_id
(** Add a linear chain of tables ending at [exit]; returns the entry id. *)
