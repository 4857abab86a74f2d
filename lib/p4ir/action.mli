(** Actions: named sequences of primitive operations attached to tables.

    The cost model charges [L_act] per primitive (Eq. 4b in the paper),
    so [num_primitives] is the [n_a] parameter. *)

type primitive =
  | Set_field of Field.t * Value.t  (** assign a constant *)
  | Set_from of Field.t * Field.t  (** copy one field into another *)
  | Add_const of Field.t * Value.t  (** wrapping add of a constant *)
  | Dec_ttl  (** saturating decrement of [Ipv4_ttl] *)
  | Forward of int  (** set the egress port *)
  | Drop  (** halt processing and discard the packet *)
  | Nop

type t = { name : string; prims : primitive list }

val make : string -> primitive list -> t
val nop : string -> t
val drop_action : t
(** The conventional ["drop"] action consisting of a single [Drop]. *)

val num_primitives : t -> int
(** [n_a]: 0 for a pure no-op action. *)

val is_dropping : t -> bool
(** Does executing this action unconditionally discard the packet? *)

val reads_of : t -> Field.t list
val writes_of : t -> Field.t list
(** Deduplicated field sets over all primitives. *)

val rename : string -> t -> t

val concat : string -> t -> t -> t
(** [concat name a b] performs [a]'s primitives then [b]'s; used by table
    merging and caching to fuse per-table actions. A [Drop] in [a] makes
    the tail unreachable, so it is truncated there. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
