(** Fixed-width bit values carried in header fields and match patterns.

    Values are stored as [int64]; all operations treat them as unsigned
    bit vectors of a given width. *)

type t = int64

val truncate : width:int -> t -> t
(** Keep the low [width] bits. *)

val prefix_mask : width:int -> prefix_len:int -> t
(** Mask with the top [prefix_len] of [width] bits set, e.g.
    [prefix_mask ~width:32 ~prefix_len:24 = 0xFFFFFF00L]. *)

val matches_mask : value:t -> mask:t -> t -> bool
(** [matches_mask ~value ~mask v] is [v land mask = value land mask]. *)

val in_range : lo:t -> hi:t -> t -> bool
(** Unsigned inclusive range test. *)

val to_hex : t -> string
val pp : Format.formatter -> t -> unit
