(** Mutable packet representation processed by the simulator.

    A packet is a bag of header fields plus metadata slots; the executor
    reads and writes them through {!get}/{!set} keyed by {!P4ir.Field.t}.
    Values are truncated to the field width on write. *)

type t

val create : ?size_bytes:int -> unit -> t
(** A zeroed packet; [size_bytes] defaults to 512 (the paper's traffic). *)

val get : t -> P4ir.Field.t -> P4ir.Value.t
val set : t -> P4ir.Field.t -> P4ir.Value.t -> unit

val is_dropped : t -> bool
val mark_dropped : t -> unit
val egress_port : t -> int option
val set_egress : t -> int -> unit

val of_fields : ?size_bytes:int -> (P4ir.Field.t * P4ir.Value.t) list -> t
val copy : t -> t
val key_string : t -> P4ir.Field.t list -> string
(** Concatenated field values; a hashable flow key. *)

val pp : Format.formatter -> t -> unit
