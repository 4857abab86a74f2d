(** Mutable packet representation processed by the simulator.

    A packet is a bag of header fields plus metadata slots; the executor
    reads and writes them through {!get}/{!set} keyed by {!P4ir.Field.t}.
    Values are truncated to the field width on write. *)

type t

val create : unit -> t
(** A zeroed 512-byte IPv4/TCP packet (the paper's traffic): [ipv4_len]
    512, TTL 64. *)

val get : t -> P4ir.Field.t -> P4ir.Value.t
val set : t -> P4ir.Field.t -> P4ir.Value.t -> unit

val is_dropped : t -> bool
val mark_dropped : t -> unit
val egress_port : t -> int option
val set_egress : t -> int -> unit

val of_fields : (P4ir.Field.t * P4ir.Value.t) list -> t
(** {!create} with the given fields set. *)

val copy : t -> t

val pp : Format.formatter -> t -> unit
