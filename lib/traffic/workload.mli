(** Workload generation: flow populations and packet sources.

    A source is a thunk producing the next packet; {!Nicsim.Sim.run_window}
    pulls from it. Sources compose: start from a flow population with a
    locality distribution, then layer on drop-marking or field overrides
    to express the paper's traffic scenarios. *)

type flow = (P4ir.Field.t * P4ir.Value.t) list

type source = unit -> Nicsim.Packet.t

val random_flows :
  Stdx.Prng.t -> n:int -> fields:P4ir.Field.t list -> flow array
(** [n] distinct flows with random values in each field's domain. *)

val of_flows : ?zipf_s:float -> Stdx.Prng.t -> flow array -> source
(** Sample a flow per packet — Zipf-ranked when [zipf_s > 0] (flow 0 most
    popular), uniform otherwise — and materialize its 512-byte packet. *)

val mark_fraction :
  Stdx.Prng.t ->
  rate:float ->
  field:P4ir.Field.t ->
  value:P4ir.Value.t ->
  source ->
  source
(** With probability [rate], overwrite [field] on the generated packet —
    e.g. stamp the value an ACL entry denies, to dial a drop rate. *)

val override : field:P4ir.Field.t -> value:P4ir.Value.t -> source -> source
