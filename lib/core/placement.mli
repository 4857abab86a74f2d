(** Heterogeneous ASIC/CPU partitioning with table copying (§3.2.4,
    Appendix A.2).

    Some tables carry actions the ASIC cores cannot execute and must run
    on CPU cores; every ASIC<->CPU boundary a packet crosses costs one
    migration. Placing an ASIC-capable table on the CPU ("copying" it to
    the software pipeline) can remove crossings — worth it when migration
    is dear and enough traffic takes the software path. *)

type requirement = Any | Needs_cpu | Needs_asic

val naive :
  P4ir.Program.t ->
  require:(P4ir.Program.node_id -> requirement) ->
  Costmodel.Cost.placement
(** CPU only where required — the baseline partition that migrates the
    most. *)

val optimize :
  Costmodel.Target.t ->
  Profile.t ->
  P4ir.Program.t ->
  require:(P4ir.Program.node_id -> requirement) ->
  Costmodel.Cost.placement
(** Iterative improvement from the naive partition: flip any [Any] node
    whose move lowers expected latency, until a sweep makes no progress
    (at most 8 sweeps). Exact for chains, a good local
    optimum for DAGs. *)

val migrations_expected :
  Profile.t -> P4ir.Program.t -> placement:Costmodel.Cost.placement -> float
(** Expected ASIC<->CPU crossings per packet (including entry and exit
    from the CPU side). *)
