(** Queueing refinement of the run-to-completion latency model.

    {!Target.throughput_gbps} gives the saturation throughput from mean
    service time; below saturation, packets also wait for a free core.
    This module adds an M/M/c view: [c = num_cores] servers with service
    rate derived from the expected per-packet latency, giving wait-time
    inflation as offered load approaches capacity — useful for latency
    SLO questions the saturation model cannot answer. *)

val expected_sojourn :
  Target.t -> service_latency:float -> offered_gbps:float -> float option
(** Mean total latency (service + queueing, in latency units) for packets
    arriving at [offered_gbps] when each costs [service_latency] to
    serve; the wait is Erlang-C over [num_cores] servers. [None] when
    offered load meets or exceeds capacity. *)
