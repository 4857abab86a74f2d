(** The telemetry subsystem: a metrics registry ({!Metrics}), HDR-style
    latency histograms ({!Histogram}), and sampled span tracing
    ({!Trace}) behind one sink handed to the components being observed.

    The sink is disabled by default: {!null} carries [enabled = false]
    and every instrumentation site guards on {!enabled} first, so an
    uninstrumented run pays one load-and-branch per guard — measured at
    under 2% on the nicsim window benchmarks ([bench/main.exe perf],
    row [telemetry/disabled-overhead]).

    A {!fork}ed sink keeps its own registry; fold it back with
    {!Metrics.merge_into}, which combines counters and histogram buckets
    losslessly. Traces are only collected on the sink that owns the ring
    buffer (forks do not trace). *)

module Histogram = Histogram
module Metrics = Metrics
module Trace = Trace

type t

val null : t
(** The disabled sink: {!enabled} is false, every record is a no-op, and
    nothing is ever allocated per event. *)

val create : ?trace_capacity:int -> ?trace_sample_every:int -> unit -> t
(** An enabled sink with a fresh metrics registry. [trace_capacity]
    enables span tracing into a ring of that many spans;
    [trace_sample_every] (default 64) traces one packet in that many.
    Without [trace_capacity] the sink collects metrics only.
    @raise Invalid_argument if [trace_sample_every <= 0]. *)

val enabled : t -> bool
val metrics : t -> Metrics.t

val trace : t -> Trace.t option
(** The span ring, when tracing is on. *)

val should_trace : t -> seq:int -> bool
(** Whether the packet with global sequence number [seq] is sampled for
    tracing: enabled, tracing on, and [seq mod trace_sample_every = 0].
    Keyed on the global sequence number, so a packet's sampling does
    not depend on the burst or window it runs in. *)

val add_span : t -> Trace.span -> unit
(** No-op when tracing is off. *)

val fork : t -> t
(** A separate sink for a replica: same enablement and sampling cadence,
    a fresh registry, no trace ring. {!null} forks to {!null}. *)
