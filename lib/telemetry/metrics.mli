(** Metrics registry: named counters, gauges, and
    log-bucketed latency histograms ({!Histogram}), with JSON and
    Prometheus text exposition.

    Handles are registered once by name and then updated directly
    (field mutation, no table lookup), so instrumented hot paths pay an
    increment, not a hash probe. Registries are single-domain mutable;
    give each domain or fleet member its own registry ({!merge_into}
    combines them losslessly — counters and histogram buckets add,
    gauges take the source's latest set value). *)

type t
(** A registry. *)

type counter
type gauge

val create : unit -> t

val counter : t -> string -> counter
(** Register (or fetch) the named counter.
    @raise Invalid_argument if the name is bound to a different kind. *)

val gauge : t -> string -> gauge
val histogram : ?sub_bits:int -> t -> string -> Histogram.t

val inc : ?by:int -> counter -> unit
(** Add [by] (default 1). *)

val set : gauge -> float -> unit

val find_counter : t -> string -> int option
(** Current value by name; [None] when unregistered. *)

val find_gauge : t -> string -> float option
val find_histogram : t -> string -> Histogram.t option

val names : t -> string list
(** All registered names, sorted. *)

val merge_into : dst:t -> src:t -> unit
(** Fold [src] into [dst]: counters add, histograms merge bucketwise,
    gauges adopt [src]'s value if it was ever set. Metrics missing from
    [dst] are registered on the fly, so a freshly forked shard registry
    merges into any parent. *)

val merge_prefixed : prefix:string -> dst:t -> src:t -> unit
(** {!merge_into} with [prefix] prepended to every name on the [dst]
    side — fleet rollups use it to keep per-NIC views
    ([fleet.nic3.nicsim.latency]) alongside the unprefixed fleet
    totals. *)

val to_json : t -> P4ir.Json.t
(** {[ { "counters": {..}, "gauges": {..},
        "histograms": { name: {count,sum,mean,min,max,p50,p90,p99,p999} } } ]}
    with every object sorted by name (deterministic output). *)

val to_prometheus : t -> string
(** Prometheus text exposition: a [# TYPE] line per metric, counters
    and gauges as-is, histograms as summaries with [quantile] labels
    plus [_sum]/[_count]. Names are
    sanitized to the Prometheus charset ([.] and [-] become [_]). *)
