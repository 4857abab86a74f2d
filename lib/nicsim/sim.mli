(** Multicore SmartNIC simulation: emulated clock, throughput model, and
    live reconfiguration.

    Wall-clock scale does not permit simulating every wire packet at 100
    Gbps; each window simulates a representative sample of packets, takes
    the mean per-packet latency, and converts it to sustained throughput
    via the target's run-to-completion capacity model
    [min(line_rate, num_cores * capacity / avg_latency)]. Run-to-
    completion multicore NICs are work-conserving, so mean service time
    determines saturation throughput. *)

type t

val create :
  ?config:Exec.config -> ?telemetry:Telemetry.t -> Costmodel.Target.t -> P4ir.Program.t -> t
(** [config] defaults to {!Exec.default_config}; [telemetry] (default
    {!Telemetry.null}) is attached to the executor via
    {!Exec.set_telemetry}. *)

val exec : t -> Exec.t
val target : t -> Costmodel.Target.t
val now : t -> float
(** Emulated seconds since creation. *)

val advance : t -> float -> unit
(** Move the emulated clock forward without traffic (idle time). *)

val telemetry : t -> Telemetry.t
val set_telemetry : t -> Telemetry.t -> unit
(** Attach a sink (see {!Exec.set_telemetry}). On top of the executor's
    per-table counters and spans, each window records its latency
    distribution into histogram [nicsim.latency], bumps counter
    [nicsim.windows], and sets gauges [nicsim.window.throughput_gbps] /
    [.avg_latency] / [.drop_fraction] and per-table occupancy
    [nicsim.table.<name>.entries]. *)

type window_stats = {
  window_start : float;
  window_duration : float;
  sampled_packets : int;
  sampled_drops : int;
  avg_latency : float;  (** mean per-packet latency in latency units *)
  p99_latency : float;  (** exact, from the sorted sample *)
  p50_latency : float;
      (** histogram-derived (log-bucketed, at most 3.125% high) *)
  p90_latency : float;
  p999_latency : float;
  throughput_gbps : float;  (** sustained, capped at line rate *)
  drop_fraction : float;
}

val run_window :
  t -> duration:float -> packets:int -> source:(unit -> Packet.t) -> window_stats
(** Simulate [packets] sample packets spread uniformly over [duration]
    emulated seconds (packet [i] is stamped [start + duration * i /
    packets], so cache token buckets and time series behave), then
    advance the clock to the window end.

    Packets run in bursts of 64 through the compiled data path,
    {!Exec.run_batch}: the program flattened at deploy time into a
    linear op array ({!Compile}) and walked one packet at a time on the
    caller's domain (see docs/PERF.md "Window execution"). The pipeline
    compiles lazily on first use; {!reconfigure} and {!hot_patch} keep
    it coherent. Burst, lane inputs and latency buffers are per-sim
    scratch, so a steady-state window loop allocates nothing per window
    (asserted by a [Gc.minor_words] test), and no packet outlives its
    window in that scratch.

    Stats, counters, telemetry metrics, spans, tracer events and
    per-packet latencies are bit-identical to {!run_window_reference}.
    @raise Invalid_argument if [packets <= 0]. *)

val run_window_reference :
  t -> duration:float -> packets:int -> source:(unit -> Packet.t) -> window_stats
(** {!run_window} one packet at a time through the DAG interpreter
    ({!Exec.run_packet}): the reference the tests compare the data path
    against, not a production path. Same source call sequence, same
    timestamps, same sampling. *)

val run_window_compiled :
  ?soa:bool ->
  t ->
  duration:float ->
  packets:int ->
  source:(unit -> Packet.t) ->
  window_stats
(** {!run_window} under its old name. Kept for [e2e/workloads.ml]
    [data_path]; [?soa] is ignored; removed when a benchmark PR
    repoints the adapter. *)

val insert : t -> table:string -> P4ir.Table.entry -> unit
(** Control-plane entry insert (counts toward the table's update rate).
    @raise Invalid_argument if the table does not exist. *)

val delete : t -> table:string -> patterns:P4ir.Pattern.t list -> bool

exception Deploy_failed of string
(** A deployment came up but failed post-install verification (today only
    raised when a fault hook is installed — see {!set_deploy_fault}). *)

val set_deploy_fault : t -> (unit -> string option) option -> unit
(** Install (or clear) a deployment-fault hook, consulted by
    {!reconfigure} and {!hot_patch} *after* the new program has been
    installed — modelling a deployment that comes up and then fails
    verification (bad reflash, rejected table layout). When the hook
    returns [Some reason], the call raises {!Deploy_failed} and the NEW
    program is left running: the caller owns recovery (the runtime
    controller rolls back to its last-known-good layout). [None] from the
    hook means the deploy verified fine. No hook (the default) means
    deploys never fail — production behaviour is unchanged. *)

val reconfigure : ?config:Exec.config -> ?downtime:float -> t -> P4ir.Program.t -> unit
(** Swap in a new program. Tables whose names survive keep their dynamic
    entries (live reconfiguration on runtime-programmable NICs); caches of
    the outgoing program are not carried over. [downtime] (default 0)
    advances the clock, modelling reload-based targets like Agilio
    (§5.1: micro-engine reflash interrupts service).
    @raise Deploy_failed when an installed fault hook vetoes the deploy;
    the downtime is still charged (the reflash happened) and the new —
    unverified — program is installed until the caller recovers. *)

val hot_patch : ?downtime_per_table:float -> t -> P4ir.Program.t -> int
(** Incremental reconfiguration (§6 "compile and deploy updates
    incrementally"): keep engines, counters, and clock; only new or
    reshaped tables are rebuilt. The clock advances by
    [downtime_per_table] (default 0.02 s) per rebuilt table — a fraction
    of a full reload. Returns the number of rebuilt tables.
    @raise Deploy_failed under an installed fault hook, as with
    {!reconfigure}; rebuilt-table downtime is still charged. *)

val current_profile : ?window:float -> t -> Profile.t
(** Profile from the counters accumulated since the last call (folded
    back onto original table names via the counter map), tagged with the
    per-table control-plane update rates for the same period. *)
