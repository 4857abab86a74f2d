(** Run-to-completion executor: one packet walks the program DAG on one
    core, accumulating latency per the target's cost parameters.

    The executor owns the runtime table engines, the instrumentation
    counters, flow-cache fills, and the heterogeneous placement logic
    (migration latency when execution crosses ASIC/CPU boundaries,
    §3.2.4). It is deliberately independent of traffic generation and of
    the multicore throughput model ({!Sim}). *)

type config = {
  target : Costmodel.Target.t;
  instrumented : bool;  (** profile counters attached (§4.1.2) *)
  sample_rate : int;  (** update counters for 1 in [sample_rate] packets *)
  placement : P4ir.Program.node_id -> Costmodel.Cost.core;
}

val default_config : Costmodel.Target.t -> config
(** Instrumented, sample every packet, everything on ASIC cores. *)

type t

val create : config -> P4ir.Program.t -> t
val program : t -> P4ir.Program.t
val config : t -> config
val counters : t -> Profile.Counter.t

val engine : t -> string -> Engine.t option
(** Runtime engine of the named table. *)

val engine_exn : t -> string -> Engine.t

val run_packet : t -> now:float -> Packet.t -> float
(** One packet as a one-lane {!run_batch} at the executor's next global
    sequence number ([packets_seen + 1]), which keys both counter
    sampling ([instrumented && seq mod sample_rate = 0]) and telemetry
    trace sampling; returns its latency in target latency-units
    (including the fixed per-packet overhead and any migrations). The
    packet is mutated (header rewrites, drop flag, egress). *)

val run_batch :
  t ->
  seqs:int array ->
  nows:float array ->
  pos:int ->
  n:int ->
  out:float array ->
  Packet.t array ->
  int
(** The data path: packets [0 .. n-1] of the array run as one burst
    through the compiled pipeline — the program flattened once
    ({!Compile}) into a linear op array with resolved successors,
    per-table action artifacts, pre-resolved counter cells and telemetry
    handles — one packet at a time in lane order ({!Compile.run}, the
    only compiled walk). Lane [i] uses global sequence number
    [seqs.(i)] (keying counter and trace sampling) and timestamp
    [nows.(i)], and its latency lands in [out.(pos + i)]; returns the
    number of dropped packets. The tests hold it bit-identical to the
    independent reference [Fuzz.Refsim] — latency floats, profile
    counters, telemetry (hit/miss counters, packets/drops, sampled
    spans), flow-cache contents, and tracer callbacks in lane order.
    This executor's [packets_seen] advances by [n] whatever the
    [seqs], so a caller can pin a lane to any window position. The
    pipeline compiles lazily on first use and recompiles (reusing
    unchanged tables' artifacts) after {!replace_program} or
    {!set_telemetry}. All arguments are required:
    the per-burst path cannot afford optional-argument boxing, and a
    steady-state burst allocates nothing.
    @raise Invalid_argument if [out] cannot hold the burst or [seqs],
    [nows] or the packet array is shorter than [n]. *)

val soa_capable : t -> bool
(** Always [false]: the struct-of-arrays burst walk was removed and
    every burst takes the scalar compiled walk. Kept for the e2e
    benchmark adapter, which reports the share of windows it ran. *)

val precompile : t -> int * int
(** Force compilation of the data path now (normally lazy on the first
    {!run_batch}) and return [(tables_reused, tables_rebuilt)] for the
    most recent compile — after an incremental {!replace_program},
    [tables_reused] counts the per-table artifacts carried over. *)

val replicate : t -> t
(** Deep copy: engines are independently copied (aliasing between
    program nodes preserved), counters start empty, the packet count
    starts at zero, the tracer is not carried over, and telemetry goes to
    a {!Telemetry.fork}ed sink. The program, target, and placement are
    shared (immutable). A replica answers probes without disturbing the
    original's engines or counters. *)

val packets_seen : t -> int

type trace_event = {
  node : P4ir.Program.node_id;
  name : string;  (** table or conditional name *)
  outcome : string;  (** action fired, or ["true"]/["false"] for branches *)
}

val set_tracer : t -> (trace_event -> unit) option -> unit
(** Install (or clear) a per-step hook invoked once per node the packet
    traverses, in execution order — the differential fuzzer's action
    trace. Tracing is off by default and costs nothing when unset. *)

val telemetry : t -> Telemetry.t
(** The attached sink; {!Telemetry.null} (all no-ops) by default. *)

val set_telemetry : t -> Telemetry.t -> unit
(** Attach a telemetry sink. With an enabled sink the executor keeps
    per-table hit/miss counters ([nicsim.table.<name>.hit] /
    [.miss]; cache- and merged-role tables use [nicsim.cache.*] /
    [nicsim.merged.*]), total [nicsim.packets] / [nicsim.drops], and —
    when the sink carries a trace ring — records each sampled packet's
    walk through the node DAG as spans on the modeled time axis
    (sampling is keyed on the global sequence number, so every window
    path samples identically). Instrumentation only observes: counters
    and spans never change packet outcomes, engine state, or latencies.
    Metric handles are resolved here, not per packet. *)

val sync_entries_to_ir : t -> P4ir.Program.t
(** The program with each table's [entries] replaced by the engine's
    current dynamic contents — what the optimizer should look at. *)

val replace_program : t -> P4ir.Program.t -> int
(** Hot-patch to a new program in place: engines of tables whose name,
    keys, and actions are unchanged are kept (dynamic entries and all),
    counters are preserved, and only new or reshaped tables get fresh
    engines. Returns the number of tables that needed (re)creation — the
    units of work an incremental reconfiguration pays for (§6). *)

