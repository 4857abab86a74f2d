(** The pipeline compiler (deploy-time data-path flattening).

    [build] turns a program DAG plus its live table engines into a
    branch-predictable linear op array: one op per node in topological
    order, successors resolved to array indices, per-table action info
    (body, precomputed cost, profile-counter cell) resolved into hash
    tables with a one-slot memo, telemetry handles pre-resolved, and
    per-op costs that are constant (action cost, branch cost) folded at
    compile time in the interpreter's own float association order.

    [run] then executes the array with the exact semantics of
    {!Exec.run_packet}: identical latencies bit for bit, identical
    profile counters (the cells alias the same registry slots the
    interpreter's hash probes reach), identical telemetry counters,
    spans, and sampling, and identical flow-cache fill behaviour.
    {!Exec} owns compiled instances, their staleness, and the burst
    entry ({!Exec.run_batch}); this module is engine-level machinery
    below it. *)

type t

type tracer = P4ir.Program.node_id -> string -> string -> unit
(** Same contract as {!Exec.set_tracer}: called once per node traversed,
    with (node id, table/branch name, action or outcome). *)

val build :
  ?reuse:t ->
  target:Costmodel.Target.t ->
  placement:(P4ir.Program.node_id -> Costmodel.Cost.core) ->
  counters:Profile.Counter.t ->
  telemetry:Telemetry.t ->
  engine_of:(P4ir.Program.node_id -> Engine.t) ->
  P4ir.Program.t ->
  t
(** Flatten [prog]. [engine_of] must resolve every table node to its
    live engine (the compiled ops hold the engine handles directly, so
    control-plane inserts/deletes/cache fills are visible without
    recompiling). With [reuse] (the previous compiled pipeline), tables
    whose engine object, action set, placement factor, and counter
    registry are unchanged keep their compiled artifact — the unit of
    work an incremental deploy pays for; see {!tables_reused} /
    {!tables_rebuilt}. *)

val run :
  t -> tracer:tracer option -> sampled:bool -> seq:int -> now:float -> Packet.t -> float
(** One packet through the op array; returns the latency,
    bit-identical to {!Exec.run_packet} under the same (sampled, seq,
    now) inputs and engine state. The packet is mutated. After the
    call, {!drop_observed} tells whether a table action dropped the
    packet during this walk (the interpreter's drop-accounting event). *)

val drop_observed : t -> bool
(** Whether the last {!run} halted on an in-walk drop. Distinct from
    {!Packet.is_dropped}, which is also true for packets that arrived
    already dropped — the interpreter only counts the former. *)

val num_ops : t -> int

(** {2 Burst-vectorized walk}

    The struct-of-arrays execution of the same op array: one
    {!Packet.Batch} column per interned field, each fused op run across
    every live lane before the walk advances (lanes are regrouped by
    program counter, SIMT-style), and single-key exact tables hash the
    whole burst and touch their open-addressing slots before probing — a
    software prefetch. See docs/PERF.md "Burst-vectorized walk". *)

val soa_capable : t -> bool
(** Whether {!run_burst} accepts this program: no cache-role tables
    (fills and LRU recency are packet-order-sensitive) and every
    interned field narrower than 62 bits (so int columns are exact).
    {!Exec.run_batch} falls back to the per-packet compiled loop
    when false. *)

val soa_layout : t -> P4ir.Field.t array
(** The interned-field column layout, in column order (a copy). *)

val run_burst :
  t ->
  tracer:tracer option ->
  seqs:int array ->
  sampled:bool array ->
  nows:float array ->
  pos:int ->
  base:int ->
  n:int ->
  out:float array ->
  Packet.t array ->
  int
(** [run_burst p ~tracer ~seqs ~sampled ~nows ~pos ~base ~n ~out pkts]
    runs packets [pkts.(base .. base+n-1)] through the op array as one
    burst; lane [i]'s sampled/seq/now inputs come from
    [sampled.(base+i)]/[seqs.(base+i)]/[nows.(base+i)], its latency
    lands in [out.(pos + base + i)], and the packets are mutated.
    [base] lets a caller walk a large batch in L1-sized blocks without
    slicing its arrays ({!Exec.run_batch}). Returns the number
    of in-walk drops observed (the sum
    {!drop_observed} would give per packet). Bit-identical to [n] calls
    of {!run} in lane order: same latency float sequences, counter
    cells, telemetry counters, spans and tracer callbacks (buffered per
    lane and replayed in lane order). All arguments are required — the
    hot path cannot afford optional-argument boxing. Steady-state calls
    allocate nothing beyond telemetry when tracing is live.
    @raise Invalid_argument if {!soa_capable} is false or the arrays are
    too small. *)

val tables_reused : t -> int
(** Tables whose compiled artifact was carried over from [reuse]. *)

val tables_rebuilt : t -> int

type op_view = {
  view_pc : int;
  view_node : P4ir.Program.node_id;
  view_kind : [ `Table | `Cond ];
  view_name : string;
  view_next : int list;  (** successor pcs; [-1] is the sink *)
}

val view : t -> op_view list
(** The flattened layout, for tests and debugging. *)

val pc_of_node : t -> P4ir.Program.node_id -> int option

(** {2 Shared packet semantics}

    The single definition of P4 action application, used by both the
    interpreter and the compiled walk. *)

val apply_action : Packet.t -> P4ir.Action.t -> unit
val apply_primitive : Packet.t -> P4ir.Action.primitive -> unit
val node_cat : P4ir.Table.t -> string
(** ["cache"] / ["merged"] / ["table"] — telemetry span category and
    metric-name segment for a table node. *)
