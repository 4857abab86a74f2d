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
    spans, and sampling, and identical flow-cache fill behaviour. It is
    the only compiled walk. {!Exec} owns compiled instances, their
    staleness, and the burst entry ({!Exec.run_batch}); this module is
    engine-level machinery below it. *)

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
  t ->
  tracer:tracer option ->
  sampled:bool ->
  seq:int ->
  nows:float array ->
  out:float array ->
  pos:int ->
  int ->
  Packet.t ->
  unit
(** [run p ~tracer ~sampled ~seq ~nows ~out ~pos i pkt] walks one packet
    through the op array at timestamp [nows.(i)] and writes its latency
    to [out.(pos + i)], bit-identical to {!Exec.run_packet} under the
    same (sampled, seq, now) inputs and engine state. The packet is
    mutated. The timestamp and latency travel through the caller's
    arrays because a float argument or result of a non-inlined call is
    boxed; all arguments are required for the same reason. Steady-state
    calls allocate nothing: fills allocate only on cache misses, spans
    only on traced packets, exactly when the interpreter does. The
    arrays are not bounds-checked; {!Exec.run_batch} checks them. After
    the call, {!drop_observed} tells whether a table action dropped the
    packet during this walk (the interpreter's drop-accounting event). *)

val drop_observed : t -> bool
(** Whether the last {!run} halted on an in-walk drop. Distinct from
    {!Packet.is_dropped}, which is also true for packets that arrived
    already dropped — the interpreter only counts the former. *)

val num_ops : t -> int

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
