(** Differential checks: replay a packet stream through two independent
    executions and report the first observable divergence. *)

type divergence = {
  packet_index : int;  (** -1 when not tied to a packet (e.g. textual
                           round-trip instability or a crash) *)
  reason : string;
}

val supported : P4ir.Program.t -> bool
(** [sim_diff] and [roundtrip] require every table to be [Regular]: the
    reference interpreter models neither flow-cache fills nor migration
    metadata, so programs already rewritten by Pipeleon are compared
    engine-vs-engine ([replay_diff]) instead. *)

type exec_driver = Interp | Compiled
(** Which execution path carries each packet of a differential check:
    the DAG interpreter ({!Nicsim.Exec.run_packet}) or a one-lane burst
    through the data path ({!Nicsim.Exec.run_batch}). Both claim
    bit-identical packet outcomes; fuzzing under each driver holds them
    to it against the reference interpreter. *)

val driver_to_string : exec_driver -> string
val driver_of_string : string -> exec_driver option
(** ["interp"], ["compiled"]. *)

val exec_obs : ?driver:exec_driver -> Nicsim.Exec.t -> Gen.flow -> Refsim.obs
(** One packet through a live executor, observed the way {!Refsim}
    reports (final fields, drop flag, egress, action trace) so the two
    sides compare with {!Refsim.diff_obs}. The executor is stateful —
    caches fill, counters advance — which is the point: it is the
    system under test. [driver] (default [Interp]) selects the execution
    path. Used by the oracles here and by {!Chaos}, which needs the
    observation against a controller-owned simulator. *)

val sim_diff :
  ?telemetry:bool ->
  ?driver:exec_driver ->
  Costmodel.Target.t ->
  P4ir.Program.t ->
  Gen.flow list ->
  divergence option
(** {!Refsim} vs {!Nicsim.Exec} on the same program, comparing final
    field state, drop flag, egress and the per-packet action trace.
    With [telemetry] (default [false]) the executor under test carries
    an enabled {!Telemetry} sink with trace sampling, so the comparison
    also proves the instrumentation is observe-only.
    @raise Invalid_argument if not {!supported}. *)

val replay_diff :
  ?telemetry:bool ->
  ?driver:exec_driver ->
  Costmodel.Target.t ->
  P4ir.Program.t ->
  P4ir.Program.t ->
  Gen.flow list ->
  divergence option
(** The same packet stream through two programs on {!Nicsim.Exec},
    comparing final observable state (traces necessarily differ across a
    rewrite and are reported, not compared). Both executions are
    stateful across the stream, so flow-cache warm-up behaves as it
    would on the NIC. *)

val optim_equiv :
  ?config:Pipeleon.Optimizer.config ->
  ?mutate:(P4ir.Program.t -> P4ir.Program.t option) ->
  ?telemetry:bool ->
  ?driver:exec_driver ->
  Costmodel.Target.t ->
  Profile.t ->
  P4ir.Program.t ->
  Gen.flow list ->
  divergence option
(** Run {!Pipeleon.Optimizer.optimize}, then force a ternary merge on
    the first legal adjacent pair of regular tables in each pipelet (the
    cost model never finds such merges profitable, so without forcing
    them {!Pipeleon.Merge.build_ternary} would go unfuzzed), and check
    the rewritten program against the original with {!replay_diff}.
    [mutate] is applied to the rewritten program first (seeded-bug
    detection tests); if it returns [None] — the mutation found nothing
    to corrupt — the check passes vacuously. Optimizer exceptions are
    reported as divergences. *)

val roundtrip :
  ?telemetry:bool ->
  ?driver:exec_driver ->
  Costmodel.Target.t ->
  P4ir.Program.t ->
  Gen.flow list ->
  divergence option
(** Serialization oracle: JSON print/parse/print stability, P4-lite
    emit/parse/emit fixpoint, and behavioural equality of the reparsed
    program via {!sim_diff}-style comparison against the original. *)
