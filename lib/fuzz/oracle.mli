(** Differential checks: replay a packet stream through two independent
    executions and report the first observable divergence. *)

type divergence = {
  packet_index : int;  (** -1 when not tied to a packet (e.g. textual
                           round-trip instability or a crash) *)
  reason : string;
}

val supported : P4ir.Program.t -> bool
(** [sim_diff] and [roundtrip] require every table to be [Regular]:
    they check generated programs against {!Refsim}; programs already
    rewritten by Pipeleon (caches, merges, migration metadata) are
    compared engine-vs-engine ({!optim_equiv}) instead. *)

val exec_obs : Nicsim.Exec.t -> Gen.flow -> Refsim.obs
(** One packet through a live executor — a one-lane burst through the
    data path at its next sequence number — observed the way {!Refsim}
    reports (final fields, drop flag, egress, action trace) so the two
    sides compare with {!Refsim.diff_obs}. The executor is stateful —
    caches fill, counters advance — which is the point: it is the
    system under test. Used by the oracles here and by {!Chaos}, which
    needs the observation against a controller-owned simulator. *)

val sim_diff :
  ?telemetry:bool ->
  Costmodel.Target.t ->
  P4ir.Program.t ->
  Gen.flow list ->
  divergence option
(** {!Refsim} vs {!Nicsim.Exec} on the same program, comparing final
    field state, drop flag, egress, the per-packet action trace, and
    the latency bits of a {!Refsim.session} under the executor's own
    target, sampling and placement.
    With [telemetry] (default [false]) the executor under test carries
    an enabled {!Telemetry} sink with trace sampling, so the comparison
    also proves the instrumentation is observe-only.
    @raise Invalid_argument if not {!supported}. *)

val optim_equiv :
  ?config:Pipeleon.Optimizer.config ->
  ?mutate:(P4ir.Program.t -> P4ir.Program.t option) ->
  ?telemetry:bool ->
  Costmodel.Target.t ->
  Profile.t ->
  P4ir.Program.t ->
  Gen.flow list ->
  divergence option
(** Run {!Pipeleon.Optimizer.optimize}, then force a ternary merge on
    the first legal adjacent pair of regular tables in each pipelet (the
    cost model never finds such merges profitable, so without forcing
    them {!Pipeleon.Merge.build_ternary} would go unfuzzed), and check
    the rewritten program against the original: the same packet stream
    through both on {!Nicsim.Exec}, comparing final observable state
    (traces differ across a rewrite and are not compared).
    [mutate] is applied to the rewritten program first (seeded-bug
    detection tests); if it returns [None] — the mutation found nothing
    to corrupt — the check passes vacuously. Optimizer exceptions are
    reported as divergences. *)

val roundtrip :
  ?telemetry:bool ->
  Costmodel.Target.t ->
  P4ir.Program.t ->
  Gen.flow list ->
  divergence option
(** Serialization oracle: JSON print/parse/print stability, P4-lite
    emit/parse/emit fixpoint, and behavioural equality of the reparsed
    program via {!sim_diff}-style comparison against the original. *)
