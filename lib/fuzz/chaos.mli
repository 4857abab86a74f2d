(** Chaos oracle: the self-healing runtime under injected faults.

    One case drives a live {!Runtime.Controller} — fault injection
    enabled ({!Runtime.Faults}) — through several control-loop rounds:
    every round replays the case's packet stream through the deployed
    data plane and compares each packet, field for field, against
    {!Refsim} running the controller's original program; then churns
    entries through the control-plane API (which may be dropped or
    corrupted in flight) and ticks the controller (whose deploys may
    fail and roll back, and whose profile is skewed).

    The property checked is the paper's §3.2 requirement end-to-end:
    whatever the injector does, the controller must converge back to a
    healthy layout with forwarding bit-identical to {!Refsim}
    throughout — after every round and after the final
    tick. Deterministic: the fault seed, churn, and deploy mode derive
    from the case contents, so a shrunk case replays identically. *)

val rounds : int
(** Control-loop rounds per case (packet replay + churn + tick). *)

val case_salt : Gen.case -> int
(** The case-derived salt seeding everything stochastic in a chaos run
    (fault seed, churn, deploy mode) — shared with {!Fleet_oracle} so a
    fleet run and its solo twins draw identical streams. *)

val against_original :
  label:string -> Runtime.Controller.t -> Gen.flow list -> Oracle.divergence option
(** Replay the stream through the controller's live data path and
    compare each packet's observable state (not its trace: the deployed
    layout legitimately differs) with {!Refsim} running the controller's
    current original program, entries included; the reason of the first
    divergence is prefixed with [label]. The data path is stateful
    across the stream — flow caches fill — as the NIC is. *)

val controller_config : salt:int -> Runtime.Controller.config
(** The chaos controller configuration for a salt: fault injection from
    {!Runtime.Faults.chaos_defaults} seeded with the salt, exhaustive
    search, low hysteresis, salt-parity deploy mode, short blacklist. *)

val churn : Stdx.Prng.t -> fresh_tag:int -> Runtime.Controller.t -> unit
(** One round of control-plane churn through the (faulty) update path:
    recycle a random existing entry (delete + re-insert) and grow an
    all-exact table with a fresh high-valued tuple ([1_000_000 +
    fresh_tag]) no generated entry can collide with. Deterministic in
    the generator state, so two controllers churned with equal streams
    receive identical operations. *)

val check :
  ?telemetry:bool ->
  ?sink:Telemetry.t ->
  Costmodel.Target.t ->
  Gen.case ->
  Oracle.divergence option
(** Run one case; [Some d] when forwarding diverged from the reference
    (the reason is prefixed with the round it happened in) or the
    controller raised. With [telemetry] the simulator carries an enabled
    sink, so the runtime's remediation counters and rollback spans are
    exercised under fault load too. Every compare round runs the data
    path ({!Oracle.exec_obs}), so each tick's deploy — including
    fault-forced rollbacks — recompiles a pipeline that was already
    compiled for the previous layout. [sink]
    overrides the telemetry default with a caller-owned sink — shared
    across cases it aggregates the [runtime.remediations.*] counters,
    which is how [pipeleonc chaos] reports what the injector provoked
    and the controller repaired.
    @raise Invalid_argument if the program carries non-[Regular] tables
    (the original program is the reference; generated cases never
    do). *)
