(** Fleet oracle: the couplings {!Fleet} adds across NICs — the shared
    warm-start cache and remediation gossip — must be invisible to
    forwarding.

    One case builds an [n]-member fleet over the case program (sharing
    and gossip on, chaos fault injection enabled per member) plus [n]
    {e solo twins}: independent controllers with the exact same
    per-member configuration ({!Fleet.member_config} is pure in
    [(spec, i)]) but private caches and no gossip. The case's packets
    are sharded round-robin across members, and every chaos round
    checks, for each member, that

    - the member forwards its shard bit-identically to {!Refsim} on its
      original program,
    - its solo twin does too, and
    - member and twin observations agree packet for packet —

    then churns member and twin with equal derived streams, advances
    both clocks, and ticks the fleet ({!Fleet.tick_all}) and the twins.
    Deterministic: everything derives from the case salt
    ({!Chaos.case_salt}), so a failing case replays identically. *)

val check :
  ?nics:int ->
  ?sink:Telemetry.t ->
  Costmodel.Target.t ->
  Gen.case ->
  Oracle.divergence option
(** Run one case over a [nics]-member fleet (default 4); [Some d] when
    any member's forwarding diverged from the reference or from its solo
    twin (the reason names the NIC and round), or anything raised.
    [sink] (enabled) accumulates the fleet's
    merged runtime counters across cases — remediations, rollbacks,
    [runtime.gossip.adopted] — which is how [pipeleonc fleet chaos]
    reports what the injector provoked.
    @raise Invalid_argument if the program carries non-[Regular] tables
    (generated cases never do). *)
