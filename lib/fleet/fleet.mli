(** Fleet-scale control plane: many {!Runtime.Controller}s — one per
    emulated SmartNIC — run as one deployment.

    The paper's runtime loop (Fig. 3) manages a single NIC; an operator
    runs racks of them, usually on the same program. This module
    orchestrates [n] controllers with three cross-NIC couplings:

    - a {b shared warm-start cache}: every member hands the same
      (mutex-guarded) {!Pipeleon.Search.eval_cache} to its optimizer, so
      one NIC's candidate evaluation warm-starts its peers. By the
      signature contract the sharing is gain-transparent — plans are
      identical to what private caches would produce — it only saves
      search time;
    - {b remediation gossip}: when one member's monitor reverses a bad
      transformation, the exclusions propagate to every peer's TTL
      blacklist ({!Runtime.Controller.adopt_exclusions}), so the fleet
      routes around a misbehaving transformation after one NIC has paid
      for the lesson;
    - {b telemetry rollup}: per-member sinks merge into one fleet
      registry, with optional [fleet.nic<i>.]-prefixed per-NIC views.

    Everything is deterministic: per-member fault seeds and traffic
    streams derive from [(spec.seed, index)] via {!Stdx.Prng.fork}, the
    tick scheduler produces identical reports for any domain count, and
    gossip applies after the tick barrier in member order. *)

type spec = {
  nics : int;  (** fleet size, >= 1 *)
  seed : int;
      (** root seed; member [i]'s fault seed and traffic stream derive
          from [(seed, i)] *)
  controller : Runtime.Controller.config;
      (** shared by all members, except that enabled faults get a
          per-member derived [seed] ({!member_config}) *)
  share_cache : bool;  (** one warm-start cache for the whole fleet *)
  gossip : bool;  (** propagate remediation exclusions to peers *)
  telemetry : bool;  (** enabled per-member sinks (else {!Telemetry.null}) *)
  common_traffic : bool;
      (** all members replay member 0's flow stream — identical profiles
          and signatures, so the shared cache actually hits (the
          rack-of-identical-NICs scenario); without it each member draws
          its own flows (skewed-profile scenario) *)
  flows_per_nic : int;
  zipf_s : float;  (** flow popularity skew for the generated traffic *)
}

val default_spec : spec
(** 4 NICs, seed 1, {!Runtime.Controller.default_config}, sharing +
    gossip + telemetry on, per-member traffic, 64 flows, Zipf 1.2. *)

val member_config : spec -> int -> Runtime.Controller.config
(** The exact controller configuration member [i] runs — pure in
    [(spec, i)], so a solo twin of any member can be built without the
    fleet (the fuzz fleet oracle does exactly this). *)

type t
type member

val create : ?spec:spec -> Costmodel.Target.t -> P4ir.Program.t -> t
(** A fleet of [spec.nics] simulators all initially running [program],
    each under its own controller.
    @raise Invalid_argument if [spec.nics < 1]. *)

val nics : t -> int
val members : t -> member list
val member : t -> int -> member
val controller : member -> Runtime.Controller.t

val shared_cache_stats : t -> (int * int) option
(** [(hits, misses)] of the fleet-shared warm cache; [None] when
    [share_cache] is off. *)

val run_window_all :
  ?duration:float -> ?packets:int -> t -> Nicsim.Sim.window_stats array
(** Run one traffic window on every member (in order, each against its
    own deterministic source). Defaults: 1.0 emulated seconds, 256
    sampled packets. *)

val advance_all : t -> float -> unit
(** Advance every member's emulated clock (idle time). *)

val tick_all : ?domains:int -> t -> Runtime.Controller.tick_report array
(** One control-loop tick on every member, sharded across [domains]
    OCaml domains (default 1) with a strided assignment. Reports land in
    member order and are bit-identical for any domain count: member
    state is domain-confined, the shared cache is mutex-guarded and
    value-deterministic (signature contract), and gossip — when enabled
    — runs after the join barrier in member order, adopting each
    member's remediation exclusions into every peer's blacklist.

    Only two telemetry families are scheduling-dependent and therefore
    exempt from the bit-identity claim: wall-clock timings
    ([*search_seconds*]) and warm-cache hit/miss accounting
    ([optimizer.cache.*], {!shared_cache_stats}) — which member races
    to evaluate a shared signature first varies with the schedule, but
    the evaluation it stores does not. *)

val rolling_redeploy : t -> Runtime.Controller.deploy_report array
(** Re-install each member's currently deployed layout through the
    verified deploy path, one member at a time in order. Under a
    [deploy_fail_burst] fault config this is the correlated-failure
    drill: every NIC's first attempts fail and every member must roll
    back to last-known-good and retry independently. *)

val rollup : ?per_nic:bool -> t -> Telemetry.Metrics.t
(** Merge every enabled member sink into a fresh fleet registry
    (counters add, histograms merge bucketwise — lossless and
    order-independent). With [per_nic] each member is additionally
    merged under a [fleet.nic<i>.] prefix, so per-NIC views survive
    alongside the fleet totals. *)

val report_digest : Runtime.Controller.tick_report -> string
(** A deterministic one-line rendering of a tick report, excluding
    wall-clock fields ([search_seconds]) — equal fleets give equal
    digests across runs and scheduler domain counts (emulated-clock
    downtime is included; it is deterministic). *)
