(** The Pipeleon runtime controller (Fig. 3): periodically collect the
    runtime profile, fold counters back onto the original program, search
    for a better layout, and redeploy when the predicted win clears a
    hysteresis threshold.

    The controller is the control plane: entry updates arrive here
    against *original* table names and are mapped onto whatever layout is
    currently deployed ({!Pipeleon.Api_map}).

    It is also self-healing. Deploys are verified; a failed deploy rolls
    the data plane back to the last-known-good layout (snapshotted with
    live entries just before the attempt) and is retried under
    deterministic exponential backoff. {!Monitor} issues are translated
    by {!Remediate} into transformation reversals — evict an
    underperforming cache, split a blown-up merge, shed search work
    under an update storm — enforced by re-running the optimizer with
    per-table {!Pipeleon.Search.exclusion}s that stay blacklisted for a
    configurable number of ticks. With {!Faults} enabled, injected
    entry-update faults are caught by read-back verification and
    repaired before any packet can observe them. *)

type deploy_mode =
  | Full  (** whole-program reload; pays [reconfig_downtime] *)
  | Incremental
      (** hot-patch only changed tables ({!Nicsim.Sim.hot_patch}); pays
          [reconfig_downtime x rebuilt/total] and keeps unchanged caches
          warm (§6 incremental deployment) *)

type config = {
  optimizer : Pipeleon.Optimizer.config;
  reconfig_downtime : float;
      (** emulated seconds of service loss per full redeploy (0 for live-
          reconfigurable NICs, >0 for reload-based ones like Agilio) *)
  min_relative_gain : float;
      (** redeploy only when predicted latency improves by this fraction *)
  deploy_mode : deploy_mode;
  thresholds : Monitor.thresholds;  (** health-check limits for {!tick} *)
  faults : Faults.config;
      (** fault injection ({!Faults.disabled} in production) *)
  deploy_retries : int;
      (** further install attempts after a failed deploy, within one
          {!deploy} call; each retry waits out the backoff first *)
  backoff_base : float;
      (** emulated seconds before the first retry; doubles per
          consecutive failure ({!Remediate.backoff}) *)
  backoff_cap : float;  (** backoff ceiling in emulated seconds *)
  blacklist_ttl : int;
      (** ticks a remediation exclusion stays in force; long enough that
          the reversed transformation is not immediately re-selected,
          short enough to retry after traffic shifts *)
}

val default_config : config
(** Live reconfiguration, 3% hysteresis, default optimizer settings and
    thresholds, faults disabled, 2 retries, 0.5 s backoff base capped at
    8 s, 5-tick blacklist. *)

type t

val create :
  ?config:config ->
  ?warm_cache:Pipeleon.Search.eval_cache ->
  Nicsim.Sim.t ->
  original:P4ir.Program.t ->
  t
(** The simulator must currently run [original] (or an optimized
    equivalent whose counter map folds back onto it). [warm_cache]
    substitutes a caller-owned evaluation cache for the controller's
    private one — a fleet ([lib/fleet]) hands the same (mutex-guarded)
    cache to every member so one NIC's search warm-starts its peers.
    Sharing is gain-transparent: by the signature contract, plans built
    from a shared cache are identical to plans built from private
    ones. *)

val sim : t -> Nicsim.Sim.t
val original_program : t -> P4ir.Program.t
(** With current entries (the control plane's source of truth). *)

val deployed_program : t -> P4ir.Program.t
val generation : t -> int
val faults : t -> Faults.t
val warm_cache : t -> Pipeleon.Search.eval_cache
(** The evaluation cache this controller warm-starts from — the one
    passed to {!create}, or its private cache. *)

val adopt_exclusions : t -> Pipeleon.Search.exclusion list -> unit
(** Remediation gossip: ban the given exclusions on this controller's
    blacklist for [config.blacklist_ttl] ticks from now, exactly as if
    its own monitor had raised them. A fleet propagates one NIC's
    remediations to its peers so they route the next search around a
    transformation that already misbehaved elsewhere. Adopting an
    exclusion that is already active only extends its TTL; fresh
    adoptions bump counter [runtime.gossip.adopted]. *)

val insert : t -> table:string -> P4ir.Table.entry -> unit
(** Insert against the original table name; translated onto the deployed
    layout. Under enabled {!Faults}, the translated operations may be
    dropped or corrupted in flight; read-back verification repairs the
    engines before returning (counter
    [runtime.remediations.update_repair]).
    @raise Invalid_argument for unknown tables. *)

val delete : t -> table:string -> P4ir.Table.entry -> unit

type deploy_report = {
  installed : bool;
      (** the new program is live; [false] means every attempt failed and
          the data plane is back on the pre-call layout *)
  generation : int;  (** after the call; unchanged when not installed *)
  attempts : int;  (** install attempts made (at least 1) *)
  rollbacks : int;  (** failed attempts rolled back to last-known-good *)
  downtime_seconds : float;
      (** total emulated service interruption charged: every install
          attempt (failed ones included) plus every rollback reload.
          Backoff waits are not downtime — the NIC serves the
          last-known-good layout while waiting *)
  tables_rebuilt : int;
      (** tables (re)built by the successful install: all of them for
          [Full], the changed subset for [Incremental]; 0 when not
          installed *)
  failure : string option;  (** last failure reason when not installed *)
}

val deploy : t -> P4ir.Program.t -> deploy_report
(** Deploy a specific layout through the verified path: snapshot the
    running program with its live entries, install, and on
    {!Nicsim.Sim.Deploy_failed} roll back to the snapshot and retry up
    to [deploy_retries] times, waiting out
    {!Remediate.backoff}[ ~failures] between attempts (the failure count
    persists across calls, so a persistently failing target backs off
    further each tick). With an enabled telemetry sink, rollbacks bump
    counter [runtime.remediations.rollback] and record a [rollback]
    span; retries bump [runtime.remediations.retry]; installs record a
    [deploy] span. *)

type tick_report = {
  reoptimized : bool;
  predicted_gain : float;
  issues : Monitor.issue list;
  remediations : Remediate.action list;
      (** what the controller decided to do about [issues] this tick *)
  profile : Profile.t;  (** the folded-back original-name profile *)
  search_seconds : float;
  deploy : deploy_report option;
      (** the outcome of this tick's redeploy, when one was attempted
          (its [downtime_seconds] is what [deploy_seconds] used to
          report) *)
}

val tick : t -> tick_report
(** One profiling + optimization round over the window since the last
    tick (or creation). The monitor sees the deployed layout's profile
    with each table's update rate taken from the control-plane ops
    attempted against it this window — a merged table absorbs its
    originals' updates, so storms surface where they land. Health
    issues ({!Monitor.check} under [config.thresholds]) are remediated: offending transformations are
    blacklisted for [blacklist_ttl] ticks and the search re-runs with
    those exclusions; a reversal deploys even below the hysteresis
    threshold; an update storm on a non-merged table sheds this round's
    search entirely. Redeploys go through {!deploy} (verified, rolled
    back and retried on failure). When the simulator carries an enabled
    telemetry sink, each tick also records counter [runtime.ticks],
    gauges [runtime.generation] / [runtime.predicted_gain] /
    [runtime.deploy_seconds], histogram [runtime.search_seconds],
    counter [runtime.redeploys], one counter per monitor issue kind
    ([runtime.issues.<kind>]), and one per remediation kind
    ([runtime.remediations.cache_evict] / [.merge_split] / [.shed]).

    The search always runs under [config.optimizer] and warm-starts:
    candidate evaluations carry across generations under
    {!Incremental.pipelet_signature} keys, so an unchanged pipelet skips
    re-enumeration (the returned plan is gain-identical). Tuning the
    optimizer's own parameters is an offline search
    ({!Pipeleon.Tune.explore}, [pipeleonc tune]); set its chosen
    assignment into [config.optimizer] with
    {!Pipeleon.Tune.apply_optimizer}. *)
