(** Seeded, deterministic fault injection for the runtime control loop.

    §3.2's "optimization considerations" demand corrective action when a
    deployed optimization misbehaves — but nothing can be proven about
    recovery unless failures can be *made to happen*. This injector
    produces the three failure families the controller must survive:

    - {b deploy failures}: a reconfiguration comes up and fails
      verification ({!Nicsim.Sim.Deploy_failed}); the controller must
      roll back to its last-known-good layout and retry with backoff;
    - {b entry-update faults}: a control-plane insert/delete/rebuild is
      silently dropped, or lands corrupted (wrong action); the
      controller's read-back verification must repair the engine;
    - {b profile skew}: instrumentation counters are multiplied by a
      stable per-table factor, feeding the optimizer a distorted profile;
      the monitors must catch the resulting bad layout and remediation
      must reverse it.

    Everything is a pure function of the seed (plus, for per-table skew,
    the table name), so a chaos run replays bit-for-bit. Disabled by
    default: with {!disabled} the controller behaves exactly as before
    and pays nothing. *)

type config = {
  enabled : bool;
  seed : int;
  deploy_fail_burst : int;
      (** the first [n] deploy attempts fail deterministically — the
          "persistent failure" scenario (rollback must hold the fort) *)
  deploy_fail_prob : float;
      (** later attempts fail with this probability — the "transient
          failure" scenario (retry + backoff must converge) *)
  update_drop_prob : float;  (** an entry-update op silently vanishes *)
  update_corrupt_prob : float;
      (** an insert/rebuild lands with a wrong action (or one entry
          short); detectable by read-back *)
  profile_skew : float;
      (** max multiplicative distortion of folded profile counters: each
          table gets a stable factor in [1-skew, 1+skew] *)
}

val disabled : config
(** All probabilities zero, [enabled = false]: the production default. *)

val chaos_defaults : config
(** The chaos fuzzer's baseline: enabled, moderate probabilities on
    every family ([seed] still 0 — set it per case). *)

type t

val create : config -> t
val config : t -> config
val enabled : t -> bool

val deploy_attempt : t -> string option
(** Ask whether the next deploy fails; [Some reason] on injected
    failure. Consumes PRNG state (deterministic in call order). *)

type update_fate = Apply | Drop | Corrupt

val update_fate : t -> update_fate
(** Fate of the next entry-update operation. *)

val corrupt_entry : t -> P4ir.Table.t -> P4ir.Table.entry -> P4ir.Table.entry option
(** A corrupted-but-well-formed variant of the entry (another action of
    the same table), or [None] when the table offers no way to corrupt it
    (single-action tables) — callers treat that as a drop. *)

val skew_count : t -> owner:string -> int64 -> int64
(** Distort a counter value by the owner's stable skew factor. Identity
    when [profile_skew = 0]. Pure in (seed, owner, value) — the same
    table sees the same distortion every window, like a miscalibrated
    counter would. *)
