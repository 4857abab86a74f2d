(** The fuzz loop: generate cases from a seed, run one of the
    differential oracles over each, shrink what fails, and write repro
    bundles. Everything is deterministic in (seed, budget, parameters) —
    two runs produce byte-identical summaries. *)

type mode =
  | Sim_diff  (** {!Refsim} session vs [Nicsim.Exec] on the raw program *)
  | Optim_equiv  (** original vs [Pipeleon.Optimizer]-rewritten program *)
  | Roundtrip  (** JSON + P4-lite serialization round trips *)
  | Chaos
      (** self-healing runtime under injected faults: a live
          {!Runtime.Controller} must keep forwarding bit-identical to
          {!Refsim} through failed deploys, corrupted
          updates, and skewed profiles ({!Chaos.check}) *)

val mode_to_string : mode -> string
val mode_of_string : string -> mode option
(** ["sim-diff"], ["optim-equiv"], ["serialize-roundtrip"], ["chaos"]. *)

val case_rng : seed:int -> int -> Stdx.Prng.t
(** The derived generator for case [i] of a run with [seed]: any single
    case regenerates without replaying the cases before it. *)

val check :
  ?autotune:bool ->
  ?mutate:Mutate.t ->
  ?telemetry:bool ->
  Costmodel.Target.t ->
  mode ->
  Shrink.case ->
  Oracle.divergence option
(** One case through the oracle for [mode]. [Optim_equiv] optimizes
    with {!Pipeleon.Optimizer.default_config} at [top_k = 1.0], so every
    pipelet is rewritten. [mutate] only affects
    [Optim_equiv], where it corrupts the optimized program first.
    [autotune] (default [false]) only affects [Optim_equiv]: each
    case's optimizer config is picked by a small
    {!Pipeleon.Tune.explore} over the case profile before the rewrite
    is proved, deterministically in the case.
    [telemetry] (default [false]) attaches an enabled {!Telemetry} sink
    to every executor under test, turning each differential check into an
    observe-only proof for the instrumentation. Packets always run
    through the compiled data path, so the chaos oracle also exercises
    recompilation across its deploys and rollbacks. *)

type finding = {
  case_index : int;
  divergence : Oracle.divergence;
  tables : int;  (** tables left after shrinking *)
  nodes : int;
  packets : int;  (** packets left after shrinking *)
  dir : string option;  (** repro bundle location, when written *)
}

type report = {
  mode : mode;
  seed : int;
  budget : int;
  packets_per_case : int;
  findings : finding list;
}

val run :
  ?params:Gen.params ->
  ?n_packets:int ->
  ?out_dir:string ->
  ?autotune:bool ->
  ?mutate:Mutate.t ->
  ?telemetry:bool ->
  ?target:Costmodel.Target.t ->
  mode ->
  seed:int ->
  budget:int ->
  report
(** [budget] generated cases from [seed] (each case gets its own derived
    generator, so any single case replays without the rest). Divergent
    cases are shrunk and, when [out_dir] is given, written to
    [out_dir/case_<i>/]. [target] defaults to BlueField-2. *)

val summary : report -> string
(** Deterministic multi-line summary (no timing, no absolute paths
    beyond [out_dir] as given). *)

val replay :
  ?autotune:bool ->
  ?mutate:Mutate.t ->
  ?telemetry:bool ->
  ?target:Costmodel.Target.t ->
  mode ->
  dir:string ->
  Oracle.divergence option
(** Re-run one persisted repro bundle. *)
