(** The Pipeleon optimizer driver: pipelet formation, hot detection,
    local + global search, and program rewriting (Fig. 3 workflow). *)

type config = {
  top_k : float;  (** fraction of pipelets optimized; 1.0 = ESearch *)
  budget : Costmodel.Resource.budget;
  candidate_opts : Candidate.options;
  max_pipelet_len : int;
  enable_groups : bool;  (** cross-pipelet group caching (§5.4.4) *)
  use_greedy_global : bool;  (** ablation: greedy instead of knapsack *)
}

val default_config : config
(** top 20%, default budget, groups on, knapsack global search. *)

type warm = {
  warm_cache : Search.eval_cache;
  warm_signature : Profile.t -> Hotspot.hot -> P4ir.Table.t list -> string;
}
(** Warm-start state for successive generations: a persistent evaluation
    cache plus the signature keying it (normally
    [Runtime.Incremental.pipelet_signature]). *)

type result = {
  program : P4ir.Program.t;  (** the rewritten program *)
  plan : Search.plan;
  pipelets_total : int;
  pipelets_considered : int;
  cache_hits : int;
      (** warm-start evaluation-cache hits during this round (0 without
          [warm]) *)
  cache_misses : int;
  search_seconds : float;
      (** CPU time of the optimization search itself (the paper's Fig. 13
          "computation time") *)
  elapsed_seconds : float;  (** search plus plan realization/rewriting *)
}

val optimize :
  ?config:config ->
  ?generation:int ->
  ?warm:warm ->
  ?exclusions:Search.exclusion list ->
  ?telemetry:Telemetry.t ->
  Costmodel.Target.t ->
  Profile.t ->
  P4ir.Program.t ->
  result
(** One optimization round. [generation] disambiguates generated table
    names across successive runtime rounds. [warm] lets a long-lived
    controller reuse candidate evaluations for pipelets whose signature
    (tables + bucketed profile) is unchanged since a previous round.
    [exclusions] blacklist transformation kinds per original table
    ({!Search.exclusion}) — the runtime controller's remediation path
    uses them to reverse underperforming caches and blown-up merges; they
    compose with [warm] because the exclusions relevant to a pipelet are
    part of its cache key. The input program should carry current table
    entries (see {!Nicsim.Exec.sync_entries_to_ir}) so match-kind [m]
    values and resource accounting are current.

    With an enabled [telemetry] sink, each round records counters
    [optimizer.runs] / [optimizer.candidates_examined] /
    [optimizer.cache.hit] / [optimizer.cache.miss] /
    [optimizer.knapsack.options_before] / [.options_after] /
    [.dp_cells], gauge [optimizer.predicted_gain], and histogram
    [optimizer.search_seconds]. *)

val describe : result -> string
(** Human-readable plan summary (one line per choice), plus knapsack
    solver stats and — when a warm cache was in play — its hit rate. *)
