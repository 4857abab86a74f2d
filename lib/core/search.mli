(** The best-optimization search (§4.2, Appendix A.1): local candidate
    enumeration per hot pipelet, then a global group-knapsack pick under
    the memory / update-rate budgets. *)

type pipelet_candidates = {
  hot : Hotspot.hot;
  evaluated : Candidate.evaluated list;  (** positive-gain candidates *)
}

type plan = {
  choices : (Hotspot.hot * Candidate.evaluated) list;
  group_choices : Group.evaluated list;
  predicted_gain : float;
  candidates_examined : int;
  solver_stats : Knapsack.stats option;
      (** knapsack pruning / DP-work stats; [None] for the greedy path *)
}

type eval_cache
(** Warm-start cache mapping a pipelet signature (see
    {!Runtime.Incremental.pipelet_signature}) to its evaluated candidate
    list. Owned by a long-lived controller — or shared by a whole fleet
    of controllers running the same program ([lib/fleet]), so one NIC's
    search warm-starts its peers — and passed into successive
    optimization rounds; unchanged-profile pipelets skip re-enumeration.
    Domain-safe: every probe/store/stat takes an internal mutex, so
    concurrent controllers on different domains may share one cache.
    Because evaluation is pure and keys determine evaluations (the
    signature contract), a shared cache returns gain-identical plans to
    per-controller private caches. Bounded; resets wholesale when
    full. *)

val create_cache : unit -> eval_cache

val cache_stats : eval_cache -> int * int
(** [(hits, misses)] accumulated over the cache's lifetime. *)

type exclusion = string * Candidate.seg_kind
(** Ban one transformation kind on one (original) table: any combination
    with a segment of that kind covering that table is discarded before
    evaluation. This is how the runtime's remediation reverses a bad
    optimization — a cold cache or a blown-up merge gets its kind
    blacklisted, and the next search round routes around it. *)

val local_optimize :
  ?opts:Candidate.options ->
  ?name_prefix:string ->
  ?cache:eval_cache ->
  ?signature:(Hotspot.hot -> P4ir.Table.t list -> string) ->
  ?exclusions:exclusion list ->
  Costmodel.Target.t ->
  Profile.t ->
  P4ir.Program.t ->
  Hotspot.hot list ->
  pipelet_candidates list
(** LocalOptimize: enumerate and analytically evaluate every valid
    combination for each pipelet. When both [cache] and [signature] are
    given, each pipelet's evaluated list is reused from the cache when
    its signature matches a previous round. [exclusions] filter the
    candidate set; the exclusions that touch a pipelet's tables are
    folded into its cache key, so a warm cache never replays evaluations
    computed under a different blacklist. *)

val global_optimize :
  ?use_greedy:bool ->
  budget:Costmodel.Resource.budget ->
  headroom_mem:int ->
  headroom_upd:float ->
  pipelet_candidates list ->
  plan
(** GlobalOptimize: group knapsack over the pipelets' candidate lists.
    [headroom_*] are the budget remainders after the current program's
    own consumption. [use_greedy] switches to the density heuristic
    (ablation). *)

val with_groups :
  ?opts:Candidate.options ->
  ?name_prefix:string ->
  Costmodel.Target.t ->
  Profile.t ->
  P4ir.Program.t ->
  candidates:Pipelet.t list ->
  chosen:plan ->
  plan
(** Cross-pipelet pass: detect groups among the candidate pipelets that
    the per-pipelet plan left untouched and add group caches when they
    beat the sum of the members' individual choices. *)
