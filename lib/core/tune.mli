(** Offline design-space exploration: a registry of tunable parameters
    and a multi-objective Pareto search over assignments.

    The optimizer picks among three fixed transformations, but the knobs
    that govern its layouts — cache sizes, merge depth, pipelet length,
    top-k fraction — were hard-coded across {!Candidate.options} and
    {!Optimizer.config}. This module makes them first-class: every knob
    registers a {!param} with a stable key, a finite domain, and a
    default, and {!explore} sweeps assignments through the existing analytic
    evaluator, maintaining a Pareto front over expected latency / table
    memory / entry-update rate (the same three axes the global knapsack
    budgets, Eq. 5). Only knobs that move those objectives are
    registered: host-side execution choices such as the engines' lookup
    plans report the same modeled costs whatever they are, so a sweep
    could never tell them apart.

    Exploration is a search run once, before deployment
    ([pipeleonc tune]); its chosen assignment is set into the
    controller's optimizer config with {!apply_optimizer}. A sweep may
    be warm-started from a {!Search.eval_cache}: each assignment's
    candidate-affecting params are folded into the pipelet signature
    (the candidate salt), so the assignments of one sweep never replay
    each other's evaluations. *)

type value = Int of int | Float of float

type domain =
  | Ints of int list  (** candidate values, in sweep order *)
  | Floats of float list

type param = {
  key : string;  (** stable dotted key, e.g. ["optimizer.top_k"] *)
  doc : string;
  domain : domain;
  default : value;
}

val params : param list
(** The standard registry, in key order:
    - [candidate.cache_entries] — provisioned cache capacity
    - [candidate.max_merge_len] — merge segment cap (§5.2.2)
    - [optimizer.max_pipelet_len] — pipelet formation cap
    - [optimizer.top_k] — fraction of hot pipelets searched *)

type assignment
(** A total mapping from registered params to in-domain values.
    Structurally comparable: equal assignments have equal
    {!to_list}s. *)

val to_list : assignment -> (string * value) list
(** Key-sorted. *)

val get : assignment -> string -> value
(** @raise Invalid_argument on an unregistered key. *)

val get_int : assignment -> string -> int
val get_float : assignment -> string -> float
(** [get_float] also widens an [Int] value. *)

val set : assignment -> string -> value -> assignment
(** @raise Invalid_argument when the key is unregistered or the value is
    outside the param's domain. *)

val equal : assignment -> assignment -> bool

val apply_optimizer : assignment -> Optimizer.config -> Optimizer.config
(** Overlay every param of the assignment ([optimizer.*] and
    [candidate.*]) onto a config. *)

(** {1 Multi-objective search} *)

type objectives = {
  latency : float;  (** expected latency after the plan's predicted gain *)
  memory : int;  (** program memory plus the plan's memory deltas *)
  update_rate : float;  (** program update rate plus the plan's deltas *)
}

type point = {
  assignment : assignment;
  objectives : objectives;
  within_budget : bool;  (** objectives fit the optimizer budget *)
  predicted_gain : float;
}

val dominates : objectives -> objectives -> bool
(** [dominates a b]: [a] is no worse on every axis and strictly better
    on at least one. *)

type explore_stats = {
  evaluated : int;  (** assignments evaluated *)
  front_size : int;
  cache_hits : int;  (** warm eval-cache hits across the sweep *)
  cache_misses : int;
  explore_seconds : float;
}
(** Mirrors {!Knapsack.stats} surfacing: how much work the sweep did. *)

type exploration = {
  front : point list;
      (** the evaluated points no other evaluated point {!dominates},
          deduplicated by assignment, in evaluation order *)
  chosen : point;
  start_point : point;
      (** the start assignment's own evaluation — the baseline
          {!field-chosen} improves on *)
  stats : explore_stats;
}

val explore :
  ?budget:int ->
  ?radius:int ->
  ?warm:Optimizer.warm ->
  ?config:Optimizer.config ->
  Costmodel.Target.t ->
  Profile.t ->
  P4ir.Program.t ->
  exploration
(** Deterministic bounded neighborhood sweep: starting from the start
    assignment (every param at its [default]), breadth-first over
    single-param moves of at most [radius] domain steps (default 1),
    evaluating at most [budget] assignments (default 32) and never
    re-evaluating an assignment. Each assignment is evaluated plan-only
    — the per-pipelet search and global knapsack run, but no tables are
    realized — so a sweep costs a few optimizer searches, warm-started
    from [warm]. Warm-cache signatures are salted with the assignment's
    [candidate.*] values, so evaluations computed under different
    candidate options never collide, while assignments that differ only
    in [optimizer.*] params share them. Group caching is disabled during
    evaluation (plan-only sweep).

    The chosen point is the minimum-latency within-budget point
    (falling back to all points when none fit), ties broken by memory,
    then update rate, then the key=value rendering of the assignment
    (the one {!describe} prints). A singleton search space
    (all-singleton domains, [radius = 0], or [budget = 1]) returns the
    start assignment as the single front point, bit-identically. *)

val describe : exploration -> string
(** Human-readable front dump: one line per front point (chosen point
    starred), then the sweep stats. *)
