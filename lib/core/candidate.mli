(** Per-pipelet optimization candidates: enumeration, realization into
    concrete rewrite plans, and cost-model evaluation (§4.2 local search).

    A combination is a table order plus a set of disjoint segments, each
    cached or merged. For a two-table pipelet this yields exactly the
    paper's candidate set: caches [TA], [TB], [TA][TB], [TA,TB], the
    merge [TA,TB], and both orders — with merge and cache never applied
    to the same table. *)

type seg_kind = Cache_seg | Merge_ternary_seg | Merge_fallback_seg

type seg = { pos : int; len : int; kind : seg_kind }
(** Positions index the reordered table list. *)

type combo = { order : int list; segs : seg list }

type options = {
  max_merge_len : int;  (** the paper caps merges (2 by default, §5.2.2) *)
  max_cache_len : int;
  max_combos : int;  (** safety valve on the candidate count *)
  cache_capacity : int;
}

val default_options : options
(** Merges up to 2 tables, caches up to 4, at most 4096 combinations,
    4096-entry caches. Orders are enumerated in full up to 5 tables
    ({!Reorder.candidate_orders}), and every cache fills at most 1000
    entries/sec. *)

type evaluated = {
  combo : combo;
  gain : float;  (** expected latency saved, weighted by reach probability *)
  latency_before : float;
  latency_after : float;
  mem_delta : int;  (** additional memory in bytes (may be negative) *)
  update_delta : float;  (** additional entry updates/sec *)
}

val enumerate : ?opts:options -> Profile.t -> P4ir.Table.t list -> combo list
(** All candidate combinations for the pipelet's table list, including
    reorder-only combos; excludes the identity no-op. *)

val realize :
  ?opts:options ->
  name_prefix:string ->
  P4ir.Table.t list ->
  combo ->
  Transform.element list option
(** Build the concrete tables; [None] when a segment is not cacheable /
    mergeable or a construction guard trips. *)

type ctx
(** Per-pipelet evaluation context: memoized per-table costs, match [m],
    memory, and drop probabilities, so evaluating one combination is
    O(pipelet length) regardless of entry counts. *)

val context :
  ?opts:options ->
  Costmodel.Target.t ->
  Profile.t ->
  reach_prob:float ->
  P4ir.Table.t list ->
  ctx

val evaluate_analytic : ctx -> combo -> evaluated option
(** Closed-form cost-model evaluation of a combination — no tables are
    materialized, so the local search stays fast regardless of entry
    counts (merged cross products are *estimated*, as in §3.2.3). [None]
    when the combination is invalid (dependency violations, unmergeable
    or uncacheable segments). This is what the search uses; the chosen
    combination is realized afterwards. *)

val evaluate :
  Costmodel.Target.t ->
  Profile.t ->
  reach_prob:float ->
  originals:P4ir.Table.t list ->
  combo ->
  Transform.element list ->
  evaluated
(** Reference evaluation of a *realized* element list, by running the
    cost model over the actual before/after mini-programs. Used by tests
    to cross-check {!evaluate_analytic} and by ablations. *)

val best_of : evaluated list -> evaluated option
(** Highest positive gain, if any. *)
