(** Runtime state of one match/action table inside the simulator.

    Exact tables are hash tables (one memory access per lookup); LPM and
    ternary tables are implemented as one hash table per distinct prefix
    length / mask — exactly the implementation the paper's cost model
    assumes (§3.1: "LPM and ternary match are usually implemented using
    multiple hash tables"). Lookups report how many memory accesses they
    performed so the executor can charge latency. Cache-role tables use
    an LRU store with a token-bucket insertion limit (§3.2.2). *)

type t

type backend_hint = Auto | Force_linear | Force_learned | Force_tree
(** Override for the per-table plan selector (LPM/ternary backends
    only). [Auto] picks from the table alone at plan-build time: a
    single-key LPM table with at least four prefix lengths or
    {!learned_threshold} entries gets the learned-index plan, a
    multi-group ternary table with {!tree_threshold} entries the
    decision tree, everything else the straight probe. The forced hints
    exist so tests and benchmarks can run a plan below its threshold; a
    forced hint that does not apply to the table's shape (e.g.
    [Force_learned] on a ternary table) falls back to [Auto]'s choice.
    Whatever the plan, lookups report the modeled hardware access
    counts — the plan changes host execution speed, never forwarding or
    cost-model inputs. *)

val create : ?hint:backend_hint -> P4ir.Table.t -> t
(** Engine initialized with the table's static entries; [hint] defaults
    to [Auto]. *)

val def : t -> P4ir.Table.t
(** The table definition this engine was built from. *)

val lookup : t -> Packet.t -> P4ir.Table.entry option * int
(** Match result plus the number of memory accesses performed. A miss in
    a shaped table costs one access per probed hash table. Shaped tables
    are probed through a compiled plan chosen per table (see
    {!backend_hint}): learned-index LPM, a ternary decision tree, or the
    straight probe. Whatever the plan, the reported access count
    stays that of the modeled hardware — the longest-first linear probe
    for LPM, one probe per mask group for ternary — so the cost model is
    unaffected by host-side shortcuts. *)

val lookup_linear : t -> Packet.t -> P4ir.Table.entry option * int
(** {!lookup} with the compiled plan disabled: always the straight-line
    reference probe. Used by tests and the differential fuzzer to check
    the plan against the model it compiles. *)

val exact_probe : t -> (Packet.t -> P4ir.Table.entry option) option
(** [Some probe] iff this engine is an exact-hash store (every key
    [Exact], not cache-role). [probe pkt] returns exactly what {!lookup}
    would — the same physical entry objects, always one memory access —
    through an open-addressing index that allocates nothing per probe.
    The probe reads live table state: {!insert}, {!delete},
    {!replace_all}, {!load_entries} and {!invalidate} mark the index
    stale and the next probe rebuilds it, so a captured probe closure
    stays valid across control-plane updates. [None] for cache, shaped
    and linear backends, which must keep going through {!lookup}. *)

type exact_view = {
  ev_mask : int;  (** capacity - 1, capacity a power of two *)
  ev_hash : int array;  (** per-slot mixing hash *)
  ev_vals : int64 array array;  (** per-slot key values (singleton arrays) *)
  ev_ent : P4ir.Table.entry option array;  (** occupancy: [Some] iff filled *)
  ev_keyi : int array;
      (** Per-slot key as a tagged int: -1 marks an empty slot, -2 a slot
          whose key is not a nonnegative native int. A probe whose key is
          known nonnegative (burst-walk columns are masked to < 62 bits)
          can scan this single array — key equality implies hash
          equality, [-1] is the chain terminator, and [-2] can never
          equal such a key — and only touch [ev_ent] on a hit. *)
}
(** Read-only window onto the compiled single-key exact index, exposed so
    the burst walk ({!Compile.run_burst}) can hash a whole burst of keys
    and touch the open-addressing slots (a software prefetch) before
    probing, without a per-lane closure call. Slot occupancy is the entry
    option itself; probing follows the same linear chain as
    {!exact_probe}: start at [hash land ev_mask], a slot hits when its
    [ev_hash] matches and its single [ev_vals] value equals the key (or,
    for nonnegative int keys, when [ev_keyi] equals the key), advance by
    [(j + 1) land ev_mask], stop at the first [None]. The hash is the
    engine's single-key mixing hash — any consumer must reproduce it bit
    for bit (see the constants note on [hash_exact1] in the
    implementation). *)

val exact_view : t -> exact_view option
(** [Some view] iff this engine is a single-key exact-hash store (the
    same condition under which {!exact_probe}'s fast path applies, minus
    multi-key tables). Rebuilds the index if a control-plane mutation
    made it stale, so like the probe closures a fresh view per burst
    always sees live table state; the view is cached, so the
    steady-state call allocates nothing. [None] for multi-key exact,
    cache, shaped and linear backends. *)

val plan_probe : t -> (Packet.t -> P4ir.Table.entry option) option
(** [Some probe] iff this engine is a shaped (LPM/ternary) backend.
    [probe pkt] returns exactly what {!lookup} would — the same physical
    entries — through the table's compiled plan, leaving the modeled
    access count in {!last_accesses} instead of allocating a result
    tuple. The learned-index and decision-tree plans return preallocated
    entry options, so those probes allocate nothing. Like
    {!exact_probe}, the closure reads live state: any control-plane
    mutation marks the plan stale and the next
    probe rebuilds it. [None] for exact, cache and linear backends. *)

val last_accesses : t -> int
(** Modeled memory accesses of the most recent {!plan_probe} (or
    {!lookup}) on a shaped backend. Meaningful immediately after a
    probe; pairs with {!plan_probe} to keep the compiled walk free of
    result tuples. *)

val plan_kind : t -> string
(** Which backend the table is currently running, building the plan
    first if stale: ["exact-hash"], ["exact-lru"], ["linear"],
    ["learned"], ["tree"], ["lpm-linear"] or ["ternary-skip"]. For tests and diagnostics. *)

val plan_stats : t -> (string * int) list
(** Size counters of the current compiled plan (builds it if stale):
    segments/intervals/remainder for the learned plan,
    tree_nodes/tree_candidates/tree_max_leaf for the decision tree;
    [[]] otherwise. *)

val learned_threshold : int
(** Entry count at which [Auto] switches a single-key LPM table with
    fewer than four prefix lengths to the learned-index plan. *)

val tree_threshold : int
(** Entry count at which [Auto] switches a multi-group ternary table to
    the decision-tree plan. Degenerate mask sets are guarded against:
    if the built tree's worst leaf scan ([tree_max_leaf] in
    {!plan_stats}) is not competitive with the skip probe's per-group
    cost — masks sharing no bits exhaust the wildcard-duplication
    budget and leave giant leaves — [Auto] discards the tree and keeps
    the skip probe. [Force_tree] bypasses the guard. *)

val insert : t -> P4ir.Table.entry -> unit
(** Control-plane insert; bumps the update counter.
    @raise Invalid_argument if the entry does not fit the table. *)

val delete : t -> patterns:P4ir.Pattern.t list -> bool
(** Control-plane delete by exact pattern list; true if something was
    removed. Bumps the update counter. *)

val replace_all : t -> P4ir.Table.entry list -> unit
(** Control-plane bulk replace; counts as one update per entry. *)

val load_entries : t -> P4ir.Table.entry list -> unit
(** Like {!replace_all} but silent: used when state is carried over a
    live reconfiguration, which is not control-plane update traffic. *)

val entries : t -> P4ir.Table.entry list
val num_entries : t -> int

val shape_groups : t -> int
(** Number of live hash-table groups in a shaped (LPM/ternary) backend;
    0 for exact, cache and linear backends. Deleting the last entry of a
    group does not drop the group — the modeled hardware still probes it. *)

val copy : t -> t
(** Deep, independent copy: subsequent mutations (inserts, cache fills,
    LRU recency updates) on either side do not affect the other. The
    copy's update counter and token bucket match the original. *)

val update_count : t -> int
(** Control-plane updates since the last {!take_update_count}. *)

val take_update_count : t -> int
(** Read and reset the update counter (one profiling window). *)

val cache_fill :
  t -> now:float -> P4ir.Table.entry -> [ `Inserted | `Rate_limited | `Full_replace ]
(** Data-plane cache fill (only meaningful for cache-role tables): subject
    to the [insert_limit] token bucket; LRU eviction on overflow
    ([`Full_replace] reports that an eviction happened).
    @raise Invalid_argument on a non-cache table. *)

val invalidate : t -> unit
(** Drop all dynamic entries of a cache (entry-update invalidation). *)
