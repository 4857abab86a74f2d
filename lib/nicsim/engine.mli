(** Runtime state of one match/action table inside the simulator.

    Exact, LPM and ternary tables are one hash table per distinct shape
    (prefix length / mask) — exactly the implementation the paper's cost
    model assumes (§3.1: "LPM and ternary match are usually implemented
    using multiple hash tables"); an exact table is the case of one
    shape, so one memory access per lookup. Each shape's table is an
    open-addressed index that inserts and deletes update in place. Range
    tables are a linear scan. Lookups report how many memory accesses
    they performed so the executor can charge latency. Cache-role tables
    are flow caches (§3.2.2): an open-addressed exact store with LRU
    eviction at [capacity] and a token-bucket insertion limit. *)

type t

val create : P4ir.Table.t -> t
(** Engine initialized with the table's static entries. *)

val def : t -> P4ir.Table.t
(** The table definition this engine was built from. *)

val probe : t -> Packet.t -> P4ir.Table.entry option
(** The compiled data path's lookup, one call for every backend: the
    match result, with the modeled access count left in
    {!last_accesses} instead of a result tuple. A hit returns a
    preallocated [Some entry] (the same physical entry
    {!lookup_linear} returns), so a steady-state probe allocates nothing:
    - exact tables probe their one shape group (one access);
    - flow caches probe their own index and move the hit to the front
      of the recency list (one access);
    - range tables scan their entries pre-sorted in
      {!P4ir.Table.lookup}'s winner order (priority, then specificity,
      then insertion order), so the first match wins ([max 1 n]
      accesses);
    - LPM tables probe their prefix-length groups longest first and
      stop at the first hit (one access per group probed, every group
      on a miss);
    - ternary tables probe every mask group, skipping the hash probe of
      a group whose highest priority cannot beat the current best (one
      access per group, skipped or not).

    Every index and scan reads live table state. A shape group's index
    is updated in place by {!insert} and {!delete} (a delete shifts the
    rest of its probe run back, so it leaves no tombstone); the range
    scan is marked stale by an edit and rebuilt by the next probe. *)

val last_accesses : t -> int
(** Modeled memory accesses of the most recent {!probe} or
    {!lookup_linear}.
    Meaningful immediately after the call. *)

val lookup_linear : t -> Packet.t -> P4ir.Table.entry option * int
(** The reference lookup {!probe} is tested against: match result plus
    modeled accesses, with none of {!probe}'s shortcuts. Range tables go
    through {!P4ir.Table.lookup}; exact, LPM and ternary tables through
    the unskipped probe of every shape group (longest prefix first for
    LPM; one access per group probed, every group on a miss or for
    ternary), which for an exact table is {!probe} itself; flow caches
    answer as {!probe}, recency update included. *)

val insert : t -> P4ir.Table.entry -> unit
(** Control-plane insert; bumps the update counter.
    @raise Invalid_argument if the entry does not fit the table. *)

val delete : t -> patterns:P4ir.Pattern.t list -> bool
(** Control-plane delete by exact pattern list; true if something was
    removed, and then bumps the update counter. An exact, LPM or ternary
    table goes straight to the slot the patterns hash to in the group of
    their shape; a group it empties stays and is still charged.
    @raise Invalid_argument, naming the table, if the list's length is
    not the table's key count. *)

val replace_all : t -> P4ir.Table.entry list -> unit
(** Control-plane bulk replace; counts as one update per entry. *)

val load_entries : t -> P4ir.Table.entry list -> unit
(** Like {!replace_all} but silent: used when state is carried over a
    live reconfiguration, which is not control-plane update traffic. *)

val entries : t -> P4ir.Table.entry list
(** Live entries. A flow cache lists them least recent first, so
    {!create} or {!load_entries} on the list rebuilds the same recency
    order (and evicts the same victims). *)

val num_entries : t -> int
(** Live entry count, kept exactly: O(1), no list built. *)

val copy : t -> t
(** Deep, independent copy: subsequent mutations (inserts, cache fills,
    LRU recency updates) on either side do not affect the other. The
    copy's update counter and token bucket match the original. *)

val take_update_count : t -> int
(** Read and reset the control-plane update counter (one profiling
    window). *)

val cache_fill :
  t -> now:float -> P4ir.Table.entry -> [ `Inserted | `Rate_limited | `Full_replace ]
(** Data-plane cache fill (only meaningful for cache-role tables): subject
    to the [insert_limit] token bucket; LRU eviction on overflow
    ([`Full_replace] reports that an eviction happened; refilling a
    cached key replaces its entry, moves it to the front and reports
    [`Inserted]).
    @raise Invalid_argument on a non-cache table. *)

val cache_counts : t -> int * int * int
(** [(fills, evictions, rate_limited)] of {!cache_fill} since {!create}
    (a {!copy} carries them): fills admitted (refreshes of a cached key
    included), evictions they caused, fills the token bucket refused.
    All zero for a non-cache table. *)

val invalidate : t -> unit
(** Drop every entry (a cache's entry-update invalidation), back to the
    initial small store. *)
