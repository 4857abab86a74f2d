(** Issue-driven remediation policy (§3.2): turn {!Monitor.issue}s into
    concrete reversals of the offending transformation, remember the
    reversal long enough for the traffic shift to pass (TTL blacklist of
    {!Pipeleon.Search.exclusion}s), and pace deploy retries with
    deterministic exponential backoff.

    The module is pure policy — it decides {e what} to do; the
    {!Controller} owns doing it. That split keeps every decision unit-
    testable without a simulator. *)

type action =
  | Evict_cache of { cache : string; originals : string list }
      (** a flow cache underperforms its planning estimate: drop it and
          blacklist caching over the tables it covered *)
  | Split_merge of { merged : string; originals : string list }
      (** a merged table blew past the entry limit (or is being stormed
          with updates): un-merge and blacklist merging those tables *)
  | Shed of { table : string }
      (** an original table is under an update storm: ban every
          transformation over it and skip optimization work this round
          (re-searching mid-storm just burns control-plane cycles) *)

val plan : deployed:P4ir.Program.t -> Monitor.issue list -> action list
(** Map monitor issues onto actions by resolving each flagged table's
    role in the deployed layout. Issues whose table no longer exists in
    [deployed] (a concurrent redeploy already removed it) are dropped.
    Order follows the input issues; duplicates are not collapsed. *)

val exclusions_of_action : action -> Pipeleon.Search.exclusion list
(** The per-original-table transformation bans implementing an action:
    [Evict_cache] bans [Cache_seg] over each covered original,
    [Split_merge] bans both merge kinds, [Shed] bans all three. *)

val sheds : action list -> bool
(** Whether any action calls for shedding this round's search. *)

(** {1 Blacklist}

    Exclusions earned through remediation, each with a time-to-live in
    controller ticks: the ban must outlast the next couple of search
    rounds (or the reversed transformation is immediately re-selected)
    but not forever (traffic shifts; §3.2 wants re-optimization, not
    permanent pessimism). *)

type blacklist

val create_blacklist : unit -> blacklist

val ban : blacklist -> now:int -> ttl:int -> Pipeleon.Search.exclusion -> unit
(** Ban an exclusion until tick [now + ttl]. Re-banning an active entry
    extends it (the expiry becomes the later of the two). *)

val active : blacklist -> now:int -> Pipeleon.Search.exclusion list
(** Exclusions still in force at tick [now], pruning expired entries.
    Deterministic order (sorted by table name, then segment kind). *)

val banned : blacklist -> now:int -> Pipeleon.Search.exclusion -> bool

(** {1 Backoff} *)

val backoff : base:float -> cap:float -> failures:int -> float
(** Emulated seconds to wait before retry number [failures + 1]:
    [base * 2^(failures-1)], capped at [cap]. [0.] when [failures = 0]
    (nothing failed — no wait). Deterministic: same inputs, same
    schedule. *)
