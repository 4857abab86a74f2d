(** Independent reference executor — the oracle the data path is
    tested against.

    Implements the P4-lite execution semantics (docs/P4LITE.md) directly:
    naive list-scan table lookup (highest priority, then most specific,
    then first in entry order), straightforward primitive application,
    and DAG traversal, over its own packet state. A {!session} adds live
    tables and the paper's closed-form cost model (§3.1), computed from
    {!Costmodel.Target} parameters and a placement alone. It deliberately
    shares no code with [Nicsim] (executor, compiled walk, engines) or
    {!P4ir.Table.lookup}, so a bug in the data path cannot hide in the
    oracle too. *)

type obs = {
  fields : (P4ir.Field.t * P4ir.Value.t) list;
      (** final value of every field in {!observed_fields}, same order *)
  dropped : bool;
  egress : int option;
  trace : (string * string) list;
      (** (table, action fired) or (conditional, ["true"]/["false"]) per
          node traversed, in execution order *)
}

val observed_fields : P4ir.Field.t list
(** The fields compared between executions: every standard header field
    except [Next_tab_id] (private to heterogeneous migration), plus
    metadata slots 0-15. *)

val run : P4ir.Program.t -> (P4ir.Field.t * P4ir.Value.t) list -> obs
(** Execute one packet, given as field assignments over the standard
    packet defaults (zero except [eth_type]=0x0800, [ipv4_ttl]=64,
    [ipv4_proto]=6, [ipv4_len]=512 — mirroring {!Nicsim.Packet.create}).
    @raise Failure on a cycle (more node visits than nodes). *)

val equal_obs : ?compare_trace:bool -> obs -> obs -> bool

val diff_obs : ?compare_trace:bool -> obs -> obs -> string option
(** First observable difference, rendered for a divergence report. A
    packet dropped by both executions compares equal whatever its field
    state: dropped packets never leave the NIC, so transforms may
    legitimately drop earlier (e.g. reordering a dropping table forward)
    with different intermediate header contents. *)

(** {1 Sessions: live tables, latency, counters and flow caches} *)

type config = {
  target : Costmodel.Target.t;
  instrumented : bool;  (** profile counters on sampled packets *)
  sample_rate : int;  (** packet [seq] is sampled iff [seq mod sample_rate = 0] *)
  placement : P4ir.Program.node_id -> Costmodel.Cost.core;
}

type step = {
  node : P4ir.Program.node_id;
  name : string;  (** table or conditional *)
  outcome : string;  (** action fired, or ["true"]/["false"] *)
  hit : bool option;  (** tables: whether an entry matched *)
  start : float;  (** latency accrued before the node, migration included *)
  dur : float;  (** the node's latency, its counter bump included *)
}

type packet = {
  obs : obs;
  latency : float;
  steps : step list;  (** in execution order *)
}

type cache_report = {
  lru : P4ir.Table.entry list;  (** live entries, least recent first *)
  fills : int;  (** installed fills, refreshes of a cached key included *)
  evictions : int;
  rate_limited : int;  (** fills refused by the token bucket *)
}

type report = {
  packets : int;
  drops : int;  (** packets a table action dropped *)
  counters : ((string * string) * int) list;
      (** nonzero (owner, label) profile counts, sorted *)
  tables : (string * (int * int)) list;  (** per table name: (hits, misses), sorted *)
  caches : (string * cache_report) list;  (** per flow-cache table, sorted *)
}

type session

val session : config -> P4ir.Program.t -> session
(** Live tables loaded with the program's static entries. A cache-role
    table with exact keys is a flow cache: an LRU list of at most
    [capacity] entries (static entries inserted in order), and a token
    bucket holding [insert_limit] fills that starts full and refills at
    [insert_limit] per second ([insert_limit <= 0]: unlimited). *)

val send : session -> seq:int -> now:float -> (P4ir.Field.t * P4ir.Value.t) list -> packet
(** Run one packet (given as for {!run}) as global packet [seq] at [now]
    seconds. Its latency adds, left to right: [l_fixed]; a
    [migration_latency] on entering a CPU-placed root and at each later
    change of core; per branch [l_cond x f], per table
    [accesses x l_mat x f] then [primitives x l_act x f] ([f] is
    [cpu_slowdown] on a CPU core, else 1); [counter_update_cost] after
    each node of a sampled packet; a last migration when a packet that
    was not dropped leaves from a CPU core. Accesses: 1 for exact keys
    and flow caches; [max 1 n] with a range key ([n] live entries); one
    per mask group for ternary; for LPM, the groups (one per set of
    prefix lengths, longest total first, a new one ahead of equal ones)
    up to the first holding a match, all of them ([max 1]) on a miss. A
    group emptied by {!delete} stays allocated and charged. A cache hit
    becomes most recent. A miss in an auto-insert cache starts a fill
    keyed on the packet's key values, to which the covered tables and
    branches the packet then runs (up to a drop) add their outcome; at
    the end of the packet the fused action, if the cache has it, goes
    through the token bucket and is installed as most recent, evicting
    the least recent entry beyond [capacity]. *)

val insert : session -> table:string -> P4ir.Table.entry -> unit
val delete : session -> table:string -> patterns:P4ir.Pattern.t list -> bool
(** Control-plane edits: [delete] removes every entry with exactly these
    patterns and tells whether there was one.
    @raise Invalid_argument on an unknown table. *)

val redeploy : session -> P4ir.Program.t -> int
(** Switch to a new program. A table keeps its live state (entries,
    groups, cache contents and bucket) iff one of the same name had the
    same keys, actions and role; the others start from their static
    entries. Counters carry over. Returns the number of tables started
    over. *)

val report : session -> report
