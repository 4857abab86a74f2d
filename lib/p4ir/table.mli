(** Match/action tables: keys, actions, entries, and provenance.

    Tables created by Pipeleon transformations carry a {!role} so the
    runtime can map counters and entry-update APIs back to the original
    program (§2.3) and so monitors can reverse bad optimizations (§3.2). *)

type key = { field : Field.t; kind : Match_kind.t }

type entry = {
  patterns : Pattern.t list;  (** one per key, same order *)
  action : string;  (** name of an action of the table *)
  priority : int;
      (** higher wins among overlapping ternary/range entries. LPM
          matching is longest-prefix-first, as in P4: give LPM entries
          priority 0, or the reference {!lookup} (priority first) and the
          hash-table engines (prefix length first) can disagree. *)
}

type cache_meta = {
  cached_tables : string list;  (** original tables covered by this cache *)
  capacity : int;  (** max entries before LRU eviction *)
  insert_limit : float;  (** max insertions/sec on miss; 0 = no auto-insert *)
  auto_insert : bool;
      (** true for §3.2.2 flow caches; false for merge-fallback caches *)
}

type role =
  | Regular
  | Cache of cache_meta
  | Merged of string list  (** names of the original tables *)
  | Navigation  (** jump on [next_tab_id] when (re-)entering a core *)
  | Migration  (** records [next_tab_id] before switching cores *)

type t = {
  name : string;
  keys : key list;
  actions : Action.t list;
  default_action : string;  (** executed on miss *)
  entries : entry list;
  max_entries : int;  (** provisioned size, for the memory model *)
  role : role;
}

val make :
  ?entries:entry list ->
  ?max_entries:int ->
  ?role:role ->
  name:string ->
  keys:key list ->
  actions:Action.t list ->
  default_action:string ->
  unit ->
  t
(** @raise Invalid_argument if [default_action] or an entry's action is not
    among [actions], or an entry's patterns disagree with [keys]. *)

val key : Field.t -> Match_kind.t -> key
val find_action : t -> string -> Action.t option
val find_action_exn : t -> string -> Action.t

val entry : ?priority:int -> Pattern.t list -> string -> entry

val add_entry : t -> entry -> t
(** Functional insert (validates the entry against the table). *)

val num_entries : t -> int

val effective_kind : t -> Match_kind.t
(** The dominant kind for cost purposes: [Ternary] if any key is ternary,
    else [Range] if any range, else [Lpm] if any LPM, else [Exact]. *)

val distinct_lpm_lengths : t -> int
(** Number of distinct (non-trivial) prefix-length combinations across
    entries; the paper's [m] for LPM tables. At least 1. *)

val distinct_ternary_masks : t -> int
(** Number of distinct mask combinations across entries; [m] for ternary
    tables. At least 1. *)

val reads_of : t -> Field.t list
(** Key fields plus fields read by any action. *)

val writes_of : t -> Field.t list
(** Fields written by any action. *)

val lookup : t -> (Field.t -> Value.t) -> entry option
(** Reference (unoptimized) semantics: the highest-priority entry whose
    patterns all match, ties broken by specificity then entry order.
    [nicsim] implements the same semantics with faster engines. *)

val rename : string -> t -> t
val pp : Format.formatter -> t -> unit
