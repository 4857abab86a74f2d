(** Table caching (§3.2.2): replace a run of tables with a fast
    exact-match flow cache; misses fall through to the originals and
    install the observed result (LRU, insertion rate limited). *)

val cacheable : ?max_actions:int -> P4ir.Table.t list -> bool
(** A segment can be cached when its joint behaviour is a function of
    packet fields on entry (always true for our IR: every input a covered
    table reads is either live-in or written by an earlier covered table)
    and the fused-action space stays below [max_actions] (default
    {!max_fused_actions}; whole-program caches pass a larger bound). *)

val max_fused_actions : int
(** Bound on the number of fused action combinations (64). *)

val live_in_fields : P4ir.Table.t list -> P4ir.Field.t list
(** Fields that determine the segment's behaviour: everything read by a
    covered table before the segment itself writes it. These become the
    cache's exact-match key. *)

val num_sequences : P4ir.Table.t list -> int
(** The number of realizable per-table action sequences (a sequence
    stops at the first dropping action: later tables never execute),
    counted without materializing them. *)

val fused_actions_of :
  ?name_pairs_prefix:(string * string) list -> P4ir.Table.t list -> P4ir.Action.t list
(** One fused action per realizable sequence. [name_pairs_prefix] is
    prepended to the (table, action) pairs in each fused name — group
    caches use it to tag the branch outcome that selects the member. *)

val build :
  ?max_actions:int ->
  ?capacity:int ->
  ?insert_limit:float ->
  name:string ->
  P4ir.Table.t list ->
  P4ir.Table.t
(** The cache table for a covered segment: exact keys on the live-in
    fields, one fused action per realizable sequence, a ["miss"] default,
    [Cache] role with [auto_insert = true]. [capacity] defaults to 4096
    entries, [insert_limit] to 1000 fills/sec.
    @raise Invalid_argument if the segment is not {!cacheable}. *)
