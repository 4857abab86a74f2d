module Counter = Counter
module Counter_map = Counter_map

(** Runtime profiles: how traffic interacts with a P4 program.

    A profile carries, per table, the probability of each action firing
    (the paper's [P(a)], from which drop rates and edge probabilities
    derive), the entry-update rate observed at the control plane, and a
    locality estimate (the cache hit rate a flow cache over the table
    would see). Per conditional it carries [P(true)]. *)

type table_stats = {
  action_probs : (string * float) list;
      (** probabilities over the table's actions; should sum to 1 *)
  update_rate : float;  (** entry updates per second *)
  locality : float;  (** expected flow-cache hit rate over this table *)
}

type cond_stats = { true_prob : float }

type t

val empty : t

val default_cache_hit : t -> float
val with_default_cache_hit : float -> t -> t
(** The default estimated hit rate used when computing a caching
    optimization before any observation exists (§3.2.2); 0.9 initially. *)

val set_table : string -> table_stats -> t -> t
val set_cond : string -> cond_stats -> t -> t
val table_stats : t -> string -> table_stats option
val cond_stats : t -> string -> cond_stats option

val action_prob : t -> table:P4ir.Table.t -> action:string -> float
(** Falls back to uniform over the table's actions when unprofiled. *)

val drop_prob : t -> P4ir.Table.t -> float
(** Probability that a packet reaching the table is dropped there. *)

val true_prob : t -> cond_name:string -> float
(** Falls back to 0.5 when unprofiled. *)

val update_rate : t -> table_name:string -> float
(** Falls back to 0 when unprofiled. *)

val locality : t -> table_name:string -> float option

val cache_hit_estimate : t -> table_names:string list -> float
(** Expected hit rate of one cache covering the given tables: the minimum
    locality over covered tables (a miss in any invalidates the joint
    entry), defaulting to {!default_cache_hit}. *)

val uniform : P4ir.Program.t -> t
(** Uniform action probabilities and 0.5 branch probabilities. *)

val of_counters :
  ?window:float -> P4ir.Program.t -> Counter.t -> t
(** Derive a profile from instrumentation counters collected over
    [window] seconds (default 1). Labels used: an action name per table
    counter; ["true"]/["false"] per branch; ["update"] for control-plane
    entry updates; ["cache_hit"]/["cache_miss"] kept as regular action
    counts on cache tables. Locality is filled in for tables covered by an
    auto-insert cache, from that cache's observed hit rate. *)

val pp : Format.formatter -> t -> unit
