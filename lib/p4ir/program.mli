(** A P4 program as a directed acyclic graph of match/action tables and
    conditional branches (Fig. 4 of the paper).

    Nodes are identified by stable integer ids. Edges are implicit in each
    node's successor fields; [None] is the sink (end of processing).
    Switch-case tables are tables whose successor depends on the action
    that fired ([Per_action]). *)

type node_id = int
type next = node_id option

type cmp = Eq | Neq | Lt | Gt | Le | Ge

type cond = {
  cond_name : string;
  field : Field.t;
  op : cmp;
  arg : Value.t;
  on_true : next;
  on_false : next;
}

type table_next =
  | Uniform of next  (** same successor whatever action fired *)
  | Per_action of (string * next) list
      (** switch-case: successor per action name; every action of the table
          must be listed *)

type node = Table of Table.t * table_next | Cond of cond

type t

val empty : string -> t
val name : t -> string
val root : t -> next
val with_root : t -> next -> t

val add_node : t -> node -> t * node_id
(** Allocate a fresh id. The node may reference ids not yet added; run
    {!validate} once construction is complete. *)

val set_node : t -> node_id -> node -> t
(** Replace the node stored at an existing id. *)

val remove_node : t -> node_id -> t
(** Remove a node; the caller must have redirected incoming edges first. *)

val find : t -> node_id -> node option
val find_exn : t -> node_id -> node
val node_ids : t -> node_id list
val num_nodes : t -> int

val table_of : t -> node_id -> Table.t option
(** The table stored at [id], if the node is a table. *)

val find_table : t -> string -> (node_id * Table.t) option
(** Look a table up by name. *)

val tables : t -> (node_id * Table.t) list
(** All tables in topological order. *)

val conds : t -> (node_id * cond) list

val successors : t -> node_id -> next list
(** Deduplicated successor list (labels dropped). *)

val eval_cond : cond -> Value.t -> bool

val redirect : t -> old_target:node_id -> new_target:next -> t
(** Rewrite every edge (and the root) pointing at [old_target] to point at
    [new_target] instead. *)

val predecessors : t -> node_id -> node_id list

val topological_order : t -> node_id list
(** Every node before its successors. @raise Invalid_argument on a cycle. *)

val reachable : t -> node_id list
(** Nodes reachable from the root, in preorder. *)

val gc : t -> t
(** Drop every node not reachable from the root. Used after edge
    rewrites (shrinking, mutation) that may orphan whole subgraphs,
    since {!validate} requires full reachability. *)

val map_tables : t -> (node_id -> Table.t -> Table.t) -> t
(** Rewrite every table in place (names may change; nexts are kept). *)

val update_table : t -> node_id -> (Table.t -> Table.t) -> t

type edge_label = Cond_true | Cond_false | Action_fired of string

val out_edges : t -> node_id -> (edge_label option * next) list
(** Outgoing edges with labels; [None] label for a [Uniform] table edge. *)

type path = { path_nodes : node_id list; path_labels : edge_label option list }

val enumerate_paths : ?limit:int -> t -> path list
(** All root-to-sink execution paths. Paths whose count would exceed
    [limit] (default 100_000) raise [Invalid_argument]. *)

val validate : t -> (unit, string) result
(** Check referenced ids exist, the graph is acyclic, all nodes are
    reachable, table names are unique, and [Per_action] successor lists
    cover exactly the table's actions. *)

val validate_exn : t -> unit

val linear : string -> Table.t list -> t
(** Convenience: a straight-line program of tables ending at the sink. *)

val pp : Format.formatter -> t -> unit
