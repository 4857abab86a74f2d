(** Pipelet groups (§4.1.1): neighbouring pipelets under one branch with a
    common exit, optimized jointly via a group cache (§5.4.4).

    A group cache sits in front of the branch, keyed on the branch field
    plus the live-in fields of every member pipelet; a hit replays the
    fused behaviour of whichever arm the flow takes and jumps straight to
    the common exit. *)

type t = {
  branch : P4ir.Program.node_id;  (** the conditional feeding the members *)
  members : Pipelet.t list;
  common_exit : P4ir.Program.next;
}

val detect : P4ir.Program.t -> candidates:Pipelet.t list -> t list
(** Groups whose branch arms are both candidate pipelets (single
    predecessor each) sharing one exit. Only conditional branches are
    grouped; switch-case fan-outs are left alone. *)

type evaluated = {
  group : t;
  cache : P4ir.Table.t;
  gain : float;
  mem_delta : int;
  update_delta : float;
}

val build_cache : ?capacity:int -> name:string -> P4ir.Program.t -> t -> P4ir.Table.t option
(** A cache admitting 1000 fills/sec, the rate of every generated cache;
    [None] when a member is not cacheable or the fused-action space
    explodes. *)

val evaluate :
  Costmodel.Target.t -> Profile.t -> P4ir.Program.t -> t -> cache:P4ir.Table.t ->
  evaluated

val apply : P4ir.Program.t -> t -> cache:P4ir.Table.t -> P4ir.Program.t
(** Insert the cache before the branch: hit actions jump to the common
    exit, the miss default falls through to the branch. *)
