(** Table reordering (§3.2.1): permute dependency-free tables so that
    high-drop-rate tables execute earlier, shortening the expected path. *)

val order_valid : P4ir.Table.t array -> int list -> bool
(** Is the permutation (list of original positions) semantics-preserving?
    Every dependent pair must keep its relative order. *)

val candidate_orders : P4ir.Table.t list -> int list list
(** All valid permutations when the pipelet has at most 5 tables;
    otherwise the identity order alone. The identity order is always
    first. *)

val greedy_drop_order : Profile.t -> P4ir.Table.t list -> int list
(** Stable-sort positions by descending drop probability, bubbling a
    table earlier only past tables it is independent of. *)

val apply_order : 'a list -> int list -> 'a list
(** Reorder a list by original positions. @raise Invalid_argument if the
    permutation is malformed. *)
