(** Seeded bugs for validating the oracle itself: small corruptions of
    an optimized (or plain) program that the equivalence check must
    catch. A mutation returns [None] when the program has nothing of the
    targeted shape (e.g. no merged table), in which case the check
    passes vacuously. *)

type t = {
  name : string;
  apply : P4ir.Program.t -> P4ir.Program.t option;
}

val all : t list
(** [drop-merged-entry] (a lost cross-product row of a merged table),
    [swap-cache-skip] (a cache miss skips the covered tables),
    [corrupt-entry-action] (an entry repointed at a different action)
    and [flip-cond] (the first conditional's comparison negated). *)

val find : string -> t option
