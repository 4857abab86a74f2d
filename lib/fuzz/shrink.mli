(** Greedy counterexample shrinking: once the oracle reports a
    divergence, repeatedly try to remove packets, table entries, and
    whole program nodes while the divergence persists, so the repro that
    gets written out is close to minimal. *)

type case = Gen.case = {
  program : P4ir.Program.t;
  profile : Profile.t;
  packets : Gen.flow list;
}

type check = case -> Oracle.divergence option
(** Re-runs the failing oracle on a candidate case. Shrinking keeps a
    candidate only if the check still diverges (not necessarily with the
    same reason — any failure is worth keeping). *)

val shrink : check -> case -> case
(** Greedy fixpoint, largest reductions first: truncate the packet
    stream at the diverging packet, drop whole nodes (rewiring
    predecessors to a successor and garbage-collecting), drop entries,
    then drop individual packets. At most 500 successful reductions
    are made; every candidate is validated before being checked. If the
    input does not fail the check it is returned unchanged. *)
