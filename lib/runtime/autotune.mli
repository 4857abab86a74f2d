(** Bridging the tunable registry ({!Pipeleon.Tune}) to the live
    runtime: salt warm-cache signatures with the assignment so a shared
    fleet cache never replays evaluations computed under different
    candidate options. *)

val signature :
  Pipeleon.Tune.assignment ->
  Profile.t ->
  Pipeleon.Hotspot.hot ->
  P4ir.Table.t list ->
  string
(** {!Incremental.pipelet_signature} salted with the assignment's
    {!Pipeleon.Tune.candidate_salt} — the warm-cache key an autotuned
    controller must use so its evaluations never collide with rounds
    run under different candidate options. Matches the salting
    {!Pipeleon.Tune.explore} applies internally, so the tick search and
    the explorer share cache entries for the same assignment. *)
