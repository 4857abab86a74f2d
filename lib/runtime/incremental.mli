(** Incremental re-optimization (§6: "compute new optimizations as well
    as compile and deploy updates incrementally"): the pipelet signature
    that lets a round reuse the previous round's candidate evaluations.
    Deploying only the changed tables is {!Nicsim.Sim.hot_patch}'s own
    table comparison. *)

val pipelet_signature :
  Profile.t -> Pipeleon.Hotspot.hot -> P4ir.Table.t list -> string
(** Key for the optimizer's warm-start cache
    ({!Pipeleon.Search.eval_cache}): the pipelet's reach probability,
    the profile's default cache-hit estimate, and per table its name,
    entry count, shape hash, and profiled stats — all floats bucketed to
    three significant digits. Two rounds whose signatures match produce
    identical candidate evaluations, so the cached list is reusable. *)
