(** Reproduction bundles: a shrunk counterexample persisted as a
    [.p4l] program, a JSON profile, and a JSON packet list, so a
    divergence found by a fuzz run can be replayed ([pipeleonc fuzz
    --replay <dir>]) and turned into a regression test. *)

val write_case : dir:string -> Shrink.case -> unit
(** Create [dir] (and parents) and write [repro.json] (the IR
    serialization — exact node ids and conditional names, so a replay
    makes the very same optimizer choices), [profile.json] and
    [packets.json], plus a human-readable [repro.p4l] when the program
    is still structured enough for the P4-lite emitter. *)

val load_case : dir:string -> Shrink.case
(** Inverse of {!write_case}. @raise Sys_error / Failure on a missing or
    malformed bundle. *)
