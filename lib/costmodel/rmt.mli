(** A classic RMT switch-pipeline model, for contrast with the multicore
    SmartNIC model (§1-2 of the paper: on a switch ASIC, once the packed
    program fits the stages, processing is line rate regardless of
    traffic; on a SmartNIC it is not).

    Tables are packed greedily into stages: a table goes into the
    earliest stage after every table it depends on, subject to per-stage
    memory and table-count limits — the first-order resource concern of
    switch compilers (Lyra, Cetus, P5 [27, 36, 17]). *)

type placement = {
  stage_of : (string * int) list;  (** table name -> stage *)
  stages_used : int;
}

type result = Fits of placement | Does_not_fit of string

val pack : Target.t -> P4ir.Program.t -> result
(** Greedy dependency-respecting stage assignment onto a Tofino-like
    pipeline: 12 stages, each holding at most 16 tables and 1.5 MiB. *)

val throughput_gbps : Target.t -> P4ir.Program.t -> float option
(** Line rate when the program fits, [None] otherwise — the "performance
    for free once packed" contract of pipelined ASICs. *)

val dependency_diameter : P4ir.Program.t -> int
(** Longest chain of dependent tables (Cetus's diameter metric): a lower
    bound on the stages any placement needs. *)
