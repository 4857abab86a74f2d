(** Instrumentation analysis (§4.1.2, §5.4.1).

    The simulator updates one counter per table action fired and one per
    branch outcome; this module reports how many updates a packet
    performs — the x-axis of the Fig. 12 overhead study. *)

val expected_updates_per_packet : Profile.t -> P4ir.Program.t -> float
(** Expected number of per-packet counter updates: one per node visited,
    weighted by reach probability. *)
