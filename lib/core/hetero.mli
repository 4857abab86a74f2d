(** Materialization of heterogeneous partitions (§3.2.4).

    The paper's mechanism for running one program across ASIC and CPU
    cores: packets migrating between cores carry a [next_tab_id] metadata
    field piggybacked in a special header; each program component placed
    on a core starts with a *navigation table* that jumps to the recorded
    next table, and ends with *migration tables* that record where
    processing resumes before the packet crosses cores.

    {!materialize} rewrites a placed program so those tables exist
    explicitly: every ASIC→CPU or CPU→ASIC edge is split with a migration
    table (writes [next_tab_id], role [Migration]) that flows into the
    destination side's navigation table (switch-case on [next_tab_id],
    role [Navigation]), which dispatches to the real successor. The
    rewritten program computes the same per-packet results; the executor
    charges the extra table visits, making the §3.2.4 migration overhead
    visible in the program structure rather than only in the timing
    model. *)

val materialize :
  P4ir.Program.t ->
  placement:Costmodel.Cost.placement ->
  P4ir.Program.t * Costmodel.Cost.placement
(** The rewritten program plus the placement extended to the new nodes
    (a migration table runs on the side the packet is leaving; a
    navigation table on the side it enters). Programs without crossings
    are returned unchanged. The result is validated. *)

val crossings : P4ir.Program.t -> placement:Costmodel.Cost.placement -> int
(** Number of placement-crossing edges in the graph (structure, not
    probability-weighted — see {!Placement.migrations_expected} for the
    expected per-packet count). *)
