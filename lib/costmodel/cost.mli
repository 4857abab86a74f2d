(** The approximate P4 performance model (Eq. 1-4 of the paper).

    Expected program latency is the per-path latency weighted by path
    probability. Because every packet follows exactly one root-to-sink
    path, this equals the node-local sum
    [L(G) = l_fixed + sum_v P(reach v) * L(v)], which we compute in one
    topological pass; {!expected_latency_via_paths} is the direct Eq. 1
    evaluation used to cross-check the fast path. *)

type core = Asic | Cpu

type placement = P4ir.Program.node_id -> core
(** Which core class executes each node (heterogeneous targets, §3.2.4). *)

val all_asic : placement

val action_cost : Target.t -> Profile.t -> P4ir.Table.t -> float
(** Eq. 4b: expected action-execution cost for one packet at the table. *)

val node_cost :
  ?placement:placement -> Target.t -> Profile.t -> P4ir.Program.t ->
  P4ir.Program.node_id -> float
(** Eq. 3: match cost plus expected action cost (tables) or branch cost
    (conditionals), scaled by [cpu_slowdown] for CPU-placed nodes. *)

val reach_probs : Profile.t -> P4ir.Program.t -> (P4ir.Program.node_id * float) list
(** Probability that a packet reaches each node. Dropped packets leave
    the graph at the node that dropped them (run-to-completion, §3.2.1). *)

val edge_probs :
  Profile.t -> P4ir.Program.t ->
  ((P4ir.Program.node_id * P4ir.Program.next) * float) list
(** Traversal probability of every edge (including edges to the sink). *)

val expected_latency :
  ?placement:placement -> Target.t -> Profile.t -> P4ir.Program.t -> float
(** Eq. 1 via the node-sum. Includes [l_fixed] and, under a
    heterogeneous placement, [migration_latency] for every
    probability-weighted ASIC<->CPU edge crossing. *)

val expected_latency_via_paths :
  ?placement:placement -> Target.t -> Profile.t -> P4ir.Program.t -> float
(** Direct Eq. 1/2 evaluation by path enumeration (exponential; tests and
    small programs only). *)

val expected_throughput_gbps : Target.t -> Profile.t -> P4ir.Program.t -> float
(** Convenience: {!expected_latency} (all-ASIC placement) pushed through
    {!Target.throughput_gbps}. *)
