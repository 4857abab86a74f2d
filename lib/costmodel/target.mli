(** SmartNIC target parameterizations for the approximate cost model
    (§3.1) and the simulator.

    The model is target-independent; a target is just a vector of
    constants: the latency of one memory access [l_mat], of one action
    primitive [l_act], of evaluating a conditional [l_cond], plus
    migration cost and capacity for throughput conversion. Latencies are
    in abstract "latency units"; only ratios matter (the paper's model
    also predicts relative performance, §3.1). *)

type match_model =
  | Shape_scaled of { lpm_factor : float; ternary_factor : float }
      (** [m] grows with the number of distinct prefix lengths / masks in
          the table's entries (how BlueField2/Agilio behave in §3.1) *)
  | Fixed_cost of { lpm_m : float; ternary_m : float }
      (** [m] is a constant per match kind (the §5.3.3 emulated NIC: LPM
          and ternary cost 3x exact) *)

type t = {
  target_name : string;
  l_mat : float;  (** cost of one memory access / exact match *)
  l_act : float;  (** cost of one action primitive *)
  l_cond : float;  (** cost of a conditional branch *)
  l_fixed : float;
      (** per-packet fixed pipeline overhead (parse/deparse, DMA); the
          regression intercept [B1] in §3.1 *)
  match_model : match_model;
  migration_latency : float;  (** one ASIC<->CPU packet migration (§3.2.4) *)
  cpu_slowdown : float;  (** CPU-core cost multiplier vs ASIC cores *)
  num_cores : int;  (** parallel run-to-completion cores *)
  line_rate_gbps : float;
  capacity : float;
      (** Gbps x latency-units one core sustains: throughput of a program
          with expected latency L is [min line_rate (num_cores * capacity / L)] *)
  counter_update_cost : float;  (** latency units per per-packet counter bump *)
}

val bluefield2 : t
(** BlueField2-like: ASIC MA cores; memory accesses dominate; cheap
    counters (§5.4.1 found BF2 counters nearly free; 100 Gbps line). *)

val agilio_cx : t
(** Agilio CX-like: CPU micro-engines; slower memory, 40 Gbps line rate,
    visible counter cost. *)

val emulated_nic : t
(** The §5.3.3 emulator model: LPM and ternary cost 3x an exact match and
    conditionals cost 1/10 of an exact table. *)

val m_of_table : t -> P4ir.Table.t -> float
(** The paper's [m]: memory accesses for one key match. Exact = 1; LPM and
    ternary grow per [match_model]; range is treated like ternary. *)

val table_match_cost : t -> P4ir.Table.t -> float
(** [m * l_mat]. *)

val throughput_gbps : t -> latency:float -> float
(** Convert expected per-packet latency to offered throughput, capped at
    line rate. @raise Invalid_argument if [latency <= 0]. *)

val pp : Format.formatter -> t -> unit
