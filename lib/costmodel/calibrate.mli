(** Cost-model calibration from benchmark measurements (§3.1 methodology).

    The paper fits [L_mat] and [L_act] by linear regression over measured
    reciprocal-throughput of benchmark programs swept along one dimension
    (number of exact tables, number of action primitives), then estimates
    the per-match-kind [m] by normalizing LPM/ternary measurements
    against the exact-match baseline. *)

type sample = { x : float; latency : float }
(** One benchmark point: the swept dimension value and the measured
    average latency (reciprocal of max throughput). *)

type fit = { slope : float; intercept : float; r2 : float }

type calibrated = {
  l_mat_fit : fit;  (** slope = L_mat *)
  l_act_fit : fit;  (** slope = L_act *)
  m_lpm : float;  (** estimated memory accesses per LPM match *)
  m_ternary : float;
}

val calibrate :
  exact_sweep:sample list ->
  action_sweep:sample list ->
  lpm_sweep:sample list ->
  ternary_sweep:sample list ->
  calibrated
(** [exact_sweep]: latency vs number of exact tables; [action_sweep]:
    latency vs primitives per action at fixed table count; [lpm_sweep] /
    [ternary_sweep]: latency vs number of LPM/ternary tables. [m] is the
    per-table slope of the complex sweep divided by the exact slope. *)

val apply : calibrated -> Target.t -> Target.t
(** Build a target whose parameters come from the fits (keeping the
    original's throughput capacity and core counts). *)
