type match_model =
  | Shape_scaled of { lpm_factor : float; ternary_factor : float }
  | Fixed_cost of { lpm_m : float; ternary_m : float }

type t = {
  target_name : string;
  l_mat : float;
  l_act : float;
  l_cond : float;
  l_fixed : float;
  match_model : match_model;
  migration_latency : float;
  cpu_slowdown : float;
  num_cores : int;
  line_rate_gbps : float;
  capacity : float;
  counter_update_cost : float;
}

let bluefield2 =
  { target_name = "bluefield2";
    l_mat = 1.0;
    l_act = 0.125;
    l_cond = 0.05;
    l_fixed = 10.0;
    match_model = Shape_scaled { lpm_factor = 1.0; ternary_factor = 1.0 };
    migration_latency = 8.0;
    cpu_slowdown = 4.0;
    num_cores = 8;
    line_rate_gbps = 100.0;
    capacity = 275.0;
    counter_update_cost = 0.012 }

let agilio_cx =
  { target_name = "agilio_cx";
    l_mat = 2.0;
    l_act = 0.4;
    l_cond = 0.1;
    l_fixed = 16.0;
    match_model = Shape_scaled { lpm_factor = 1.0; ternary_factor = 1.0 };
    migration_latency = 12.0;
    cpu_slowdown = 1.0;
    num_cores = 54;
    line_rate_gbps = 40.0;
    capacity = 30.0;
    counter_update_cost = 0.35 }

let emulated_nic =
  { target_name = "emulated_nic";
    l_mat = 1.0;
    l_act = 0.1;
    l_cond = 0.1;  (* 1/10 the cost of an exact table *)
    l_fixed = 5.0;
    match_model = Fixed_cost { lpm_m = 3.0; ternary_m = 3.0 };
    migration_latency = 10.0;
    cpu_slowdown = 5.0;
    num_cores = 4;
    line_rate_gbps = 100.0;
    capacity = 600.0;
    counter_update_cost = 0.02 }

let m_of_table t (tab : P4ir.Table.t) =
  match P4ir.Table.effective_kind tab with
  | P4ir.Match_kind.Exact -> 1.0
  | P4ir.Match_kind.Lpm -> (
    match t.match_model with
    | Fixed_cost { lpm_m; _ } -> lpm_m
    | Shape_scaled { lpm_factor; _ } ->
      1.0 +. (lpm_factor *. float_of_int (P4ir.Table.distinct_lpm_lengths tab - 1)))
  | P4ir.Match_kind.Ternary | P4ir.Match_kind.Range -> (
    match t.match_model with
    | Fixed_cost { ternary_m; _ } -> ternary_m
    | Shape_scaled { ternary_factor; _ } ->
      1.0 +. (ternary_factor *. float_of_int (P4ir.Table.distinct_ternary_masks tab - 1)))

let table_match_cost t tab = m_of_table t tab *. t.l_mat

let throughput_gbps t ~latency =
  if latency <= 0. then invalid_arg "Target.throughput_gbps: latency must be positive";
  Float.min t.line_rate_gbps (float_of_int t.num_cores *. t.capacity /. latency)

let pp fmt t =
  Format.fprintf fmt
    "target %s: l_mat=%.3f l_act=%.3f l_cond=%.3f cores=%d line=%.0fGbps" t.target_name
    t.l_mat t.l_act t.l_cond t.num_cores t.line_rate_gbps
