type sample = { x : float; latency : float }

type fit = { slope : float; intercept : float; r2 : float }

let fit_linear samples =
  let points = List.map (fun s -> (s.x, s.latency)) samples in
  let slope, intercept = Stdx.Stats.linear_regression points in
  let r2 = Stdx.Stats.r_squared points ~slope ~intercept in
  { slope; intercept; r2 }

type calibrated = {
  l_mat_fit : fit;
  l_act_fit : fit;
  m_lpm : float;
  m_ternary : float;
}

let calibrate ~exact_sweep ~action_sweep ~lpm_sweep ~ternary_sweep =
  let l_mat_fit = fit_linear exact_sweep in
  let l_act_fit = fit_linear action_sweep in
  (* The complex-match sweeps vary the number of LPM/ternary tables, so
     their per-table slope is m * L_mat + L_action-part; normalizing by
     the exact sweep's per-table slope yields m (§3.1: "estimate m by
     normalizing the observed performance using exact tables as the
     baseline"). *)
  let m_of sweep =
    let f = fit_linear sweep in
    if l_mat_fit.slope <= 0. then 1. else Float.max 1. (f.slope /. l_mat_fit.slope)
  in
  { l_mat_fit; l_act_fit; m_lpm = m_of lpm_sweep; m_ternary = m_of ternary_sweep }

let apply c (base : Target.t) =
  { base with
    Target.l_mat = c.l_mat_fit.slope;
    l_act = (if c.l_act_fit.slope > 0. then c.l_act_fit.slope else base.Target.l_act);
    l_fixed = Float.max 0. c.l_mat_fit.intercept;
    match_model =
      Target.Fixed_cost { lpm_m = c.m_lpm; ternary_m = c.m_ternary } }
