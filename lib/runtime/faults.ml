type config = {
  enabled : bool;
  seed : int;
  deploy_fail_burst : int;
  deploy_fail_prob : float;
  update_drop_prob : float;
  update_corrupt_prob : float;
  profile_skew : float;
}

let disabled =
  { enabled = false;
    seed = 0;
    deploy_fail_burst = 0;
    deploy_fail_prob = 0.;
    update_drop_prob = 0.;
    update_corrupt_prob = 0.;
    profile_skew = 0. }

let chaos_defaults =
  { enabled = true;
    seed = 0;
    deploy_fail_burst = 1;
    deploy_fail_prob = 0.25;
    update_drop_prob = 0.15;
    update_corrupt_prob = 0.15;
    profile_skew = 0.3 }

type t = {
  cfg : config;
  rng : Stdx.Prng.t;
  mutable deploy_attempts : int;
  mutable deploy_failures : int;
}

let create cfg =
  { cfg;
    rng = Stdx.Prng.create (Int64.of_int (cfg.seed + 0x5EED));
    deploy_attempts = 0;
    deploy_failures = 0 }

let config t = t.cfg
let enabled t = t.cfg.enabled

let deploy_attempt t =
  if not t.cfg.enabled then None
  else begin
    t.deploy_attempts <- t.deploy_attempts + 1;
    let fail =
      if t.deploy_attempts <= t.cfg.deploy_fail_burst then true
      else t.cfg.deploy_fail_prob > 0. && Stdx.Prng.bool t.rng t.cfg.deploy_fail_prob
    in
    if fail then begin
      t.deploy_failures <- t.deploy_failures + 1;
      Some (Printf.sprintf "injected deploy failure #%d" t.deploy_failures)
    end
    else None
  end

type update_fate = Apply | Drop | Corrupt

let update_fate t =
  if not t.cfg.enabled then Apply
  else begin
    (* One uniform draw decides the fate, so the PRNG consumption per op
       is constant whatever the probabilities. *)
    let u = Stdx.Prng.float t.rng in
    if u < t.cfg.update_drop_prob then Drop
    else if u < t.cfg.update_drop_prob +. t.cfg.update_corrupt_prob then Corrupt
    else Apply
  end

let corrupt_entry t (tab : P4ir.Table.t) (entry : P4ir.Table.entry) =
  let others =
    List.filter
      (fun (a : P4ir.Action.t) -> not (String.equal a.name entry.action))
      tab.actions
  in
  match others with
  | [] -> None
  | _ ->
    let pick = Stdx.Prng.int t.rng (List.length others) in
    Some { entry with P4ir.Table.action = (List.nth others pick).P4ir.Action.name }

(* Stable per-owner factor in [1-skew, 1+skew]: a pure hash of
   (seed, owner) so every window sees the same distortion. *)
let skew_count t ~owner value =
  if (not t.cfg.enabled) || t.cfg.profile_skew <= 0. then value
  else begin
    let h = ref (Int64.of_int (t.cfg.seed * 0x1003F + 0x5EED1)) in
    String.iter
      (fun c -> h := Stdx.Prng.mix64 (Int64.logxor !h (Int64.of_int (Char.code c))))
      owner;
    let u =
      Int64.to_float (Int64.shift_right_logical (Stdx.Prng.mix64 !h) 11)
      /. 9007199254740992.0 (* 2^53 *)
    in
    let factor = 1. +. (t.cfg.profile_skew *. ((2. *. u) -. 1.)) in
    let skewed = Int64.to_float value *. factor in
    if skewed <= 0. then 0L else Int64.of_float skewed
  end
