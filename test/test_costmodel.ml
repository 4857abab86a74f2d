(* Tests for the cost model: Eq. 1-4 semantics, path-sum equivalence,
   throughput conversion, resource accounting, and calibration. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-6))

let target = Costmodel.Target.bluefield2

let exact_table ?(prims = 1) name =
  P4ir.Table.make ~name
    ~keys:[ P4ir.Table.key P4ir.Field.Ipv4_dst P4ir.Match_kind.Exact ]
    ~actions:[ P4ir.Builder.forward_action ~extra_prims:(prims - 1) "act"; P4ir.Action.nop "def" ]
    ~default_action:"def" ()

(* --- target --- *)

let test_m_values () =
  let exact = exact_table "e" in
  check_float "exact m=1" 1.0 (Costmodel.Target.m_of_table target exact);
  let lpm =
    P4ir.Table.make ~name:"l"
      ~keys:[ P4ir.Table.key P4ir.Field.Ipv4_dst P4ir.Match_kind.Lpm ]
      ~actions:[ P4ir.Action.nop "a" ]
      ~default_action:"a"
      ~entries:
        [ P4ir.Table.entry [ P4ir.Pattern.Lpm (0x0A000000L, 8) ] "a";
          P4ir.Table.entry [ P4ir.Pattern.Lpm (0x0B0000L, 16) ] "a";
          P4ir.Table.entry [ P4ir.Pattern.Lpm (0x0C00L, 24) ] "a" ]
      ()
  in
  check_float "lpm m from 3 prefixes" 3.0 (Costmodel.Target.m_of_table target lpm);
  let emu = Costmodel.Target.emulated_nic in
  check_float "emulated lpm fixed m" 3.0 (Costmodel.Target.m_of_table emu lpm);
  check_float "emulated exact m" 1.0 (Costmodel.Target.m_of_table emu exact)

let test_throughput_conversion () =
  check_float "line rate cap" target.Costmodel.Target.line_rate_gbps
    (Costmodel.Target.throughput_gbps target ~latency:0.001);
  (* The largest expected latency that still sustains line rate. *)
  let latency =
    float_of_int target.Costmodel.Target.num_cores *. target.Costmodel.Target.capacity
    /. target.Costmodel.Target.line_rate_gbps
  in
  check_float "boundary latency" target.Costmodel.Target.line_rate_gbps
    (Costmodel.Target.throughput_gbps target ~latency);
  check_bool "beyond boundary degrades" true
    (Costmodel.Target.throughput_gbps target ~latency:(2. *. latency)
     < target.Costmodel.Target.line_rate_gbps);
  Alcotest.check_raises "zero latency rejected"
    (Invalid_argument "Target.throughput_gbps: latency must be positive") (fun () ->
      ignore (Costmodel.Target.throughput_gbps target ~latency:0.))

(* --- expected latency --- *)

let test_node_sum_linear () =
  (* n identical exact tables with one action (1 prim): L = l_fixed +
     n*(l_mat + l_act) when nothing drops (the default "def" action has
     zero primitives and probability 1 under an explicit profile). *)
  let n = 5 in
  let tabs = List.init n (fun i -> exact_table (Printf.sprintf "t%d" i)) in
  let prog = P4ir.Program.linear "p" tabs in
  let prof =
    List.fold_left
      (fun prof (t : P4ir.Table.t) ->
        Profile.set_table t.name
          { Profile.action_probs = [ ("act", 1.0); ("def", 0.0) ];
            update_rate = 0.;
            locality = -1. }
          prof)
      (Profile.uniform prog) tabs
  in
  let expected =
    target.Costmodel.Target.l_fixed
    +. (float_of_int n *. (target.Costmodel.Target.l_mat +. target.Costmodel.Target.l_act))
  in
  check_float "closed form" expected (Costmodel.Cost.expected_latency target prof prog)

let test_drop_shortens () =
  let acl =
    P4ir.Table.add_entry
      (P4ir.Builder.acl_table ~name:"acl" ~keys:[ P4ir.Builder.exact_key P4ir.Field.Ipv4_dst ] ())
      (P4ir.Table.entry [ P4ir.Pattern.Exact 1L ] "deny")
  in
  let prog = P4ir.Program.linear "p" (acl :: List.init 5 (fun i -> exact_table (Printf.sprintf "t%d" i))) in
  let with_drop rate =
    Profile.set_table "acl"
      { Profile.action_probs = [ ("allow", 1. -. rate); ("deny", rate) ];
        update_rate = 0.;
        locality = -1. }
      (Profile.uniform prog)
  in
  let l0 = Costmodel.Cost.expected_latency target (with_drop 0.0) prog in
  let l9 = Costmodel.Cost.expected_latency target (with_drop 0.9) prog in
  check_bool "drops shorten expected path" true (l9 < l0)

let diamond () =
  let t_a = exact_table "ta" and t_b = exact_table ~prims:4 "tb" in
  let prog = P4ir.Program.empty "d" in
  let prog, ida = P4ir.Program.add_node prog (P4ir.Program.Table (t_a, P4ir.Program.Uniform None)) in
  let prog, idb = P4ir.Program.add_node prog (P4ir.Program.Table (t_b, P4ir.Program.Uniform None)) in
  let prog, idc =
    P4ir.Program.add_node prog
      (P4ir.Builder.cond ~name:"c" ~field:P4ir.Field.Ipv4_proto ~op:P4ir.Program.Eq ~arg:6L
         ~on_true:(Some ida) ~on_false:(Some idb))
  in
  P4ir.Program.with_root prog (Some idc)

let test_branch_probability_weighting () =
  let prog = diamond () in
  let prof p = Profile.set_cond "c" { Profile.true_prob = p } (Profile.uniform prog) in
  let l_light = Costmodel.Cost.expected_latency target (prof 1.0) prog in
  let l_heavy = Costmodel.Cost.expected_latency target (prof 0.0) prog in
  let l_mid = Costmodel.Cost.expected_latency target (prof 0.5) prog in
  check_bool "heavy arm costs more" true (l_heavy > l_light);
  check_float "midpoint is the average" ((l_light +. l_heavy) /. 2.) l_mid

let test_paths_equal_node_sum () =
  let prog = diamond () in
  let prof = Profile.set_cond "c" { Profile.true_prob = 0.3 } (Profile.uniform prog) in
  check_float "Eq.1 both ways"
    (Costmodel.Cost.expected_latency target prof prog)
    (Costmodel.Cost.expected_latency_via_paths target prof prog)

let test_reach_probs () =
  let prog = diamond () in
  let prof = Profile.set_cond "c" { Profile.true_prob = 0.3 } (Profile.uniform prog) in
  let reach = Costmodel.Cost.reach_probs prof prog in
  let by_table name =
    let id, _ = Option.get (P4ir.Program.find_table prog name) in
    List.assoc id reach
  in
  check_float "true arm" 0.3 (by_table "ta");
  check_float "false arm" 0.7 (by_table "tb")

let test_hetero_migrations () =
  let tabs = List.init 2 (fun i -> exact_table (Printf.sprintf "t%d" i)) in
  let prog = P4ir.Program.linear "p" tabs in
  let prof = Profile.uniform prog in
  let ids = List.map fst (P4ir.Program.tables prog) in
  let second = List.nth ids 1 in
  let placement id = if id = second then Costmodel.Cost.Cpu else Costmodel.Cost.Asic in
  let flat = Costmodel.Cost.expected_latency target prof prog in
  let het = Costmodel.Cost.expected_latency ~placement target prof prog in
  (* Crossing in, then exiting from CPU: two migrations, plus the CPU
     slowdown on the second table. *)
  let t1 = List.nth tabs 1 in
  let extra_slow =
    (Costmodel.Target.table_match_cost target t1 +. Costmodel.Cost.action_cost target prof t1)
    *. (target.Costmodel.Target.cpu_slowdown -. 1.)
  in
  check_float "two migrations + slowdown"
    (flat +. (2. *. target.Costmodel.Target.migration_latency) +. extra_slow)
    het;
  check_float "paths agree under placement" het
    (Costmodel.Cost.expected_latency_via_paths ~placement target prof prog)

(* --- resources --- *)

let test_resource_accounting () =
  let t =
    P4ir.Table.make ~name:"t"
      ~keys:[ P4ir.Table.key P4ir.Field.Ipv4_dst P4ir.Match_kind.Exact ]
      ~actions:[ P4ir.Action.nop "a" ]
      ~default_action:"a"
      ~entries:(List.init 10 (fun i -> P4ir.Table.entry [ P4ir.Pattern.Exact (Int64.of_int i) ] "a"))
      ()
  in
  (* exact: 4 key bytes + 8 action bytes per entry, m = 1. *)
  Alcotest.(check int) "entry bytes" 12
    (Costmodel.Resource.table_memory target
       { t with P4ir.Table.entries = [ List.hd t.P4ir.Table.entries ] });
  Alcotest.(check int) "table memory" 120 (Costmodel.Resource.table_memory target t);
  let b = Costmodel.Resource.default_budget in
  check_bool "within" true
    (Costmodel.Resource.within b ~memory:(b.Costmodel.Resource.memory_bytes - 1) ~updates:0.);
  check_bool "memory exceeded" false
    (Costmodel.Resource.within b ~memory:(b.Costmodel.Resource.memory_bytes + 1) ~updates:0.)

(* --- calibration --- *)

let test_calibration_recovers_slope () =
  (* Synthetic measurements from a known linear law. *)
  let samples slope intercept xs =
    List.map (fun x -> { Costmodel.Calibrate.x; latency = (slope *. x) +. intercept }) xs
  in
  let xs = [ 5.; 10.; 20.; 30.; 40. ] in
  let c =
    Costmodel.Calibrate.calibrate
      ~exact_sweep:(samples 1.25 10. xs)
      ~action_sweep:(samples 0.125 10. xs)
      ~lpm_sweep:(samples 3.75 10. xs)
      ~ternary_sweep:(samples 6.25 10. xs)
  in
  check_float "L_mat" 1.25 c.Costmodel.Calibrate.l_mat_fit.slope;
  check_float "L_act" 0.125 c.Costmodel.Calibrate.l_act_fit.slope;
  check_float "intercept" 10. c.Costmodel.Calibrate.l_mat_fit.intercept;
  check_float "r2" 1.0 c.Costmodel.Calibrate.l_mat_fit.r2;
  check_float "m_lpm" 3.0 c.Costmodel.Calibrate.m_lpm;
  check_float "m_ternary" 5.0 c.Costmodel.Calibrate.m_ternary;
  (* The fitted target predicts with the recovered law. *)
  let fitted = Costmodel.Calibrate.apply c target in
  check_float "fitted l_mat" 1.25 fitted.Costmodel.Target.l_mat;
  check_float "fitted l_act" 0.125 fitted.Costmodel.Target.l_act;
  check_float "fitted l_fixed" 10. fitted.Costmodel.Target.l_fixed

(* --- RMT baseline --- *)

let test_rmt_pack_dependencies () =
  (* A chain where each table writes the next one's key must occupy one
     stage per table. *)
  let writer i =
    P4ir.Table.make ~name:(Printf.sprintf "w%d" i)
      ~keys:[ P4ir.Table.key (P4ir.Field.Meta i) P4ir.Match_kind.Exact ]
      ~actions:
        [ P4ir.Action.make "set" [ P4ir.Action.Set_field (P4ir.Field.Meta (i + 1), 1L) ] ]
      ~default_action:"set" ()
  in
  let prog = P4ir.Program.linear "chain" (List.init 4 writer) in
  check_int "diameter = chain length" 4 (Costmodel.Rmt.dependency_diameter prog);
  (match Costmodel.Rmt.pack target prog with
   | Costmodel.Rmt.Fits p -> check_int "4 stages" 4 p.Costmodel.Rmt.stages_used
   | Costmodel.Rmt.Does_not_fit m -> Alcotest.fail m);
  (* Independent tables share stage 1. Each writes its own field — two
     forwarding tables would carry an egress write-write dependency. *)
  let indep_table i =
    P4ir.Table.make ~name:(Printf.sprintf "t%d" i)
      ~keys:[ P4ir.Table.key P4ir.Field.Ipv4_dst P4ir.Match_kind.Exact ]
      ~actions:
        [ P4ir.Action.make "set" [ P4ir.Action.Set_field (P4ir.Field.Meta (10 + i), 1L) ];
          P4ir.Action.nop "def" ]
      ~default_action:"def" ()
  in
  let indep = P4ir.Program.linear "flat" (List.init 4 indep_table) in
  check_int "flat diameter" 1 (Costmodel.Rmt.dependency_diameter indep);
  match Costmodel.Rmt.pack target indep with
  | Costmodel.Rmt.Fits p -> check_int "one stage" 1 p.Costmodel.Rmt.stages_used
  | Costmodel.Rmt.Does_not_fit m -> Alcotest.fail m

let test_rmt_limits () =
  (* More dependent tables than stages cannot fit. *)
  let writer i =
    P4ir.Table.make ~name:(Printf.sprintf "w%d" i)
      ~keys:[ P4ir.Table.key (P4ir.Field.Meta i) P4ir.Match_kind.Exact ]
      ~actions:
        [ P4ir.Action.make "set" [ P4ir.Action.Set_field (P4ir.Field.Meta (i + 1), 1L) ] ]
      ~default_action:"set" ()
  in
  let deep = P4ir.Program.linear "deep" (List.init 14 writer) in
  (match Costmodel.Rmt.throughput_gbps target deep with
   | None -> ()
   | Some _ -> Alcotest.fail "14-deep chain should not fit 12 stages");
  (* Fitting programs always run at line rate, whatever the profile. *)
  let flat = P4ir.Program.linear "flat" (List.init 4 (fun i -> exact_table (Printf.sprintf "t%d" i))) in
  check_bool "line rate" true
    (Costmodel.Rmt.throughput_gbps target flat = Some target.Costmodel.Target.line_rate_gbps)

(* --- queueing --- *)

let test_erlang_c_limits () =
  (* The wait is Erlang-C: at per-core utilization rho a packet waits
     P_wait * S / (c * (1 - rho)) on top of its service time S. A long
     S keeps the cores, not the line rate, the bottleneck. *)
  let service = 1000. in
  let sojourn (t : Costmodel.Target.t) rho =
    let core_capacity = float_of_int t.num_cores *. t.capacity /. service in
    Costmodel.Queueing.expected_sojourn t ~service_latency:service
      ~offered_gbps:(rho *. core_capacity)
  in
  (* Single server: Erlang-C reduces to rho, so the wait is one S. *)
  let mm1 = { target with Costmodel.Target.num_cores = 1 } in
  check_float "M/M/1 sojourn" (2. *. service) (Option.get (sojourn mm1 0.5));
  let c8 = { target with Costmodel.Target.num_cores = 8 } in
  check_bool "wait vanishes at low load" true
    (Option.get (sojourn c8 0.01) -. service < 1e-6 *. service);
  check_bool "wait explodes at high load" true
    (Option.get (sojourn c8 0.999) > 100. *. service);
  check_bool "rho >= 1 unanswered" true (sojourn c8 1.0 = None)

let test_sojourn_monotone () =
  let service = 30.0 in
  let capacity = Costmodel.Target.throughput_gbps target ~latency:service in
  let values =
    List.filter_map
      (fun load ->
        Costmodel.Queueing.expected_sojourn target ~service_latency:service
          ~offered_gbps:(load *. capacity))
      [ 0.1; 0.5; 0.9; 0.99 ]
  in
  check_int "all below capacity answered" 4 (List.length values);
  let rec increasing = function
    | a :: (b :: _ as rest) -> a <= b +. 1e-9 && increasing rest
    | _ -> true
  in
  check_bool "sojourn grows with load" true (increasing values);
  check_bool "light load ~ service time" true
    (Float.abs (List.hd values -. service) < 0.5);
  check_bool "overload unanswered" true
    (Costmodel.Queueing.expected_sojourn target ~service_latency:service
       ~offered_gbps:(1.1 *. capacity)
     = None)

let () =
  Alcotest.run "costmodel"
    [ ( "target",
        [ Alcotest.test_case "m values" `Quick test_m_values;
          Alcotest.test_case "throughput conversion" `Quick test_throughput_conversion ] );
      ( "latency",
        [ Alcotest.test_case "node-sum closed form" `Quick test_node_sum_linear;
          Alcotest.test_case "drops shorten" `Quick test_drop_shortens;
          Alcotest.test_case "branch weighting" `Quick test_branch_probability_weighting;
          Alcotest.test_case "paths = node-sum" `Quick test_paths_equal_node_sum;
          Alcotest.test_case "reach probs" `Quick test_reach_probs;
          Alcotest.test_case "heterogeneous migrations" `Quick test_hetero_migrations ] );
      ("resources", [ Alcotest.test_case "accounting" `Quick test_resource_accounting ]);
      ("calibration", [ Alcotest.test_case "recovers slopes" `Quick test_calibration_recovers_slope ]);
      ( "rmt",
        [ Alcotest.test_case "dependency packing" `Quick test_rmt_pack_dependencies;
          Alcotest.test_case "limits + line rate" `Quick test_rmt_limits ] );
      ( "queueing",
        [ Alcotest.test_case "erlang-c limits" `Quick test_erlang_c_limits;
          Alcotest.test_case "sojourn monotone" `Quick test_sojourn_monotone ] ) ]
