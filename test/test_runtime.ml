(* Tests for the runtime controller: API mapping through deployed
   layouts, profiling ticks, redeployment decisions, downtime, and the
   health monitors. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let target = Costmodel.Target.bluefield2

(* The data path's lookup: the match and its modeled access count. *)
let lookup eng pkt =
  let r = Nicsim.Engine.probe eng pkt in
  (r, Nicsim.Engine.last_accesses eng)

let fields = [ P4ir.Field.Ipv4_src; P4ir.Field.Ipv4_dst; P4ir.Field.Tcp_sport; P4ir.Field.Tcp_dport ]

let mk_table ?(entries = 3) name field =
  P4ir.Table.make ~name
    ~keys:[ P4ir.Builder.exact_key field ]
    ~actions:[ P4ir.Builder.forward_action "act"; P4ir.Action.nop "def" ]
    ~default_action:"def"
    ~entries:
      (List.init entries (fun j -> P4ir.Table.entry [ P4ir.Pattern.Exact (Int64.of_int j) ] "act"))
    ()

let program () =
  P4ir.Program.linear "rt"
    (List.mapi (fun i f -> mk_table (Printf.sprintf "t%d" i) f) fields)

let make_controller ?(config = Runtime.Controller.default_config) () =
  let sim = Nicsim.Sim.create target (program ()) in
  (sim, Runtime.Controller.create ~config sim ~original:(program ()))

let source rng =
  Traffic.Workload.of_flows ~zipf_s:1.2 rng
    (Traffic.Workload.random_flows rng ~n:64 ~fields)

let test_insert_reaches_engine () =
  let sim, ctl = make_controller () in
  Runtime.Controller.insert ctl ~table:"t0" (P4ir.Table.entry [ P4ir.Pattern.Exact 77L ] "act");
  let eng = Nicsim.Exec.engine_exn (Nicsim.Sim.exec sim) "t0" in
  check_int "entry landed" 4 (Nicsim.Engine.num_entries eng);
  (* The control plane's source of truth tracks it too. *)
  let _, t0 = Option.get (P4ir.Program.find_table (Runtime.Controller.original_program ctl) "t0") in
  check_int "original IR updated" 4 (P4ir.Table.num_entries t0)

let test_delete_roundtrip () =
  let sim, ctl = make_controller () in
  let e = P4ir.Table.entry [ P4ir.Pattern.Exact 1L ] "act" in
  Runtime.Controller.delete ctl ~table:"t0" e;
  let eng = Nicsim.Exec.engine_exn (Nicsim.Sim.exec sim) "t0" in
  check_int "entry removed" 2 (Nicsim.Engine.num_entries eng)

let test_unknown_table_rejected () =
  let _, ctl = make_controller () in
  Alcotest.check_raises "unknown table" (Invalid_argument "Controller: unknown original table zz")
    (fun () ->
      Runtime.Controller.insert ctl ~table:"zz" (P4ir.Table.entry [ P4ir.Pattern.Exact 1L ] "act"))

let test_tick_produces_profile () =
  let sim, ctl = make_controller () in
  let rng = Stdx.Prng.create 2L in
  ignore (Nicsim.Sim.run_window sim ~duration:1.0 ~packets:500 ~source:(source rng));
  let report = Runtime.Controller.tick ctl in
  (* The folded profile must carry real action probabilities. *)
  let _, t0 = Option.get (P4ir.Program.find_table (program ()) "t0") in
  let p_act = Profile.action_prob report.Runtime.Controller.profile ~table:t0 ~action:"act" in
  let p_def = Profile.action_prob report.Runtime.Controller.profile ~table:t0 ~action:"def" in
  check_bool "probabilities sum to ~1" true (Float.abs (p_act +. p_def -. 1.) < 1e-6)

let test_redeploy_after_drop_shift () =
  (* An ACL at the end with a huge drop rate: the first tick should
     redeploy a layout that performs better. *)
  let acl =
    P4ir.Table.add_entry
      (P4ir.Builder.acl_table ~name:"acl" ~keys:[ P4ir.Builder.exact_key P4ir.Field.Udp_dport ] ())
      (P4ir.Table.entry [ P4ir.Pattern.Exact 666L ] "deny")
  in
  let prog =
    P4ir.Program.linear "rt2"
      ((List.mapi (fun i f -> mk_table (Printf.sprintf "t%d" i) f) fields)
      @ [ acl ])
  in
  let sim = Nicsim.Sim.create target prog in
  let config =
    { Runtime.Controller.default_config with
      min_relative_gain = 0.01;
      optimizer = { Pipeleon.Optimizer.default_config with top_k = 1.0 } }
  in
  let ctl = Runtime.Controller.create ~config sim ~original:prog in
  let rng = Stdx.Prng.create 4L in
  let src =
    Traffic.Workload.mark_fraction rng ~rate:0.7 ~field:P4ir.Field.Udp_dport ~value:666L
      (source rng)
  in
  ignore (Nicsim.Sim.run_window sim ~duration:5.0 ~packets:2000 ~source:src);
  let report = Runtime.Controller.tick ctl in
  check_bool "reoptimized" true report.Runtime.Controller.reoptimized;
  check_int "generation bumped" 1 (Runtime.Controller.generation ctl);
  (* The deployed program must keep behaviour: the denied packets still
     get dropped, at a lower average cost. *)
  let s2 = Nicsim.Sim.run_window sim ~duration:5.0 ~packets:2000 ~source:src in
  check_bool "drops preserved" true (s2.Nicsim.Sim.drop_fraction > 0.5);
  check_bool "throughput improved or equal" true
    (s2.Nicsim.Sim.throughput_gbps >= target.Costmodel.Target.line_rate_gbps *. 0.8)

let test_insert_survives_redeploy () =
  let sim, ctl = make_controller () in
  Runtime.Controller.insert ctl ~table:"t0" (P4ir.Table.entry [ P4ir.Pattern.Exact 99L ] "act");
  let r = Runtime.Controller.deploy ctl (program ()) in
  check_bool "deploy installed" true r.Runtime.Controller.installed;
  (* deploy installs the given IR; entries of surviving tables are
     carried over by the simulator's live reconfiguration. *)
  let eng = Nicsim.Exec.engine_exn (Nicsim.Sim.exec sim) "t0" in
  check_bool "entry survived" true
    (fst (lookup eng (Nicsim.Packet.of_fields [ (P4ir.Field.Ipv4_src, 99L) ])) <> None)

let test_downtime_advances_clock () =
  let config = { Runtime.Controller.default_config with reconfig_downtime = 3.0 } in
  let sim, ctl = make_controller ~config () in
  let before = Nicsim.Sim.now sim in
  let r = Runtime.Controller.deploy ctl (program ()) in
  check_bool "downtime charged" true (Nicsim.Sim.now sim -. before >= 3.0);
  Alcotest.(check (float 1e-9)) "report matches clock"
    (Nicsim.Sim.now sim -. before) r.Runtime.Controller.downtime_seconds

(* --- monitors --- *)

(* One auto-insert cache ("c") fronting table t1 — the smallest program
   the hit-rate monitor can run on. *)
let cache_prog () =
  let t1 = mk_table "t1" P4ir.Field.Ipv4_src in
  let cache = Pipeleon.Cache.build ~name:"c" [ t1 ] in
  let prog = P4ir.Program.empty "m" in
  let prog, id1 = P4ir.Program.add_node prog (P4ir.Program.Table (t1, P4ir.Program.Uniform None)) in
  let branches =
    List.map
      (fun (a : P4ir.Action.t) ->
        if String.equal a.name "miss" then (a.name, Some id1) else (a.name, None))
      cache.P4ir.Table.actions
  in
  let prog, idc = P4ir.Program.add_node prog (P4ir.Program.Table (cache, P4ir.Program.Per_action branches)) in
  P4ir.Program.with_root prog (Some idc)

let cache_observed ~miss =
  Profile.set_table "c"
    { Profile.action_probs = [ ("miss", miss); (Profile.Counter_map.fuse [ ("t1", "act") ], 1. -. miss) ];
      update_rate = 0.;
      locality = -1. }
    Profile.empty

let test_monitor_low_hit_rate () =
  let issues = Runtime.Monitor.check ~observed:(cache_observed ~miss:0.95) (cache_prog ()) in
  check_bool "low hit flagged" true
    (List.exists (function Runtime.Monitor.Low_hit_rate _ -> true | _ -> false) issues)

let test_monitor_threshold_edges () =
  let prog = cache_prog () in
  (* expected = default cache hit (0.9); slack 0.4 puts the boundary at
     an exactly-representable 0.5. Exactly at the boundary is healthy —
     the comparison is strict. *)
  let th = { Runtime.Monitor.default_thresholds with hit_rate_slack = 0.4 } in
  let at_boundary = Runtime.Monitor.check ~thresholds:th ~observed:(cache_observed ~miss:0.5) prog in
  check_bool "exactly at slack is healthy" true (at_boundary = []);
  let below = Runtime.Monitor.check ~thresholds:th ~observed:(cache_observed ~miss:0.51) prog in
  check_bool "below slack is flagged" true
    (List.exists (function Runtime.Monitor.Low_hit_rate _ -> true | _ -> false) below);
  (* A cache that saw no traffic produces no stats — and no issue: silence
     is not evidence of underperformance. *)
  check_bool "zero-traffic cache is healthy" true
    (Runtime.Monitor.check ~observed:Profile.empty prog = []);
  (* Update rate exactly at the limit is healthy; above it storms. *)
  let t1 = mk_table "t1" P4ir.Field.Ipv4_src and t2 = mk_table "t2" P4ir.Field.Ipv4_dst in
  let merged = Pipeleon.Merge.build_ternary ~name:"m12" [ t1; t2 ] in
  let mprog = P4ir.Program.linear "m" [ merged ] in
  let with_rate rate =
    Profile.set_table "m12"
      { Profile.action_probs = []; update_rate = rate; locality = -1. }
      Profile.empty
  in
  let limit = Runtime.Monitor.default_thresholds.Runtime.Monitor.update_limit in
  check_bool "exactly at update limit is healthy" true
    (Runtime.Monitor.check ~observed:(with_rate limit) mprog = []);
  check_bool "above update limit storms" true
    (List.exists
       (function Runtime.Monitor.Update_storm _ -> true | _ -> false)
       (Runtime.Monitor.check ~observed:(with_rate (limit +. 1.)) mprog));
  (* Merged-entry count exactly at the limit is healthy. *)
  let n = P4ir.Table.num_entries merged in
  let th_at = { Runtime.Monitor.default_thresholds with entry_limit = n } in
  let th_under = { Runtime.Monitor.default_thresholds with entry_limit = n - 1 } in
  check_bool "exactly at entry limit is healthy" true
    (Runtime.Monitor.check ~thresholds:th_at ~observed:Profile.empty mprog = []);
  check_bool "above entry limit is a blowup" true
    (List.exists
       (function Runtime.Monitor.Merged_blowup _ -> true | _ -> false)
       (Runtime.Monitor.check ~thresholds:th_under ~observed:Profile.empty mprog))

let test_monitor_storm_on_regular_table () =
  (* check reports storms on any table:
     re-optimizing a regular table mid-storm would churn, so the
     controller needs to see it to shed the work. *)
  let prog = P4ir.Program.linear "r" [ mk_table "t1" P4ir.Field.Ipv4_src ] in
  let observed =
    Profile.set_table "t1"
      { Profile.action_probs = []; update_rate = 50_000.; locality = -1. }
      Profile.empty
  in
  check_bool "regular-table storm flagged" true
    (List.exists
       (function Runtime.Monitor.Update_storm { table = "t1"; _ } -> true | _ -> false)
       (Runtime.Monitor.check ~observed prog))

let test_monitor_update_storm () =
  let t1 = mk_table "t1" P4ir.Field.Ipv4_src and t2 = mk_table "t2" P4ir.Field.Ipv4_dst in
  let merged = Pipeleon.Merge.build_ternary ~name:"m12" [ t1; t2 ] in
  let prog = P4ir.Program.linear "m" [ merged ] in
  let observed =
    Profile.set_table "m12"
      { Profile.action_probs = []; update_rate = 50_000.; locality = -1. }
      Profile.empty
  in
  let issues = Runtime.Monitor.check ~observed prog in
  check_bool "storm flagged" true
    (List.exists (function Runtime.Monitor.Update_storm _ -> true | _ -> false) issues)

(* --- self-healing: rollback, retry, backoff, blacklist, repair --- *)

let extended_program () =
  P4ir.Program.linear "rt"
    ((List.mapi (fun i f -> mk_table (Printf.sprintf "t%d" i) f) fields)
    @ [ mk_table "extra" P4ir.Field.Udp_dport ])

let test_persistent_deploy_failure_rolls_back () =
  (* Every install attempt fails: the data plane must end up exactly
     where it started — same layout, same generation, same live entries
     (including ones inserted after creation). *)
  let faults =
    { Runtime.Faults.disabled with Runtime.Faults.enabled = true; deploy_fail_burst = max_int }
  in
  let config =
    { Runtime.Controller.default_config with
      faults;
      deploy_retries = 1;
      backoff_base = 0.1;
      backoff_cap = 0.2 }
  in
  let sim, ctl = make_controller ~config () in
  Runtime.Controller.insert ctl ~table:"t0" (P4ir.Table.entry [ P4ir.Pattern.Exact 77L ] "act");
  let r = Runtime.Controller.deploy ctl (extended_program ()) in
  check_bool "not installed" false r.Runtime.Controller.installed;
  check_int "one retry made" 2 r.Runtime.Controller.attempts;
  check_int "every attempt rolled back" 2 r.Runtime.Controller.rollbacks;
  check_bool "failure reason surfaced" true (r.Runtime.Controller.failure <> None);
  check_int "generation unchanged" 0 (Runtime.Controller.generation ctl);
  check_int "report agrees on generation" 0 r.Runtime.Controller.generation;
  check_bool "extra table never materialized" true
    (P4ir.Program.find_table (Runtime.Controller.deployed_program ctl) "extra" = None);
  let eng = Nicsim.Exec.engine_exn (Nicsim.Sim.exec sim) "t0" in
  check_int "live entries restored by rollback" 4 (Nicsim.Engine.num_entries eng)

let test_transient_deploy_failure_retries () =
  (* First attempt fails, the retry lands. The failed attempt rolls back
     (counted, with telemetry), the backoff wait advances the emulated
     clock but is not billed as downtime. *)
  let tel = Telemetry.create () in
  let faults =
    { Runtime.Faults.disabled with Runtime.Faults.enabled = true; deploy_fail_burst = 1 }
  in
  let config = { Runtime.Controller.default_config with faults } in
  let sim = Nicsim.Sim.create ~telemetry:tel target (program ()) in
  let ctl = Runtime.Controller.create ~config sim ~original:(program ()) in
  let before = Nicsim.Sim.now sim in
  let r = Runtime.Controller.deploy ctl (extended_program ()) in
  check_bool "installed on retry" true r.Runtime.Controller.installed;
  check_int "two attempts" 2 r.Runtime.Controller.attempts;
  check_int "one rollback" 1 r.Runtime.Controller.rollbacks;
  check_int "generation bumped once" 1 (Runtime.Controller.generation ctl);
  check_bool "extra table live" true
    (P4ir.Program.find_table (Runtime.Controller.deployed_program ctl) "extra" <> None);
  check_bool "backoff waited on the clock, outside downtime" true
    (Nicsim.Sim.now sim -. before > r.Runtime.Controller.downtime_seconds);
  let m = Telemetry.metrics tel in
  check_bool "rollback counted" true
    (Telemetry.Metrics.find_counter m "runtime.remediations.rollback" = Some 1);
  check_bool "retry counted" true
    (Telemetry.Metrics.find_counter m "runtime.remediations.retry" = Some 1)

let test_backoff_deterministic () =
  let b failures = Runtime.Remediate.backoff ~base:0.5 ~cap:8. ~failures in
  let chk name want got = Alcotest.(check (float 0.)) name want got in
  chk "no failures, no wait" 0. (b 0);
  chk "first retry" 0.5 (b 1);
  chk "doubles" 1.0 (b 2);
  chk "doubles again" 2.0 (b 3);
  chk "caps" 8. (b 5);
  chk "stays capped" 8. (b 9);
  (* Same seed, same config: the whole retry schedule replays on the
     emulated clock bit-for-bit. *)
  let run () =
    let faults =
      { Runtime.Faults.disabled with
        Runtime.Faults.enabled = true;
        deploy_fail_burst = 2;
        deploy_fail_prob = 0.3;
        seed = 11 }
    in
    let config = { Runtime.Controller.default_config with faults; deploy_retries = 3 } in
    let sim, ctl = make_controller ~config () in
    ignore (Runtime.Controller.deploy ctl (extended_program ()));
    Nicsim.Sim.now sim
  in
  chk "same clock twice" (run ()) (run ())

let test_blacklist_ttl () =
  let ex = ("t0", Pipeleon.Candidate.Cache_seg) in
  let bl = Runtime.Remediate.create_blacklist () in
  Runtime.Remediate.ban bl ~now:1 ~ttl:2 ex;
  check_bool "in force next tick" true (Runtime.Remediate.banned bl ~now:2 ex);
  check_bool "expired at now + ttl" false (Runtime.Remediate.banned bl ~now:3 ex);
  let bl = Runtime.Remediate.create_blacklist () in
  Runtime.Remediate.ban bl ~now:1 ~ttl:2 ex;
  Runtime.Remediate.ban bl ~now:2 ~ttl:2 ex;
  check_bool "re-ban extends" true (Runtime.Remediate.banned bl ~now:3 ex);
  check_bool "extension also expires" false (Runtime.Remediate.banned bl ~now:4 ex);
  let bl = Runtime.Remediate.create_blacklist () in
  Runtime.Remediate.ban bl ~now:0 ~ttl:3 ("b", Pipeleon.Candidate.Merge_ternary_seg);
  Runtime.Remediate.ban bl ~now:0 ~ttl:3 ("a", Pipeleon.Candidate.Cache_seg);
  Runtime.Remediate.ban bl ~now:0 ~ttl:1 ("z", Pipeleon.Candidate.Cache_seg);
  check_bool "active prunes expired and sorts" true
    (Runtime.Remediate.active bl ~now:2
    = [ ("a", Pipeleon.Candidate.Cache_seg); ("b", Pipeleon.Candidate.Merge_ternary_seg) ])

let test_exclusions_prevent_reselection () =
  (* The fixture where caching reliably wins (exact chain, 95% estimated
     hit rate): banning Cache_seg over every original table — what
     remediation does after evicting a cold cache — must keep the
     optimizer from re-selecting any cache. *)
  let prog = program () in
  let prof = Profile.with_default_cache_hit 0.95 (Profile.uniform prog) in
  let config = { Pipeleon.Optimizer.default_config with Pipeleon.Optimizer.top_k = 1.0 } in
  let has_cache (r : Pipeleon.Optimizer.result) =
    List.exists
      (fun (_, (t : P4ir.Table.t)) ->
        match t.P4ir.Table.role with P4ir.Table.Cache _ -> true | _ -> false)
      (P4ir.Program.tables r.Pipeleon.Optimizer.program)
  in
  let baseline = Pipeleon.Optimizer.optimize ~config target prof prog in
  check_bool "cache selected without exclusions" true (has_cache baseline);
  let exclusions =
    List.map
      (fun (_, (t : P4ir.Table.t)) -> (t.P4ir.Table.name, Pipeleon.Candidate.Cache_seg))
      (P4ir.Program.tables prog)
  in
  let banned = Pipeleon.Optimizer.optimize ~config ~exclusions target prof prog in
  check_bool "no cache under blacklist" false (has_cache banned)

let test_update_faults_repaired () =
  (* Every control-plane op is dropped in flight: read-back verification
     must notice and repair, so the engines still converge to exactly
     what the API was told. *)
  let tel = Telemetry.create () in
  let faults =
    { Runtime.Faults.disabled with Runtime.Faults.enabled = true; update_drop_prob = 1.0 }
  in
  let config = { Runtime.Controller.default_config with faults } in
  let sim = Nicsim.Sim.create ~telemetry:tel target (program ()) in
  let ctl = Runtime.Controller.create ~config sim ~original:(program ()) in
  Runtime.Controller.insert ctl ~table:"t0" (P4ir.Table.entry [ P4ir.Pattern.Exact 77L ] "act");
  Runtime.Controller.delete ctl ~table:"t0" (P4ir.Table.entry [ P4ir.Pattern.Exact 1L ] "act");
  let eng = Nicsim.Exec.engine_exn (Nicsim.Sim.exec sim) "t0" in
  check_int "dropped ops repaired" 3 (Nicsim.Engine.num_entries eng);
  check_bool "inserted entry reachable" true
    (fst (lookup eng (Nicsim.Packet.of_fields [ (P4ir.Field.Ipv4_src, 77L) ])) <> None);
  check_bool "repairs counted" true
    (Telemetry.Metrics.find_counter (Telemetry.metrics tel) "runtime.remediations.update_repair"
    = Some 2);
  (* Corrupted insert: lands with a wrong action, read-back repairs it to
     the right one. *)
  let faults =
    { Runtime.Faults.disabled with Runtime.Faults.enabled = true; update_corrupt_prob = 1.0 }
  in
  let config = { Runtime.Controller.default_config with faults } in
  let sim2 = Nicsim.Sim.create target (program ()) in
  let ctl2 = Runtime.Controller.create ~config sim2 ~original:(program ()) in
  Runtime.Controller.insert ctl2 ~table:"t0" (P4ir.Table.entry [ P4ir.Pattern.Exact 88L ] "act");
  let eng2 = Nicsim.Exec.engine_exn (Nicsim.Sim.exec sim2) "t0" in
  match fst (lookup eng2 (Nicsim.Packet.of_fields [ (P4ir.Field.Ipv4_src, 88L) ])) with
  | None -> Alcotest.fail "corrupted insert vanished"
  | Some (e : P4ir.Table.entry) ->
    Alcotest.(check string) "corruption repaired to the requested action" "act" e.P4ir.Table.action

(* --- incremental reconfiguration --- *)

let test_hot_patch_preserves_state () =
  let sim = Nicsim.Sim.create target (program ()) in
  Nicsim.Sim.insert sim ~table:"t0" (P4ir.Table.entry [ P4ir.Pattern.Exact 77L ] "act");
  let rng = Stdx.Prng.create 3L in
  ignore (Nicsim.Sim.run_window sim ~duration:1.0 ~packets:200 ~source:(source rng));
  let counters_before =
    Profile.Counter.owner_total (Nicsim.Exec.counters (Nicsim.Sim.exec sim)) "t0"
  in
  (* Patch in a layout that keeps t0..t3 and adds one table. *)
  let extended =
    P4ir.Program.linear "rt"
      ((List.mapi (fun i f -> mk_table (Printf.sprintf "t%d" i) f) fields)
      @ [ mk_table "extra" P4ir.Field.Udp_dport ])
  in
  let rebuilt = Nicsim.Sim.hot_patch sim extended in
  check_int "only the new table rebuilt" 1 rebuilt;
  let eng = Nicsim.Exec.engine_exn (Nicsim.Sim.exec sim) "t0" in
  check_int "dynamic entries survive" 4 (Nicsim.Engine.num_entries eng);
  let counters_after =
    Profile.Counter.owner_total (Nicsim.Exec.counters (Nicsim.Sim.exec sim)) "t0"
  in
  check_bool "counters survive" true (Int64.equal counters_before counters_after);
  (* A renamed table is a new table (removing the old one rebuilds
     nothing), and a table whose static entries alone changed keeps its
     engine. *)
  let renamed =
    P4ir.Program.linear "rt"
      (mk_table ~entries:5 "t0" P4ir.Field.Ipv4_src
      :: mk_table "brand_new" P4ir.Field.Udp_sport
      :: List.filteri (fun i _ -> i >= 2)
           (List.mapi (fun i f -> mk_table (Printf.sprintf "t%d" i) f) fields))
  in
  check_int "renamed table rebuilt, entry-only change not" 1 (Nicsim.Sim.hot_patch sim renamed);
  check_int "t0 keeps its live entries" 4
    (Nicsim.Engine.num_entries (Nicsim.Exec.engine_exn (Nicsim.Sim.exec sim) "t0"))

let test_incremental_deploy_cheaper () =
  let run mode =
    let config =
      { Runtime.Controller.default_config with
        reconfig_downtime = 3.0;
        min_relative_gain = 1e9;
        deploy_mode = mode }
    in
    let sim, ctl = make_controller ~config () in
    let before = Nicsim.Sim.now sim in
    ignore (Runtime.Controller.deploy ctl (program ()));
    Nicsim.Sim.now sim -. before
  in
  let full = run Runtime.Controller.Full in
  let incr = run Runtime.Controller.Incremental in
  Alcotest.(check (float 1e-6)) "full pays everything" 3.0 full;
  (* Identical program: nothing rebuilt, no downtime at all. *)
  Alcotest.(check (float 1e-6)) "incremental pays nothing for a no-op" 0.0 incr

let drop_shift_controller ?(deploy_mode = Runtime.Controller.Full) ?(telemetry = Telemetry.null)
    ~reconfig_downtime () =
  let acl =
    P4ir.Table.add_entry
      (P4ir.Builder.acl_table ~name:"acl" ~keys:[ P4ir.Builder.exact_key P4ir.Field.Udp_dport ] ())
      (P4ir.Table.entry [ P4ir.Pattern.Exact 666L ] "deny")
  in
  let prog =
    P4ir.Program.linear "rt3"
      ((List.mapi (fun i f -> mk_table (Printf.sprintf "t%d" i) f) fields) @ [ acl ])
  in
  let sim = Nicsim.Sim.create ~telemetry target prog in
  let config =
    { Runtime.Controller.default_config with
      min_relative_gain = 0.01;
      reconfig_downtime;
      deploy_mode;
      optimizer = { Pipeleon.Optimizer.default_config with top_k = 1.0 } }
  in
  let ctl = Runtime.Controller.create ~config sim ~original:prog in
  let rng = Stdx.Prng.create 4L in
  let src =
    Traffic.Workload.mark_fraction rng ~rate:0.7 ~field:P4ir.Field.Udp_dport ~value:666L
      (source rng)
  in
  (sim, ctl, src)

let tick_deploy_seconds (report : Runtime.Controller.tick_report) =
  match report.Runtime.Controller.deploy with
  | Some d -> d.Runtime.Controller.downtime_seconds
  | None -> 0.

let test_tick_reports_deploy_seconds () =
  (* Full deploy charges the whole reconfiguration downtime; Incremental
     charges only per rebuilt table, and a tick that does not redeploy
     charges nothing. The tick's deploy report must equal what the
     simulated clock actually lost. *)
  let run mode =
    let sim, ctl, src = drop_shift_controller ~deploy_mode:mode ~reconfig_downtime:2.5 () in
    ignore (Nicsim.Sim.run_window sim ~duration:5.0 ~packets:2000 ~source:src);
    let before = Nicsim.Sim.now sim in
    let report = Runtime.Controller.tick ctl in
    check_bool "reoptimized" true report.Runtime.Controller.reoptimized;
    Alcotest.(check (float 1e-9)) "deploy downtime matches clock"
      (Nicsim.Sim.now sim -. before) (tick_deploy_seconds report);
    tick_deploy_seconds report
  in
  let full = run Runtime.Controller.Full in
  let incr = run Runtime.Controller.Incremental in
  Alcotest.(check (float 1e-9)) "full pays the whole downtime" 2.5 full;
  check_bool "incremental pays a strict fraction" true (incr < full);
  (* A quiet tick (no traffic since the redeploy) does not redeploy again
     and charges nothing. *)
  let sim, ctl, src = drop_shift_controller ~reconfig_downtime:2.5 () in
  ignore (Nicsim.Sim.run_window sim ~duration:5.0 ~packets:2000 ~source:src);
  ignore (Runtime.Controller.tick ctl);
  let quiet = Runtime.Controller.tick ctl in
  check_bool "quiet tick does not redeploy" false quiet.Runtime.Controller.reoptimized;
  check_bool "quiet tick attempts no deploy" true
    (quiet.Runtime.Controller.deploy = None)

let test_tick_records_runtime_metrics () =
  (* With a telemetry sink on the simulator, tick feeds the runtime.*
     metrics: tick/redeploy counters and the generation gauge. *)
  let tel = Telemetry.create () in
  let sim, ctl, src = drop_shift_controller ~telemetry:tel ~reconfig_downtime:0.5 () in
  ignore (Nicsim.Sim.run_window sim ~duration:5.0 ~packets:2000 ~source:src);
  let report = Runtime.Controller.tick ctl in
  check_bool "reoptimized" true report.Runtime.Controller.reoptimized;
  let m = Telemetry.metrics tel in
  check_bool "ticks counted" true
    (Telemetry.Metrics.find_counter m "runtime.ticks" = Some 1);
  check_bool "redeploys counted" true
    (Telemetry.Metrics.find_counter m "runtime.redeploys" = Some 1);
  check_bool "generation gauge" true
    (Telemetry.Metrics.find_gauge m "runtime.generation" = Some 1.);
  check_bool "deploy cost gauge" true
    (Telemetry.Metrics.find_gauge m "runtime.deploy_seconds"
    = Some (tick_deploy_seconds report));
  check_bool "optimizer ran under the same sink" true
    (Telemetry.Metrics.find_counter m "optimizer.runs" = Some 1)

let () =
  Alcotest.run "runtime"
    [ ( "api-mapping",
        [ Alcotest.test_case "insert reaches engine" `Quick test_insert_reaches_engine;
          Alcotest.test_case "delete roundtrip" `Quick test_delete_roundtrip;
          Alcotest.test_case "unknown table" `Quick test_unknown_table_rejected ] );
      ( "controller",
        [ Alcotest.test_case "tick profile" `Quick test_tick_produces_profile;
          Alcotest.test_case "redeploy on drop shift" `Quick test_redeploy_after_drop_shift;
          Alcotest.test_case "entries survive redeploy" `Quick test_insert_survives_redeploy;
          Alcotest.test_case "downtime" `Quick test_downtime_advances_clock;
          Alcotest.test_case "deploy seconds reported" `Quick test_tick_reports_deploy_seconds;
          Alcotest.test_case "runtime metrics" `Quick test_tick_records_runtime_metrics ] );
      ( "monitors",
        [ Alcotest.test_case "low hit rate" `Quick test_monitor_low_hit_rate;
          Alcotest.test_case "threshold edges" `Quick test_monitor_threshold_edges;
          Alcotest.test_case "storm on regular table" `Quick test_monitor_storm_on_regular_table;
          Alcotest.test_case "update storm" `Quick test_monitor_update_storm ] );
      ( "self-healing",
        [ Alcotest.test_case "persistent failure rolls back" `Quick
            test_persistent_deploy_failure_rolls_back;
          Alcotest.test_case "transient failure retries" `Quick
            test_transient_deploy_failure_retries;
          Alcotest.test_case "backoff deterministic" `Quick test_backoff_deterministic;
          Alcotest.test_case "blacklist ttl" `Quick test_blacklist_ttl;
          Alcotest.test_case "exclusions prevent re-selection" `Quick
            test_exclusions_prevent_reselection;
          Alcotest.test_case "update faults repaired" `Quick test_update_faults_repaired ] );
      ( "incremental",
        [ Alcotest.test_case "hot patch preserves state" `Quick test_hot_patch_preserves_state;
          Alcotest.test_case "deploy cost" `Quick test_incremental_deploy_cheaper ] ) ]
