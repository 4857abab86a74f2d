(* Tests for the fleet-scale control plane: deterministic scheduling
   across domain counts, shared warm-cache gain-transparency,
   remediation gossip, correlated fault bursts, and telemetry rollup. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let target = Costmodel.Target.bluefield2

let fields =
  [ P4ir.Field.Ipv4_src; P4ir.Field.Ipv4_dst; P4ir.Field.Tcp_sport; P4ir.Field.Tcp_dport ]

let mk_table ?(entries = 3) name field =
  P4ir.Table.make ~name
    ~keys:[ P4ir.Builder.exact_key field ]
    ~actions:[ P4ir.Builder.forward_action "act"; P4ir.Action.nop "def" ]
    ~default_action:"def"
    ~entries:
      (List.init entries (fun j ->
           P4ir.Table.entry [ P4ir.Pattern.Exact (Int64.of_int j) ] "act"))
    ()

let program () =
  P4ir.Program.linear "fl"
    (List.mapi (fun i f -> mk_table (Printf.sprintf "t%d" i) f) fields)

let spec ?(nics = 4) ?(seed = 7) ?(share_cache = true) ?(gossip = true)
    ?(common_traffic = false) ?(controller = Runtime.Controller.default_config) () =
  { Fleet.default_spec with
    Fleet.nics;
    seed;
    controller;
    share_cache;
    gossip;
    common_traffic }

let digests reports = Array.to_list (Array.map Fleet.report_digest reports)

(* Drive [rounds] of window + tick and collect every member's digest. *)
let drive ?(rounds = 2) ?(packets = 400) ~domains fleet =
  List.concat_map
    (fun _ ->
      ignore (Fleet.run_window_all ~duration:1.0 ~packets fleet);
      digests (Fleet.tick_all ~domains fleet))
    (List.init rounds Fun.id)

let has_substring s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* Registry equality modulo wall-clock metrics (anything with "seconds"
   in the name) and warm-cache hit/miss accounting (which member races
   to evaluate a shared signature first is scheduling-dependent; the
   resulting values are not): counters and gauges by value, histograms
   bucket by bucket. *)
let registries_equal a b =
  let names_a = Telemetry.Metrics.names a and names_b = Telemetry.Metrics.names b in
  names_a = names_b
  && List.for_all
       (fun name ->
         has_substring name "seconds"
         || has_substring name "optimizer.cache."
         ||
         match (Telemetry.Metrics.find_counter a name, Telemetry.Metrics.find_counter b name)
         with
         | Some x, Some y -> x = y
         | Some _, None | None, Some _ -> false
         | None, None -> (
           match
             (Telemetry.Metrics.find_histogram a name, Telemetry.Metrics.find_histogram b name)
           with
           | Some ha, Some hb ->
             Telemetry.Histogram.bucket_counts ha = Telemetry.Histogram.bucket_counts hb
           | Some _, None | None, Some _ -> false
           | None, None -> (
             match (Telemetry.Metrics.find_gauge a name, Telemetry.Metrics.find_gauge b name)
             with
             | Some x, Some y -> Float.equal x y
             | _ -> false)))
       names_a

let test_tick_deterministic_across_domains () =
  (* Same spec, 1-domain vs 3-domain scheduler: per-NIC tick digests and
     the fleet rollup (per-NIC views included) must be identical. *)
  let mk () = Fleet.create ~spec:(spec ()) target (program ()) in
  let fleet_1 = mk () and fleet_3 = mk () in
  let d1 = drive ~domains:1 fleet_1 and d3 = drive ~domains:3 fleet_3 in
  Alcotest.(check (list string)) "digests identical" d1 d3;
  check_bool "rollups identical" true
    (registries_equal
       (Fleet.rollup ~per_nic:true fleet_1)
       (Fleet.rollup ~per_nic:true fleet_3))

let test_same_seed_reproducible () =
  let mk () = Fleet.create ~spec:(spec ~seed:11 ()) target (program ()) in
  Alcotest.(check (list string)) "same seed, same run"
    (drive ~domains:1 (mk ()))
    (drive ~domains:2 (mk ()))

let test_shared_cache_hits_under_common_traffic () =
  let fleet =
    Fleet.create ~spec:(spec ~common_traffic:true ()) target (program ())
  in
  ignore (Fleet.run_window_all ~duration:1.0 ~packets:400 fleet);
  ignore (Fleet.tick_all fleet);
  match Fleet.shared_cache_stats fleet with
  | None -> Alcotest.fail "shared cache expected"
  | Some (hits, misses) ->
    (* Identical traffic means identical signatures: after the first
       member misses, its peers hit. *)
    check_bool "peers hit the shared cache" true (hits > 0);
    check_bool "someone had to miss first" true (misses > 0)

let test_gossip_propagates_exclusions () =
  (* Storm member 0's t0 through the control-plane API; its Shed
     remediation must land on every peer's blacklist via gossip. *)
  let storm_spec gossip =
    spec ~nics:3 ~gossip
      ~controller:
        { Runtime.Controller.default_config with
          Runtime.Controller.thresholds =
            { Runtime.Monitor.default_thresholds with Runtime.Monitor.update_limit = 5. } }
      ()
  in
  let run ~gossip =
    let fleet = Fleet.create ~spec:(storm_spec gossip) target (program ()) in
    ignore (Fleet.run_window_all ~duration:1.0 ~packets:200 fleet);
    let ctl0 = Fleet.controller (Fleet.member fleet 0) in
    for j = 0 to 49 do
      Runtime.Controller.insert ctl0 ~table:"t0"
        (P4ir.Table.entry [ P4ir.Pattern.Exact (Int64.of_int (500 + j)) ] "act")
    done;
    let reports = Fleet.tick_all fleet in
    (reports, fleet)
  in
  let reports, fleet = run ~gossip:true in
  let shed =
    List.concat_map Runtime.Remediate.exclusions_of_action
      reports.(0).Runtime.Controller.remediations
  in
  check_bool "member 0 shed t0" true
    (shed <> [] && List.for_all (fun (name, _) -> String.equal name "t0") shed);
  (* A peer counts each exclusion it newly bans; re-adopting a ban that
     is still in force counts nothing. *)
  let adopted fleet i =
    Option.value ~default:0
      (Telemetry.Metrics.find_counter
         (Fleet.rollup ~per_nic:true fleet)
         (Printf.sprintf "fleet.nic%d.runtime.gossip.adopted" i))
  in
  let readopt fleet i =
    Runtime.Controller.adopt_exclusions (Fleet.controller (Fleet.member fleet i)) shed
  in
  List.iter
    (fun i ->
      check_int (Printf.sprintf "peer %d adopted every ban" i) (List.length shed)
        (adopted fleet i);
      readopt fleet i;
      check_int (Printf.sprintf "peer %d bans in force" i) (List.length shed) (adopted fleet i))
    [ 1; 2 ];
  let _, fleet_off = run ~gossip:false in
  check_int "no gossip, no adoption" 0 (adopted fleet_off 1);
  readopt fleet_off 1;
  check_int "no gossip, no ban in force" (List.length shed) (adopted fleet_off 1)

let test_correlated_fault_burst () =
  (* Every member's first two deploy attempts fail; the rolling redeploy
     must install everywhere on the third try after two rollbacks. *)
  let controller =
    { Runtime.Controller.default_config with
      Runtime.Controller.faults =
        { Runtime.Faults.disabled with
          Runtime.Faults.enabled = true;
          deploy_fail_burst = 2 } }
  in
  let fleet = Fleet.create ~spec:(spec ~controller ()) target (program ()) in
  Array.iteri
    (fun i (d : Runtime.Controller.deploy_report) ->
      check_bool (Printf.sprintf "nic%d installed" i) true d.Runtime.Controller.installed;
      check_int (Printf.sprintf "nic%d attempts" i) 3 d.Runtime.Controller.attempts;
      check_int (Printf.sprintf "nic%d rollbacks" i) 2 d.Runtime.Controller.rollbacks)
    (Fleet.rolling_redeploy fleet);
  let m = Fleet.rollup fleet in
  check_int "fleet-wide rollbacks" 8
    (Option.value ~default:0
       (Telemetry.Metrics.find_counter m "runtime.remediations.rollback"))

let test_rollup_per_nic_views () =
  let fleet = Fleet.create ~spec:(spec ~nics:3 ()) target (program ()) in
  ignore (Fleet.run_window_all ~duration:1.0 ~packets:200 fleet);
  ignore (Fleet.tick_all fleet);
  let m = Fleet.rollup ~per_nic:true fleet in
  let count name = Option.value ~default:0 (Telemetry.Metrics.find_counter m name) in
  check_int "fleet total ticks" 3 (count "runtime.ticks");
  check_int "per-nic view" 1 (count "fleet.nic0.runtime.ticks");
  check_int "per-nic views sum to the total" (count "runtime.ticks")
    (count "fleet.nic0.runtime.ticks"
    + count "fleet.nic1.runtime.ticks"
    + count "fleet.nic2.runtime.ticks")

let test_adopt_exclusions_bans () =
  let tel = Telemetry.create () in
  let sim = Nicsim.Sim.create ~telemetry:tel target (program ()) in
  let ctl = Runtime.Controller.create sim ~original:(program ()) in
  let adopted () =
    Option.value ~default:0
      (Telemetry.Metrics.find_counter (Telemetry.metrics tel) "runtime.gossip.adopted")
  in
  let t1_cache = ("t1", Pipeleon.Candidate.Cache_seg)
  and t2_merge = ("t2", Pipeleon.Candidate.Merge_ternary_seg) in
  Runtime.Controller.adopt_exclusions ctl [ t1_cache; t2_merge ];
  check_int "both bans adopted" 2 (adopted ());
  (* Adoption counts only exclusions not already banned. *)
  Runtime.Controller.adopt_exclusions ctl [ t1_cache ];
  check_int "t1 cache ban active" 2 (adopted ());
  Runtime.Controller.adopt_exclusions ctl [ t2_merge ];
  check_int "t2 merge ban active" 2 (adopted ());
  Runtime.Controller.adopt_exclusions ctl [ ("t1", Pipeleon.Candidate.Merge_ternary_seg) ];
  check_int "other kinds stay allowed" 3 (adopted ())

(* QCheck: a shared warm cache is gain-transparent — for any seed, a
   fleet sharing one cache produces, member for member and tick for
   tick, the same reports as a fleet of private caches (the signature
   contract: equal keys, equal evaluations). Common traffic makes the
   shared cache actually hit, so the property is not vacuous. *)
let prop_shared_cache_gain_identical =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:10 ~name:"shared cache is gain-identical to private caches"
       QCheck2.Gen.(int_range 0 1000)
       (fun seed ->
         let prog =
           Fuzz.Gen.program
             ~params:{ Fuzz.Gen.default_params with Fuzz.Gen.max_tables = 4 }
             (Stdx.Prng.create (Int64.of_int (seed + 1)))
         in
         let mk share_cache =
           Fleet.create
             ~spec:(spec ~nics:3 ~seed ~share_cache ~common_traffic:true ())
             target prog
         in
         let shared = mk true and private_ = mk false in
         drive ~rounds:2 ~packets:200 ~domains:1 shared
         = drive ~rounds:2 ~packets:200 ~domains:1 private_))

let () =
  Alcotest.run "fleet"
    [ ( "determinism",
        [ Alcotest.test_case "1-domain vs 3-domain" `Quick
            test_tick_deterministic_across_domains;
          Alcotest.test_case "same seed reproducible" `Quick test_same_seed_reproducible ] );
      ( "shared-cache",
        [ Alcotest.test_case "hits under common traffic" `Quick
            test_shared_cache_hits_under_common_traffic;
          prop_shared_cache_gain_identical ] );
      ( "gossip",
        [ Alcotest.test_case "exclusions propagate" `Quick test_gossip_propagates_exclusions;
          Alcotest.test_case "adopt_exclusions bans" `Quick test_adopt_exclusions_bans ] );
      ( "chaos",
        [ Alcotest.test_case "correlated fault burst" `Quick test_correlated_fault_burst ] );
      ( "telemetry",
        [ Alcotest.test_case "per-nic rollup views" `Quick test_rollup_per_nic_views ] ) ]
