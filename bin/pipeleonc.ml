(* pipeleonc: the offline Pipeleon optimizer CLI.

   Reads a program in the JSON intermediate format (what a P4 compiler
   front-end would emit), optionally a profile, optimizes, and writes the
   rewritten JSON — the source-to-source flow of §5.1. Also exposes
   inspection subcommands (pipelets, cost estimation, validation) and the
   differential fuzzer, including the self-healing-runtime chaos mode.

   Everything shared across subcommands — program/profile loading, target
   selection, budget flags, telemetry sinks — lives in Cli_common. *)

open Cmdliner
open Cli_common

let optimize_cmd =
  let output_arg =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"OUT.json" ~doc:"Output path (default stdout).")
  in
  let top_k_arg =
    Arg.(value & opt float 0.2
         & info [ "k"; "top-k" ] ~docv:"FRACTION" ~doc:"Fraction of pipelets to optimize.")
  in
  let run path target profile_path top_k memory updates output =
    let prog = read_program path in
    let prof = load_profile prog profile_path in
    let config =
      { Pipeleon.Optimizer.default_config with
        top_k;
        budget = budget_of ~memory ~updates }
    in
    (* A fresh warm-start cache: one-shot runs always miss, but the
       describe output then carries the cache line, so the hit rate is
       visible wherever optimize output is read. *)
    let warm =
      { Pipeleon.Optimizer.warm_cache = Pipeleon.Search.create_cache ();
        warm_signature = Runtime.Incremental.pipelet_signature }
    in
    let result = Pipeleon.Optimizer.optimize ~config ~warm target prof prog in
    prerr_string (Pipeleon.Optimizer.describe result);
    (match output with
     | Some out -> write_program out result.Pipeleon.Optimizer.program
     | None -> print_string (P4ir.Serialize.to_string result.Pipeleon.Optimizer.program))
  in
  Cmd.v
    (Cmd.info "optimize"
       ~doc:
         "Optimize a program for a SmartNIC target. Input and output may be \
          the JSON IR (.json) or P4-lite source (.p4l).")
    Term.(const run $ program_arg $ target_arg $ profile_arg $ top_k_arg $ memory_arg
          $ updates_arg $ output_arg)

let tune_cmd =
  let budget_arg =
    Arg.(value & opt int 32
         & info [ "budget" ] ~docv:"N" ~doc:"Maximum assignments evaluated by the sweep.")
  in
  let radius_arg =
    Arg.(value & opt int 1
         & info [ "radius" ] ~docv:"N"
             ~doc:"Neighborhood radius in domain steps around the default assignment.")
  in
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"TUNE.json"
             ~doc:"Write the Pareto front and chosen assignment as JSON.")
  in
  let run path target profile_path budget radius memory updates output =
    let prog = read_program path in
    let prof = load_profile prog profile_path in
    let config =
      { Pipeleon.Optimizer.default_config with budget = budget_of ~memory ~updates }
    in
    let warm =
      { Pipeleon.Optimizer.warm_cache = Pipeleon.Search.create_cache ();
        warm_signature = Runtime.Incremental.pipelet_signature }
    in
    let ex = Pipeleon.Tune.explore ~budget ~radius ~warm ~config target prof prog in
    print_string (Pipeleon.Tune.describe ex);
    match output with
    | None -> ()
    | Some out ->
      let open P4ir.Json in
      let value_json = function
        | Pipeleon.Tune.Int v -> Int (Int64.of_int v)
        | Pipeleon.Tune.Float v -> Float v
      in
      let point_json (p : Pipeleon.Tune.point) =
        let o = p.Pipeleon.Tune.objectives in
        Obj
          [ ("assignment",
             Obj
               (List.map
                  (fun (k, v) -> (k, value_json v))
                  (Pipeleon.Tune.to_list p.Pipeleon.Tune.assignment)));
            ("latency", Float o.Pipeleon.Tune.latency);
            ("memory", Int (Int64.of_int o.Pipeleon.Tune.memory));
            ("update_rate", Float o.Pipeleon.Tune.update_rate);
            ("within_budget", Bool p.Pipeleon.Tune.within_budget);
            ("predicted_gain", Float p.Pipeleon.Tune.predicted_gain) ]
      in
      let st = ex.Pipeleon.Tune.stats in
      (* No explore_seconds in the artifact: everything written is
         deterministic in (program, profile, flags). *)
      let json =
        Obj
          [ ("chosen", point_json ex.Pipeleon.Tune.chosen);
            ("start", point_json ex.Pipeleon.Tune.start_point);
            ("front", List (List.map point_json ex.Pipeleon.Tune.front));
            ("stats",
             Obj
               [ ("evaluated", Int (Int64.of_int st.Pipeleon.Tune.evaluated));
                 ("front_size", Int (Int64.of_int st.Pipeleon.Tune.front_size));
                 ("cache_hits", Int (Int64.of_int st.Pipeleon.Tune.cache_hits));
                 ("cache_misses", Int (Int64.of_int st.Pipeleon.Tune.cache_misses)) ]) ]
      in
      write_text out (to_string ~indent:2 json ^ "\n")
  in
  Cmd.v
    (Cmd.info "tune"
       ~doc:
         "Explore the tunable-parameter design space (Pipeleon.Tune): sweep a \
          bounded neighborhood of the registry defaults through the analytic \
          evaluator, print the Pareto front over latency / memory / update rate \
          with the chosen point starred, and optionally dump it as JSON.")
    Term.(const run $ program_arg $ target_arg $ profile_arg $ budget_arg $ radius_arg
          $ memory_arg $ updates_arg $ out_arg)

let cost_cmd =
  let run path target profile_path =
    let prog = read_program path in
    let prof = load_profile prog profile_path in
    let latency = Costmodel.Cost.expected_latency target prof prog in
    Printf.printf "expected latency: %.3f units\n" latency;
    Printf.printf "throughput estimate: %.1f Gbps\n"
      (Costmodel.Target.throughput_gbps target ~latency);
    Printf.printf "memory: %d bytes\n" (Costmodel.Resource.program_memory target prog)
  in
  Cmd.v
    (Cmd.info "cost" ~doc:"Estimate a program's cost under the model.")
    Term.(const run $ program_arg $ target_arg $ profile_arg)

let pipelets_cmd =
  let run path target profile_path =
    let prog = read_program path in
    let prof = load_profile prog profile_path in
    let pipelets = Pipeleon.Pipelet.form prog in
    let hots = Pipeleon.Hotspot.rank target prof prog pipelets in
    List.iter
      (fun (h : Pipeleon.Hotspot.hot) ->
        Format.printf "%a cost=%.3f reach=%.3f@." Pipeleon.Pipelet.pp h.pipelet
          h.weighted_cost h.reach_prob)
      hots
  in
  Cmd.v
    (Cmd.info "pipelets" ~doc:"Show pipelets ranked by hotspot cost.")
    Term.(const run $ program_arg $ target_arg $ profile_arg)

let profile_cmd =
  let trace_arg =
    Arg.(required & opt (some file) None
         & info [ "trace" ] ~docv:"TRACE.csv" ~doc:"Packet trace to replay (Traffic.Trace CSV).")
  in
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"PROFILE.json" ~doc:"Where to write the profile.")
  in
  let packets_arg =
    Arg.(value & opt int 10_000 & info [ "packets" ] ~docv:"N" ~doc:"Packets to simulate.")
  in
  let run path target trace_path packets output =
    let prog = read_program path in
    let trace = Traffic.Trace.load trace_path in
    let sim = Nicsim.Sim.create target prog in
    let stats =
      Nicsim.Sim.run_window sim ~duration:1.0 ~packets
        ~source:(Traffic.Trace.replay trace)
    in
    Printf.eprintf "simulated %d packets: latency %.2f, throughput %.1f Gbps, drops %.1f%%\n"
      packets stats.Nicsim.Sim.avg_latency stats.Nicsim.Sim.throughput_gbps
      (stats.Nicsim.Sim.drop_fraction *. 100.);
    let prof = Nicsim.Sim.current_profile sim in
    let json = P4ir.Json.to_string ~indent:2 (profile_to_json prog prof) in
    match output with
    | Some out -> write_text out json
    | None -> print_string json
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Replay a trace against a program in the simulator and emit the runtime \
          profile that `optimize -p` consumes.")
    Term.(const run $ program_arg $ target_arg $ trace_arg $ packets_arg $ out_arg)

let telemetry_cmd =
  let trace_arg =
    Arg.(required & opt (some file) None
         & info [ "trace" ] ~docv:"TRACE.csv" ~doc:"Packet trace to replay (Traffic.Trace CSV).")
  in
  let packets_arg =
    Arg.(value & opt int 10_000
         & info [ "packets" ] ~docv:"N" ~doc:"Packets to simulate per window.")
  in
  let windows_arg =
    Arg.(value & opt int 1 & info [ "windows" ] ~docv:"N" ~doc:"Windows to simulate.")
  in
  let format_arg =
    Arg.(value & opt (enum [ ("json", `Json); ("prometheus", `Prometheus) ]) `Json
         & info [ "format" ] ~docv:"FORMAT" ~doc:"Metrics exposition: json or prometheus.")
  in
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"METRICS" ~doc:"Where to write the metrics (default stdout).")
  in
  let trace_out_arg =
    Arg.(value & opt (some string) None
         & info [ "trace-out" ] ~docv:"TRACE.json"
             ~doc:"Record sampled packet walks and write them as chrome://tracing \
                   (Perfetto) JSON to this file.")
  in
  let sample_arg =
    Arg.(value & opt int 64
         & info [ "trace-sample" ] ~docv:"N" ~doc:"Trace one packet in every N.")
  in
  let run path target trace_path packets windows format output trace_out sample =
    let prog = read_program path in
    let trace = Traffic.Trace.load trace_path in
    let tel = make_sink ~trace_out ~sample ~enabled:true () in
    let sim = Nicsim.Sim.create ~telemetry:tel target prog in
    for _ = 1 to windows do
      ignore
        (Nicsim.Sim.run_window sim ~duration:1.0 ~packets
           ~source:(Traffic.Trace.replay trace))
    done;
    let m = Telemetry.metrics tel in
    let text =
      match format with
      | `Json -> P4ir.Json.to_string ~indent:2 (Telemetry.Metrics.to_json m) ^ "\n"
      | `Prometheus -> Telemetry.Metrics.to_prometheus m
    in
    (match output with Some out -> write_text out text | None -> print_string text);
    match (trace_out, Telemetry.trace tel) with
    | Some out, Some ring ->
      Telemetry.Trace.write_file ~process_name:(P4ir.Program.name prog) ring out
    | _ -> ()
  in
  Cmd.v
    (Cmd.info "telemetry"
       ~doc:
         "Replay a trace with the telemetry sink enabled and emit the metrics \
          registry (counters, gauges, latency histograms) as JSON or Prometheus \
          text; optionally record sampled packet walks as chrome://tracing JSON.")
    Term.(const run $ program_arg $ target_arg $ trace_arg $ packets_arg $ windows_arg
          $ format_arg $ out_arg $ trace_out_arg $ sample_arg)

let graph_cmd =
  let deps_arg =
    Arg.(value & flag
         & info [ "deps" ] ~doc:"Emit the table dependency graph instead of the program DAG.")
  in
  let run path target profile_path deps =
    let prog = read_program path in
    if deps then print_string (P4ir.Dot.dependencies prog)
    else begin
      ignore target;
      let prog_reach =
        let prof = load_profile prog profile_path in
        let reach = Costmodel.Cost.reach_probs prof prog in
        fun id -> List.assoc_opt id reach
      in
      print_string (P4ir.Dot.program ~reach:prog_reach prog)
    end
  in
  Cmd.v
    (Cmd.info "graph" ~doc:"Emit Graphviz DOT for the program or its dependencies.")
    Term.(const run $ program_arg $ target_arg $ profile_arg $ deps_arg)

let translate_cmd =
  let output_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"OUT.{json|p4l}")
  in
  let run path output =
    write_program output (read_program path)
  in
  Cmd.v
    (Cmd.info "translate" ~doc:"Convert between P4-lite source and the JSON IR.")
    Term.(const run $ program_arg $ output_arg)

let validate_cmd =
  let run path =
    let prog = read_program path in
    match P4ir.Program.validate prog with
    | Ok () ->
      Printf.printf "ok: %d nodes, %d tables\n" (P4ir.Program.num_nodes prog)
        (List.length (P4ir.Program.tables prog))
    | Error msg ->
      Printf.eprintf "invalid: %s\n" msg;
      exit 1
  in
  Cmd.v (Cmd.info "validate" ~doc:"Validate a program file.") Term.(const run $ program_arg)

(* Flags shared by the fuzzing entry points (fuzz and chaos). *)
let seed_arg =
  Arg.(value & opt int 0 & info [ "seed" ] ~docv:"N" ~doc:"Generator seed.")

let fuzz_budget_arg ~default =
  Arg.(value & opt int default & info [ "budget" ] ~docv:"N" ~doc:"Number of generated cases.")

let fuzz_packets_arg =
  Arg.(value & opt int 64 & info [ "packets" ] ~docv:"N" ~doc:"Packets replayed per case.")

let fuzz_out_arg =
  Arg.(value & opt string "_fuzz"
       & info [ "o"; "out" ] ~docv:"DIR"
           ~doc:"Where shrunk repro bundles are written; \"none\" disables writing.")

let at_packet (d : Fuzz.Oracle.divergence) =
  if d.packet_index >= 0 then Printf.sprintf "packet %d: " d.packet_index else ""

let report_findings report =
  print_string (Fuzz.Driver.summary report);
  if report.Fuzz.Driver.findings <> [] then exit 1

let fuzz_cmd =
  let mode_conv =
    let parse s =
      match Fuzz.Driver.mode_of_string s with
      | Some m -> Ok m
      | None ->
        Error (`Msg ("unknown mode: " ^ s ^ " (sim-diff|optim-equiv|serialize-roundtrip|chaos)"))
    in
    Arg.conv (parse, fun fmt m -> Format.pp_print_string fmt (Fuzz.Driver.mode_to_string m))
  in
  let mode_arg =
    Arg.(value & opt mode_conv Fuzz.Driver.Optim_equiv
         & info [ "m"; "mode" ] ~docv:"MODE"
             ~doc:"Oracle: sim-diff (Refsim reference vs simulator, latency included), \
                   optim-equiv (original vs optimized program), serialize-roundtrip, or \
                   chaos (self-healing runtime under fault injection).")
  in
  let mutant_arg =
    Arg.(value & opt (some string) None
         & info [ "mutant" ] ~docv:"NAME"
             ~doc:"Corrupt the optimized program with a seeded bug (oracle self-test); one \
                   of drop-merged-entry, swap-cache-skip, corrupt-entry-action, flip-cond.")
  in
  let replay_arg =
    Arg.(value & opt (some dir) None
         & info [ "replay" ] ~docv:"DIR" ~doc:"Re-run a repro bundle instead of fuzzing.")
  in
  let rules_arg =
    Arg.(value & opt (some int) None
         & info [ "rules" ] ~docv:"N"
             ~doc:"Rule-scale mode: give every generated table N/2..N entries (single-key \
                   tables, 24-bit values, pooled ternary masks, no range tables) so \
                   sim-diff exercises the LPM and ternary probes over many groups at \
                   scale (docs/PERF.md \"Rule-scale tables\").")
  in
  let autotune_arg =
    let autotune_flag =
      Arg.(value & flag
           & info [ "autotune" ]
               ~doc:"Pick each case's optimizer config by a small design-space \
                     exploration (Pipeleon.Tune) before proving the rewrite. Needs \
                     --mode optim-equiv.")
    in
    let needs_optim_equiv mode autotune =
      if autotune && mode <> Fuzz.Driver.Optim_equiv then
        `Error (true, "--autotune needs --mode optim-equiv")
      else `Ok autotune
    in
    Term.(ret (const needs_optim_equiv $ mode_arg $ autotune_flag))
  in
  let run mode seed budget packets out mutant replay telemetry target rules autotune =
    let mutate =
      Option.map
        (fun name ->
          match Fuzz.Mutate.find name with
          | Some m -> m
          | None ->
            Printf.eprintf "unknown mutant: %s\n" name;
            exit 2)
        mutant
    in
    match replay with
    | Some dir -> (
      match
        Fuzz.Driver.replay ~autotune ?mutate ~telemetry ~target
          mode ~dir
      with
      | None ->
        print_endline "replay: no divergence";
        exit 0
      | Some d ->
        Printf.printf "replay: divergence%s: %s\n"
          (if d.Fuzz.Oracle.packet_index >= 0 then
             Printf.sprintf " at packet %d" d.Fuzz.Oracle.packet_index
           else "")
          d.Fuzz.Oracle.reason;
        exit 1)
    | None ->
      let out_dir = if out = "none" then None else Some out in
      let params =
        Option.map
          (fun n ->
            { Fuzz.Gen.default_params with
              Fuzz.Gen.rules = Some (max 1 n);
              value_bits = 24;
              max_keys = 1;
              allow_range = false })
          rules
      in
      report_findings
        (Fuzz.Driver.run ?out_dir ~autotune ?mutate ?params
           ~n_packets:packets ~telemetry ~target mode ~seed ~budget)
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential conformance fuzzing: generate random programs, profiles and \
          packet streams; replay them through independent executions; shrink and \
          persist any divergence.")
    Term.(const run $ mode_arg $ seed_arg $ fuzz_budget_arg ~default:200 $ fuzz_packets_arg
          $ fuzz_out_arg $ mutant_arg $ replay_arg $ telemetry_flag
          $ target_arg $ rules_arg $ autotune_arg)

let chaos_cmd =
  let remediations_arg =
    Arg.(value & flag
         & info [ "remediations" ]
             ~doc:"After the run, print the aggregated runtime.remediations.* counters \
                   (rollbacks, retries, update repairs, ...) — what the injector \
                   provoked and the controller healed. Runs every case under one \
                   shared telemetry sink.")
  in
  (* Chaos cases cost a whole control loop each (several ticks, deploys,
     rollbacks), so the default budget is far below fuzz's. *)
  let run seed budget packets out telemetry remediations target =
    let out_dir = if out = "none" then None else Some out in
    if not remediations then
      report_findings
        (Fuzz.Driver.run ?out_dir ~n_packets:packets ~telemetry ~target
           Fuzz.Driver.Chaos ~seed ~budget)
    else begin
      (* One sink across all cases, so the remediation counters aggregate
         over the whole run. Same per-case generators as Driver.run, so
         the same seed fuzzes the same cases either way. *)
      let sink = Telemetry.create () in
      Printf.printf "fuzz mode=chaos seed=%d budget=%d packets/case=%d\n" seed budget packets;
      let divergences = ref 0 in
      for i = 0 to budget - 1 do
        let case = Fuzz.Gen.case ~n_packets:packets (Fuzz.Driver.case_rng ~seed i) in
        match Fuzz.Chaos.check ~sink target case with
        | None -> ()
        | Some d ->
          incr divergences;
          Printf.printf "case %d: %s%s\n" i (at_packet d) d.Fuzz.Oracle.reason
      done;
      let m = Telemetry.metrics sink in
      let count name =
        Option.value ~default:0 (Telemetry.Metrics.find_counter m ("runtime.remediations." ^ name))
      in
      Printf.printf "remediations: rollback=%d retry=%d update_repair=%d\n"
        (count "rollback") (count "retry") (count "update_repair");
      Printf.printf "reversals: cache_evict=%d merge_split=%d shed=%d\n"
        (count "cache_evict") (count "merge_split") (count "shed");
      Printf.printf "divergences=%d cases=%d\n" !divergences budget;
      if !divergences > 0 then exit 1
    end
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Fuzz the self-healing runtime: drive a live controller with fault \
          injection enabled (failed deploys, dropped and corrupted entry updates, \
          skewed profile counters) and require it to converge back to a healthy \
          layout with forwarding bit-identical to the Refsim reference \
          throughout. Equivalent to `fuzz --mode chaos`.")
    Term.(const run $ seed_arg $ fuzz_budget_arg ~default:25 $ fuzz_packets_arg
          $ fuzz_out_arg $ telemetry_flag $ remediations_arg $ target_arg)

(* --- fleet: many controllers as one deployment (lib/fleet) --- *)

let nics_arg =
  Arg.(value & opt int 4 & info [ "nics" ] ~docv:"N" ~doc:"Fleet size (member NICs).")

let fleet_run_cmd =
  let ticks_arg =
    Arg.(value & opt int 3
         & info [ "ticks" ] ~docv:"N" ~doc:"Control-loop rounds (window + tick each).")
  in
  let packets_arg =
    Arg.(value & opt int 256
         & info [ "packets" ] ~docv:"N" ~doc:"Sampled packets per member per window.")
  in
  let domains_arg =
    Arg.(value & opt int 1
         & info [ "domains" ] ~docv:"N"
             ~doc:"OCaml domains sharding the tick scheduler; reports are identical \
                   for any value.")
  in
  let no_share_arg =
    Arg.(value & flag
         & info [ "no-share-cache" ]
             ~doc:"Give every member a private warm-start cache instead of the \
                   fleet-shared one (plans are identical either way; only search \
                   time differs).")
  in
  let no_gossip_arg =
    Arg.(value & flag
         & info [ "no-gossip" ]
             ~doc:"Do not propagate remediation exclusions between members.")
  in
  let fault_burst_arg =
    Arg.(value & opt int 0
         & info [ "fault-burst" ] ~docv:"N"
             ~doc:"Correlated fault burst: every member's first N deploy attempts \
                   fail deterministically (rollback + retry must hold fleet-wide).")
  in
  let common_traffic_arg =
    Arg.(value & flag
         & info [ "common-traffic" ]
             ~doc:"All members replay member 0's flow stream (identical profiles, \
                   so the shared cache hits); default is per-member flows.")
  in
  let rolling_arg =
    Arg.(value & flag
         & info [ "rolling" ]
             ~doc:"After the ticks, re-install every member's deployed layout one \
                   member at a time through the verified deploy path (the rolling-\
                   redeploy drill; combine with --fault-burst).")
  in
  let run path target nics ticks packets seed domains no_share no_gossip fault_burst
      common_traffic rolling =
    let prog = read_program path in
    let faults =
      if fault_burst > 0 then
        { Runtime.Faults.disabled with
          Runtime.Faults.enabled = true;
          deploy_fail_burst = fault_burst }
      else Runtime.Faults.disabled
    in
    let spec =
      { Fleet.default_spec with
        Fleet.nics;
        seed;
        controller = { Runtime.Controller.default_config with faults };
        share_cache = not no_share;
        gossip = not no_gossip;
        common_traffic }
    in
    let fleet = Fleet.create ~spec target prog in
    Printf.printf "fleet: nics=%d seed=%d domains=%d share-cache=%b gossip=%b\n" nics seed
      domains (not no_share) (not no_gossip);
    for t = 1 to ticks do
      ignore (Fleet.run_window_all ~duration:1.0 ~packets fleet);
      let reports = Fleet.tick_all ~domains fleet in
      Printf.printf "tick %d\n" t;
      Array.iteri
        (fun i r -> Printf.printf "  nic%d %s\n" i (Fleet.report_digest r))
        reports
    done;
    if rolling then begin
      print_endline "rolling redeploy";
      Array.iteri
        (fun i (d : Runtime.Controller.deploy_report) ->
          Printf.printf "  nic%d installed=%b gen=%d attempts=%d rollbacks=%d down=%.3f\n"
            i d.Runtime.Controller.installed d.Runtime.Controller.generation
            d.Runtime.Controller.attempts d.Runtime.Controller.rollbacks
            d.Runtime.Controller.downtime_seconds)
        (Fleet.rolling_redeploy fleet)
    end;
    let m = Fleet.rollup fleet in
    let count name = Option.value ~default:0 (Telemetry.Metrics.find_counter m name) in
    Printf.printf "rollup: ticks=%d redeploys=%d rollbacks=%d gossip_adopted=%d\n"
      (count "runtime.ticks") (count "runtime.redeploys")
      (count "runtime.remediations.rollback")
      (count "runtime.gossip.adopted");
    match Fleet.shared_cache_stats fleet with
    | Some (hits, misses) -> Printf.printf "shared cache: hits=%d misses=%d\n" hits misses
    | None -> ()
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Run a fleet of controllers over one program: each member simulates its \
          own traffic and ticks its own control loop, sharing the warm-start cache \
          and gossiping remediation exclusions. Output is deterministic in the seed \
          (and independent of --domains).")
    Term.(const run $ program_arg $ target_arg $ nics_arg $ ticks_arg $ packets_arg
          $ seed_arg $ domains_arg $ no_share_arg $ no_gossip_arg $ fault_burst_arg
          $ common_traffic_arg $ rolling_arg)

let fleet_chaos_cmd =
  (* Each case costs nics fleet members plus nics solo twins, every one a
     full chaos control loop — the default budget is tiny. *)
  let run seed budget packets nics target =
    let sink = Telemetry.create () in
    Printf.printf "fleet chaos seed=%d budget=%d nics=%d packets/case=%d\n" seed budget
      nics packets;
    let divergences = ref 0 in
    for i = 0 to budget - 1 do
      let case = Fuzz.Gen.case ~n_packets:packets (Fuzz.Driver.case_rng ~seed i) in
      match Fuzz.Fleet_oracle.check ~nics ~sink target case with
      | None -> ()
      | Some d ->
        incr divergences;
        Printf.printf "case %d: %s%s\n" i (at_packet d) d.Fuzz.Oracle.reason
    done;
    let m = Telemetry.metrics sink in
    let count name = Option.value ~default:0 (Telemetry.Metrics.find_counter m name) in
    Printf.printf "remediations: rollback=%d retry=%d update_repair=%d gossip_adopted=%d\n"
      (count "runtime.remediations.rollback")
      (count "runtime.remediations.retry")
      (count "runtime.remediations.update_repair")
      (count "runtime.gossip.adopted");
    Printf.printf "divergences=%d cases=%d\n" !divergences budget;
    if !divergences > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Fuzz the fleet couplings: for each generated case, run an n-member fleet \
          (shared cache + gossip, fault injection per member) next to n solo twin \
          controllers and require every member to forward its packet shard \
          bit-identically to the Refsim reference and to its twin, through \
          churn, faults, and fleet ticks.")
    Term.(const run $ seed_arg $ fuzz_budget_arg ~default:6 $ fuzz_packets_arg
          $ nics_arg $ target_arg)

let fleet_cmd =
  Cmd.group
    (Cmd.info "fleet"
       ~doc:
         "Fleet-scale control plane: orchestrate many runtime controllers with a \
          shared warm-start cache, remediation gossip, and telemetry rollup \
          (docs/FLEET.md).")
    [ fleet_run_cmd; fleet_chaos_cmd ]

let () =
  let info =
    Cmd.info "pipeleonc" ~version:"1.0.0"
      ~doc:"Profile-guided P4 optimizer for SmartNICs (Pipeleon reproduction)"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ optimize_cmd; tune_cmd; cost_cmd; profile_cmd; telemetry_cmd; pipelets_cmd;
            graph_cmd; translate_cmd; validate_cmd; fuzz_cmd; chaos_cmd; fleet_cmd ]))
