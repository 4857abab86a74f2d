(* Tests for the pipeline compiler (Nicsim.Compile) and the compiled
   window drivers: op-array flattening (layout, resolved successors,
   branching, switch-case), and the differential harness proving the
   compiled data path bit-identical to the interpreter — window stats,
   profile counters, per-packet latencies, telemetry metrics and spans,
   flow-cache fills, replicas, and incremental recompilation. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let target = Costmodel.Target.bluefield2

let qtest ?(count = 50) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* --- fixtures --- *)

let fields =
  [| P4ir.Field.Ipv4_src; P4ir.Field.Ipv4_dst; P4ir.Field.Tcp_sport; P4ir.Field.Tcp_dport |]

let mk_table ?(extra_action = false) i ~entries =
  let field = fields.(i mod Array.length fields) in
  let actions =
    [ P4ir.Action.make "seta" [ P4ir.Action.Set_field (P4ir.Field.Meta (i + 1), 1L) ];
      P4ir.Action.make "setb" [ P4ir.Action.Set_field (P4ir.Field.Meta (i + 1), 2L) ] ]
    @ (if extra_action then [ P4ir.Action.nop "extra" ] else [])
  in
  let tab =
    P4ir.Table.make ~name:(Printf.sprintf "t%d" i)
      ~keys:[ P4ir.Table.key field P4ir.Match_kind.Exact ]
      ~actions ~default_action:"setb" ()
  in
  List.fold_left
    (fun tab v -> P4ir.Table.add_entry tab (P4ir.Table.entry [ P4ir.Pattern.Exact v ] "seta"))
    tab entries

let chain n = List.init n (fun i -> mk_table i ~entries:[ 1L; 2L; 3L ])

let zipf_source seed =
  let rng = Stdx.Prng.create seed in
  let pop = Traffic.Workload.random_flows rng ~n:56 ~fields:(Array.to_list fields) in
  let hitting =
    Array.init 8 (fun i ->
        List.map (fun f -> (f, Int64.of_int ((i mod 3) + 1))) (Array.to_list fields))
  in
  Traffic.Workload.of_flows ~zipf_s:1.1 (Stdx.Prng.create 99L) (Array.append pop hitting)

let the_pipelet prog =
  match Pipeleon.Pipelet.form prog with
  | [ p ] -> p
  | ps -> Alcotest.failf "expected one pipelet, got %d" (List.length ps)

let cached_prog () =
  let tabs = chain 3 in
  let prog = P4ir.Program.linear "cache-fix" tabs in
  let p = the_pipelet prog in
  let cache = Pipeleon.Cache.build ~name:"c0" ~capacity:64 ~insert_limit:1e9 tabs in
  Pipeleon.Transform.apply prog p [ Pipeleon.Transform.Cached { cache; originals = tabs } ]

let merged_prog () =
  let tabs = chain 2 in
  let prog = P4ir.Program.linear "merge-fix" tabs in
  let p = the_pipelet prog in
  let merged = Pipeleon.Merge.build_ternary ~name:"m01" tabs in
  Pipeleon.Transform.apply prog p
    [ Pipeleon.Transform.Merged_plain { merged; originals = tabs } ]

(* cond -> (ta | tb) -> join, for flattening and branching identity. *)
let branching_prog () =
  let join = mk_table 2 ~entries:[ 1L; 2L ] in
  let ta = mk_table 0 ~entries:[ 1L; 2L; 3L ] in
  let tb = mk_table 1 ~entries:[ 2L ] in
  let prog = P4ir.Program.empty "branch-fix" in
  let prog, join_id =
    P4ir.Program.add_node prog (P4ir.Program.Table (join, P4ir.Program.Uniform None))
  in
  let prog, a_id =
    P4ir.Program.add_node prog (P4ir.Program.Table (ta, P4ir.Program.Uniform (Some join_id)))
  in
  let prog, b_id =
    P4ir.Program.add_node prog (P4ir.Program.Table (tb, P4ir.Program.Uniform (Some join_id)))
  in
  let prog, c_id =
    P4ir.Program.add_node prog
      (P4ir.Program.Cond
         { P4ir.Program.cond_name = "is_tcp"; field = P4ir.Field.Ipv4_proto;
           op = P4ir.Program.Eq; arg = 6L; on_true = Some a_id; on_false = Some b_id })
  in
  let prog = P4ir.Program.with_root prog (Some c_id) in
  P4ir.Program.validate_exn prog;
  (prog, c_id, a_id, b_id, join_id)

(* switch-case: sw's successor depends on the fired action. *)
let per_action_prog () =
  let ta = mk_table 0 ~entries:[ 1L ] in
  let tb = mk_table 1 ~entries:[ 2L ] in
  let sw =
    P4ir.Table.make ~name:"sw"
      ~keys:[ P4ir.Table.key P4ir.Field.Tcp_dport P4ir.Match_kind.Exact ]
      ~actions:[ P4ir.Action.nop "goa"; P4ir.Action.nop "gob" ]
      ~default_action:"gob"
      ~entries:[ P4ir.Table.entry [ P4ir.Pattern.Exact 80L ] "goa" ]
      ()
  in
  let prog = P4ir.Program.empty "switch-fix" in
  let prog, a_id =
    P4ir.Program.add_node prog (P4ir.Program.Table (ta, P4ir.Program.Uniform None))
  in
  let prog, b_id =
    P4ir.Program.add_node prog (P4ir.Program.Table (tb, P4ir.Program.Uniform None))
  in
  let prog, sw_id =
    P4ir.Program.add_node prog
      (P4ir.Program.Table
         (sw, P4ir.Program.Per_action [ ("goa", Some a_id); ("gob", Some b_id) ]))
  in
  let prog = P4ir.Program.with_root prog (Some sw_id) in
  P4ir.Program.validate_exn prog;
  (prog, sw_id, a_id, b_id)

(* Compile an executor's program directly (the view API lives on
   Compile.t; Exec keeps its own instance private). *)
let compile_of ex =
  let prog = Nicsim.Exec.program ex in
  let cfg = Nicsim.Exec.config ex in
  Nicsim.Compile.build ~target:cfg.Nicsim.Exec.target ~placement:cfg.Nicsim.Exec.placement
    ~counters:(Nicsim.Exec.counters ex) ~telemetry:(Nicsim.Exec.telemetry ex)
    ~engine_of:(fun id ->
      match P4ir.Program.find_exn prog id with
      | P4ir.Program.Table (tab, _) -> Nicsim.Exec.engine_exn ex tab.P4ir.Table.name
      | P4ir.Program.Cond _ -> Alcotest.fail "engine_of called on a cond")
    prog

let compile_prog prog = compile_of (Nicsim.Exec.create (Nicsim.Exec.default_config target) prog)

let pc_exn c id =
  match Nicsim.Compile.pc_of_node c id with
  | Some pc -> pc
  | None -> Alcotest.fail "node has no pc"

(* --- flattening layout --- *)

let test_flatten_linear () =
  let prog = P4ir.Program.linear "lin" (chain 3) in
  let c = compile_prog prog in
  check_int "one op per node" 3 (Nicsim.Compile.num_ops c);
  let view = Nicsim.Compile.view c in
  List.iteri
    (fun i v ->
      check_int "pc is array index" i v.Nicsim.Compile.view_pc;
      check_bool "table kind" true (v.Nicsim.Compile.view_kind = `Table);
      (* Linear chain: each op falls through to the next pc; last -> sink. *)
      let expected = if i = 2 then [ -1 ] else [ i + 1 ] in
      check_bool "resolved successor" true (v.Nicsim.Compile.view_next = expected))
    view

let test_flatten_branching () =
  let prog, c_id, a_id, b_id, join_id = branching_prog () in
  let c = compile_prog prog in
  check_int "four ops" 4 (Nicsim.Compile.num_ops c);
  let view = Nicsim.Compile.view c in
  let at pc = List.nth view pc in
  (* Topological order puts the root cond first. *)
  check_int "cond first" 0 (pc_exn c c_id);
  let cond = at 0 in
  check_bool "cond kind" true (cond.Nicsim.Compile.view_kind = `Cond);
  check_bool "cond successors resolved to pcs" true
    (cond.Nicsim.Compile.view_next = [ pc_exn c a_id; pc_exn c b_id ]);
  check_bool "both arms join" true
    ((at (pc_exn c a_id)).Nicsim.Compile.view_next = [ pc_exn c join_id ]
    && (at (pc_exn c b_id)).Nicsim.Compile.view_next = [ pc_exn c join_id ]);
  check_bool "join exits" true
    ((at (pc_exn c join_id)).Nicsim.Compile.view_next = [ -1 ])

let test_flatten_per_action () =
  let prog, sw_id, a_id, b_id = per_action_prog () in
  let c = compile_prog prog in
  let view = Nicsim.Compile.view c in
  let sw = List.nth view (pc_exn c sw_id) in
  check_bool "switch lists each action target" true
    (sw.Nicsim.Compile.view_next
    = List.sort_uniq compare [ pc_exn c a_id; pc_exn c b_id ])

let test_flatten_cache_and_merge () =
  let cached = compile_prog (cached_prog ()) in
  check_bool "cache table flattened" true
    (List.exists
       (fun v -> v.Nicsim.Compile.view_name = "c0" && v.Nicsim.Compile.view_kind = `Table)
       (Nicsim.Compile.view cached));
  let merged = compile_prog (merged_prog ()) in
  check_int "merged program collapses to one op" 1 (Nicsim.Compile.num_ops merged);
  check_bool "merged table name" true
    ((List.hd (Nicsim.Compile.view merged)).Nicsim.Compile.view_name = "m01")

(* --- window-level differential harness --- *)

let window_stats_bits (s : Nicsim.Sim.window_stats) =
  List.map Int64.bits_of_float
    [ s.window_start; s.window_duration; s.avg_latency; s.p99_latency; s.p50_latency;
      s.p90_latency; s.p999_latency; s.throughput_gbps; s.drop_fraction ]
  @ [ Int64.of_int s.sampled_packets; Int64.of_int s.sampled_drops ]

(* Same acl+route fixture as test_props's driver_fixture: a drop-capable
   ACL plus a multi-length LPM, sample_rate 3 so sampling alignment is
   load-bearing. *)
let driver_fixture seed packets run =
  let acl =
    P4ir.Table.add_entry
      (P4ir.Builder.acl_table ~name:"acl"
         ~keys:[ P4ir.Builder.exact_key P4ir.Field.Ipv4_dst ]
         ())
      (P4ir.Table.entry [ P4ir.Pattern.Exact 9L ] "deny")
  in
  let route =
    P4ir.Table.make ~name:"route"
      ~keys:[ P4ir.Table.key P4ir.Field.Ipv4_dst P4ir.Match_kind.Lpm ]
      ~actions:[ P4ir.Action.nop "hit"; P4ir.Action.nop "def" ]
      ~default_action:"def"
      ~entries:
        (List.concat_map
           (fun len ->
             List.init 4 (fun i ->
                 P4ir.Table.entry
                   [ P4ir.Pattern.Lpm
                       (Int64.shift_left (Int64.of_int (i * 3)) (32 - len), len) ]
                   "hit"))
           [ 8; 12; 16; 20; 24 ])
      ()
  in
  let prog = P4ir.Program.linear "drv" [ acl; route ] in
  let cfg = { (Nicsim.Exec.default_config target) with Nicsim.Exec.sample_rate = 3 } in
  let sim = Nicsim.Sim.create ~config:cfg target prog in
  let rng = Stdx.Prng.create seed in
  let flows =
    Traffic.Workload.random_flows rng ~n:32
      ~fields:[ P4ir.Field.Ipv4_src; P4ir.Field.Ipv4_dst; P4ir.Field.Tcp_sport ]
  in
  let base = Traffic.Workload.of_flows rng flows in
  let source =
    Traffic.Workload.mark_fraction rng ~rate:0.2 ~field:P4ir.Field.Ipv4_dst ~value:9L base
  in
  let stats = run sim ~duration:1.0 ~packets ~source in
  (window_stats_bits stats, Profile.Counter.dump (Nicsim.Exec.counters (Nicsim.Sim.exec sim)))

let test_compiled_window_identical =
  qtest ~count:20 "compiled windows = sequential (bits + counters)"
    QCheck2.Gen.(pair (map Int64.of_int int) (int_range 16 400))
    (fun (seed, packets) ->
      let seq = driver_fixture seed packets Nicsim.Sim.run_window_reference in
      let compiled = driver_fixture seed packets (fun sim -> Nicsim.Sim.run_window sim) in
      seq = compiled)

(* Cache-role tables: LRU recency, auto-insert fills, and the token
   bucket all mutate per packet; the compiled walk must reproduce every
   bit of it. *)
let cache_fixture seed run =
  let prog = cached_prog () in
  let cfg = { (Nicsim.Exec.default_config target) with Nicsim.Exec.sample_rate = 2 } in
  let sim = Nicsim.Sim.create ~config:cfg target prog in
  let stats = run sim ~duration:1.0 ~packets:600 ~source:(zipf_source seed) in
  let filled =
    match Nicsim.Exec.engine (Nicsim.Sim.exec sim) "c0" with
    | Some eng -> Nicsim.Engine.num_entries eng
    | None -> -1
  in
  ( window_stats_bits stats,
    Profile.Counter.dump (Nicsim.Exec.counters (Nicsim.Sim.exec sim)),
    filled )

let test_compiled_cache_identical =
  qtest ~count:15 "compiled = sequential on flow-cached program (fills included)"
    QCheck2.Gen.(map Int64.of_int int)
    (fun seed ->
      let ((_, _, filled) as seq) = cache_fixture seed Nicsim.Sim.run_window_reference in
      let compiled = cache_fixture seed (fun sim -> Nicsim.Sim.run_window sim) in
      (* The fixture must actually exercise the fill path. *)
      filled > 0 && seq = compiled)

let test_compiled_merged_identical () =
  let run prog driver =
    let sim = Nicsim.Sim.create target prog in
    let stats = driver sim ~duration:1.0 ~packets:500 ~source:(zipf_source 3L) in
    (window_stats_bits stats, Profile.Counter.dump (Nicsim.Exec.counters (Nicsim.Sim.exec sim)))
  in
  List.iter
    (fun prog ->
      let seq = run prog Nicsim.Sim.run_window_reference in
      let compiled = run prog (fun sim -> Nicsim.Sim.run_window sim) in
      check_bool "merged/branching/switch program identical" true (seq = compiled))
    [ merged_prog ();
      (let p, _, _, _, _ = branching_prog () in p);
      (let p, _, _, _ = per_action_prog () in p) ]

(* Whole-optimizer output: whatever plan the search picks (caches,
   merges, reorders, groups), the compiled walk must agree with the
   interpreter on it. *)
let test_compiled_optimizer_output_identical () =
  let prog = P4ir.Program.linear "opt" (chain 4) in
  let prof = Profile.with_default_cache_hit 0.9 (Profile.uniform prog) in
  let result =
    Pipeleon.Optimizer.optimize
      ~config:{ Pipeleon.Optimizer.default_config with Pipeleon.Optimizer.top_k = 1.0 }
      target prof prog
  in
  let optimized = result.Pipeleon.Optimizer.program in
  P4ir.Program.validate_exn optimized;
  let run driver =
    let sim = Nicsim.Sim.create target optimized in
    let stats = driver sim ~duration:1.0 ~packets:800 ~source:(zipf_source 11L) in
    (window_stats_bits stats, Profile.Counter.dump (Nicsim.Exec.counters (Nicsim.Sim.exec sim)))
  in
  check_bool "optimized program identical under compiled driver" true
    (run Nicsim.Sim.run_window_reference = run (fun sim -> Nicsim.Sim.run_window sim))

(* --- batch-level identity: per-packet latencies --- *)

(* One lane through the burst entry at an explicit sequence number. *)
let run_lane ex ~seq ~now pkt =
  let out = [| 0. |] in
  ignore (Nicsim.Exec.run_batch ex ~seqs:[| seq |] ~nows:[| now |] ~pos:0 ~n:1 ~out [| pkt |]);
  out.(0)

let batch_obs prog run =
  let cfg = { (Nicsim.Exec.default_config target) with Nicsim.Exec.sample_rate = 3 } in
  let ex = Nicsim.Exec.create cfg prog in
  let source = zipf_source 21L in
  let n = 300 in
  let pkts = Array.init n (fun _ -> source ()) in
  let nows = Array.init n (fun i -> 0.001 *. float_of_int i) in
  let out = Array.make n 0. in
  let dropped = run ex ~nows ~out pkts in
  ( Array.map Int64.bits_of_float out,
    dropped,
    Nicsim.Exec.drops_seen ex,
    Profile.Counter.dump (Nicsim.Exec.counters ex) )

let interp_batch ex ~nows ~out pkts =
  Array.iteri
    (fun i pkt -> out.(i) <- Nicsim.Exec.run_packet ex ~now:nows.(i) pkt)
    pkts;
  Array.fold_left (fun d p -> if Nicsim.Packet.is_dropped p then d + 1 else d) 0 pkts

let walk_batch ex ~nows ~out pkts =
  let n = Array.length pkts in
  Nicsim.Exec.run_batch ex ~seqs:(Array.init n (fun i -> i + 1)) ~nows ~pos:0 ~n ~out pkts

let test_batch_latencies_bit_identical () =
  List.iter
    (fun prog ->
      check_bool "per-packet latency bits + drops + counters" true
        (batch_obs prog interp_batch = batch_obs prog walk_batch))
    [ P4ir.Program.linear "lin" (chain 3); cached_prog (); merged_prog () ]

(* --- replicas --- *)

let test_replica_compiled_identical () =
  let prog = P4ir.Program.linear "rep" (chain 3) in
  let cfg = { (Nicsim.Exec.default_config target) with Nicsim.Exec.sample_rate = 3 } in
  let ex = Nicsim.Exec.create cfg prog in
  (* Warm the parent, so the replica's explicit sequence numbers differ
     from its own packet count. *)
  let warm = zipf_source 4L in
  for _ = 1 to 50 do
    ignore (Nicsim.Exec.run_packet ex ~now:0. (warm ()))
  done;
  let baseline = Profile.Counter.snapshot (Nicsim.Exec.counters ex) in
  let r = Nicsim.Exec.replicate ex in
  let src_a = zipf_source 5L and src_b = zipf_source 5L in
  let ok = ref true in
  for i = 1 to 200 do
    (* The parent interprets packet i at sequence number 50 + i. *)
    let a = Nicsim.Exec.run_packet ex ~now:0.01 (src_a ()) in
    let b = run_lane r ~seq:(50 + i) ~now:0.01 (src_b ()) in
    if not (Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)) then ok := false
  done;
  check_bool "replica latencies bit-identical" true !ok;
  check_bool "replica counters identical" true
    (Profile.Counter.dump
       (Profile.Counter.diff ~current:(Nicsim.Exec.counters ex) ~baseline)
    = Profile.Counter.dump (Nicsim.Exec.counters r))

(* --- telemetry identity --- *)

module M = Telemetry.Metrics
module Tr = Telemetry.Trace
module H = Telemetry.Histogram

let telemetry_obs driver =
  let tel = Telemetry.create ~trace_capacity:4096 ~trace_sample_every:7 () in
  let sim = Nicsim.Sim.create ~telemetry:tel target (cached_prog ()) in
  let stats = driver sim ~duration:1.0 ~packets:400 ~source:(zipf_source 13L) in
  (tel, window_stats_bits stats)

let test_compiled_telemetry_identical () =
  let tel_a, bits_a = telemetry_obs Nicsim.Sim.run_window_reference in
  let tel_b, bits_b = telemetry_obs (fun sim -> Nicsim.Sim.run_window sim) in
  check_bool "stats identical under sink" true (bits_a = bits_b);
  let ma = Telemetry.metrics tel_a and mb = Telemetry.metrics tel_b in
  Alcotest.(check (list string)) "metric names" (M.names ma) (M.names mb);
  List.iter
    (fun n ->
      check_bool (n ^ " counter") true (M.find_counter ma n = M.find_counter mb n);
      check_bool (n ^ " gauge") true
        (match (M.find_gauge ma n, M.find_gauge mb n) with
        | Some a, Some b -> Float.equal a b
        | None, None -> true
        | _ -> false);
      check_bool (n ^ " histogram") true
        (match (M.find_histogram ma n, M.find_histogram mb n) with
        | Some a, Some b -> H.bucket_counts a = H.bucket_counts b
        | None, None -> true
        | _ -> false))
    (M.names ma);
  let spans t = Tr.spans (Option.get (Telemetry.trace t)) in
  check_bool "sampled spans identical" true (spans tel_a = spans tel_b);
  check_bool "spans nonempty" true (spans tel_a <> [])

(* --- the walk against the interpreter reference --- *)

let reference = Nicsim.Sim.run_window_reference
let walk sim = Nicsim.Sim.run_window sim

let metrics_obs tel =
  let m = Telemetry.metrics tel in
  List.map
    (fun n ->
      ( n,
        M.find_counter m n,
        Option.map Int64.bits_of_float (M.find_gauge m n),
        Option.map H.bucket_counts (M.find_histogram m n) ))
    (M.names m)

(* Three windows (an odd packet count, so each window's first global
   sequence number lands at a different sampling phase) with a
   trace-ring sink and a tracer hook installed. *)
let reference_obs ?(sample_rate = 1) ~placement ~source prog run =
  let cfg =
    { (Nicsim.Exec.default_config target) with Nicsim.Exec.sample_rate; placement }
  in
  let tel = Telemetry.create ~trace_capacity:8192 ~trace_sample_every:5 () in
  let sim = Nicsim.Sim.create ~config:cfg ~telemetry:tel target prog in
  let source = source () in
  let events = ref [] in
  Nicsim.Exec.set_tracer (Nicsim.Sim.exec sim) (Some (fun e -> events := e :: !events));
  let windows =
    List.init 3 (fun _ -> window_stats_bits (run sim ~duration:1.0 ~packets:301 ~source))
  in
  let ex = Nicsim.Sim.exec sim in
  ( ( windows,
      Profile.Counter.dump (Nicsim.Exec.counters ex),
      Nicsim.Exec.packets_seen ex,
      Nicsim.Exec.drops_seen ex,
      metrics_obs tel ),
    Tr.spans (Option.get (Telemetry.trace tel)),
    List.rev !events )

let cpu_on names prog id =
  let name =
    match P4ir.Program.find_exn prog id with
    | P4ir.Program.Table (tab, _) -> tab.P4ir.Table.name
    | P4ir.Program.Cond c -> c.P4ir.Program.cond_name
  in
  if List.mem name names then Costmodel.Cost.Cpu else Costmodel.Cost.Asic

(* Drop-capable ACL on a CPU-placed root (entry migration, and drops
   that skip the tail migration) feeding a chain whose last table is on
   CPU (tail migration); the branching fixture puts its cond and one arm
   on CPU. *)
let hetero_cases () =
  let acl =
    P4ir.Table.add_entry
      (P4ir.Builder.acl_table ~name:"acl"
         ~keys:[ P4ir.Builder.exact_key P4ir.Field.Ipv4_dst ]
         ())
      (P4ir.Table.entry [ P4ir.Pattern.Exact 9L ] "deny")
  in
  let lin =
    P4ir.Program.linear "het"
      (acl :: List.map (fun i -> mk_table i ~entries:[ 1L; 2L; 3L ]) [ 1; 2; 3 ])
  in
  let branch, _, _, _, _ = branching_prog () in
  [ (lin, cpu_on [ "acl"; "t2"; "t3" ] lin);
    (branch, cpu_on [ "is_tcp"; "t1" ] branch) ]

let drop_zipf_source seed =
  let rng = Stdx.Prng.create (Int64.add seed 7L) in
  Traffic.Workload.mark_fraction rng ~rate:0.15 ~field:P4ir.Field.Ipv4_dst ~value:9L
    (zipf_source seed)

let check_against_reference ?sample_rate ~placement ~source prog =
  let obs run = reference_obs ?sample_rate ~placement ~source prog run in
  let ((_, _, _, drops, _) as r_core), r_spans, r_events = obs reference in
  let w_core, w_spans, w_events = obs walk in
  check_bool "walk = reference (stats, counters, telemetry)" true (r_core = w_core);
  check_bool "walk spans = reference" true (r_spans = w_spans);
  check_bool "walk tracer events = reference" true (r_events = w_events);
  check_bool "spans and events nonempty" true (r_spans <> [] && r_events <> []);
  drops

let test_walk_heterogeneous_placement () =
  let drops =
    List.map
      (fun (prog, placement) ->
        check_against_reference ~placement ~source:(fun () -> drop_zipf_source 31L) prog)
      (hetero_cases ())
  in
  check_bool "drops on the CPU-placed root" true (List.hd drops > 0)

(* The tracer hook sees every node of every packet, in execution order,
   across branch, switch-case, cache and merged shapes. *)
let test_walk_tracer_events () =
  List.iter
    (fun prog ->
      ignore
        (check_against_reference ~placement:Costmodel.Cost.all_asic
           ~source:(fun () -> zipf_source 17L) prog))
    [ (let p, _, _, _, _ = branching_prog () in p);
      (let p, _, _, _ = per_action_prog () in p);
      cached_prog ();
      merged_prog () ]

(* Sampling 1 in 3 over three windows of 301 packets: each lane's global
   sequence number must pin its counter and span sampling to its window
   position. *)
let test_walk_sample_rate () =
  List.iter
    (fun (prog, placement) ->
      ignore
        (check_against_reference ~sample_rate:3 ~placement
           ~source:(fun () -> drop_zipf_source 41L) prog))
    ((P4ir.Program.linear "lin" (chain 4), Costmodel.Cost.all_asic) :: hetero_cases ())

(* --- deploys: incremental recompilation and staleness --- *)

let test_incremental_recompile_reuses_artifacts () =
  let sim = Nicsim.Sim.create target (P4ir.Program.linear "inc" (chain 4)) in
  ignore (Nicsim.Sim.run_window sim ~duration:1.0 ~packets:100 ~source:(zipf_source 2L));
  (* Reshape t2 only (extra action): hot_patch rebuilds one engine, and
     the eager recompile must rebuild exactly that table's artifact. *)
  let tabs' =
    List.mapi (fun i _ -> mk_table ~extra_action:(i = 2) i ~entries:[ 1L; 2L; 3L ]) (chain 4)
  in
  let changed = Nicsim.Sim.hot_patch sim (P4ir.Program.linear "inc" tabs') in
  check_int "one table rebuilt by hot_patch" 1 changed;
  let reused, rebuilt = Nicsim.Exec.precompile (Nicsim.Sim.exec sim) in
  check_int "three artifacts reused" 3 reused;
  check_int "one artifact rebuilt" 1 rebuilt

let deploy_fixture seed run =
  let sim = Nicsim.Sim.create target (P4ir.Program.linear "dep" (chain 4)) in
  let obs () =
    Profile.Counter.dump (Nicsim.Exec.counters (Nicsim.Sim.exec sim))
  in
  let w1 = run sim ~duration:1.0 ~packets:200 ~source:(zipf_source seed) in
  let tabs' =
    List.mapi (fun i _ -> mk_table ~extra_action:(i = 1) i ~entries:[ 1L; 2L; 3L ]) (chain 4)
  in
  ignore (Nicsim.Sim.hot_patch sim (P4ir.Program.linear "dep" tabs'));
  let w2 = run sim ~duration:1.0 ~packets:200 ~source:(zipf_source (Int64.add seed 1L)) in
  (window_stats_bits w1, window_stats_bits w2, obs ())

let test_compiled_across_hot_patch_identical =
  qtest ~count:10 "window / hot_patch / window: compiled = sequential"
    QCheck2.Gen.(map Int64.of_int int)
    (fun seed ->
      deploy_fixture seed Nicsim.Sim.run_window_reference
      = deploy_fixture seed (fun sim -> Nicsim.Sim.run_window sim))

let test_reset_counters_recompiles () =
  let ex = Nicsim.Exec.create (Nicsim.Exec.default_config target) (cached_prog ()) in
  let src = zipf_source 8L in
  ignore (run_lane ex ~seq:1 ~now:0. (src ()));
  Nicsim.Exec.reset_counters ex;
  (* Counter.clear orphans the compiled pipeline's cells; the next
     compiled packet must run on a fresh compile against live slots. *)
  ignore (run_lane ex ~seq:2 ~now:0.01 (src ()));
  check_bool "counters repopulate after reset" true
    (Profile.Counter.dump (Nicsim.Exec.counters ex) <> [])

let () =
  Alcotest.run "compile"
    [ ( "flatten",
        [ Alcotest.test_case "linear layout" `Quick test_flatten_linear;
          Alcotest.test_case "branching layout" `Quick test_flatten_branching;
          Alcotest.test_case "per-action successors" `Quick test_flatten_per_action;
          Alcotest.test_case "cache and merge flatten" `Quick test_flatten_cache_and_merge ] );
      ( "identity",
        [ test_compiled_window_identical;
          test_compiled_cache_identical;
          Alcotest.test_case "merged/branching/switch" `Quick test_compiled_merged_identical;
          Alcotest.test_case "optimizer output" `Quick test_compiled_optimizer_output_identical;
          Alcotest.test_case "batch latencies" `Quick test_batch_latencies_bit_identical;
          Alcotest.test_case "replicas" `Quick test_replica_compiled_identical;
          Alcotest.test_case "telemetry" `Quick test_compiled_telemetry_identical;
          Alcotest.test_case "heterogeneous placement" `Quick
            test_walk_heterogeneous_placement;
          Alcotest.test_case "tracer events" `Quick test_walk_tracer_events;
          Alcotest.test_case "sample_rate 3" `Quick test_walk_sample_rate ] );
      ( "deploys",
        [ Alcotest.test_case "incremental recompile reuse" `Quick
            test_incremental_recompile_reuses_artifacts;
          test_compiled_across_hot_patch_identical;
          Alcotest.test_case "reset_counters recompiles" `Quick
            test_reset_counters_recompiles ] ) ]
