(* Tests for the pipeline compiler (Nicsim.Compile) and the window:
   op-array flattening (the nodes a compiled walk traverses: resolved
   successors, branching, switch-case), incremental recompilation, and
   the compiled data path held bit-identical to the independent
   reference (Fuzz.Refsim, through the Refcheck harness) — latencies,
   drops, profile counters, telemetry counters and spans, flow-cache
   contents, tracer events, replicas and hot patches. *)

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

(* A group cache (§3.2.3) in front of a branch whose arms exit to a
   common table: its fills carry the branch outcome with the arm's
   actions, so both arms must fill. Ipv4_src = 1 holds for a third of
   the hitting flows of [zipf_source]. *)
let group_cached_prog () =
  let prog = P4ir.Program.empty "group-fix" in
  let prog, exit_id =
    P4ir.Program.add_node prog
      (P4ir.Program.Table (mk_table 3 ~entries:[ 1L; 2L ], P4ir.Program.Uniform None))
  in
  let arm prog tab = P4ir.Builder.chain_into prog [ tab ] ~exit:(Some exit_id) in
  let prog, arm1 = arm prog (mk_table 1 ~entries:[ 1L; 2L ]) in
  let prog, arm2 = arm prog (mk_table 2 ~entries:[ 2L; 3L ]) in
  let prog, c =
    P4ir.Program.add_node prog
      (P4ir.Builder.cond ~name:"c0" ~field:P4ir.Field.Ipv4_src ~op:P4ir.Program.Eq ~arg:1L
         ~on_true:(Some arm1) ~on_false:(Some arm2))
  in
  let prog = P4ir.Program.with_root prog (Some c) in
  let g = List.hd (Pipeleon.Group.detect prog ~candidates:(Pipeleon.Pipelet.form prog)) in
  let cache = Option.get (Pipeleon.Group.build_cache ~name:"gc" prog g) in
  let prog = Pipeleon.Group.apply prog g ~cache in
  P4ir.Program.validate_exn prog;
  prog

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

(* Compile an executor's program directly (Exec keeps its own compiled
   instance private). *)
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

(* The nodes one packet's compiled walk traverses, in order, as
   (node id, name, action or outcome). *)
let walk c fields =
  let trace = ref [] in
  let tracer = Some (fun id name outcome -> trace := (id, name, outcome) :: !trace) in
  Nicsim.Compile.run c ~tracer ~sampled:false ~seq:0 ~nows:[| 0. |] ~out:[| 0. |] ~pos:0 0
    (Nicsim.Packet.of_fields fields);
  List.rev !trace

let walk_ids c fields = List.map (fun (id, _, _) -> id) (walk c fields)
let walk_names c fields = List.map (fun (_, name, _) -> name) (walk c fields)

(* --- flattening layout --- *)

let test_flatten_linear () =
  let prog = P4ir.Program.linear "lin" (chain 3) in
  let c = compile_prog prog in
  (* Linear chain: each op falls through to the next one; the last exits. *)
  Alcotest.(check (list string)) "every table once, in chain order" [ "t0"; "t1"; "t2" ]
    (walk_names c [ (P4ir.Field.Ipv4_src, 1L) ]);
  check_bool "program order" true
    (walk_ids c [] = List.map fst (P4ir.Program.tables prog))

let test_flatten_branching () =
  let prog, c_id, a_id, b_id, join_id = branching_prog () in
  let c = compile_prog prog in
  (* Packets default to TCP, so the cond takes its true arm. *)
  check_bool "true arm then join, then exit" true
    (walk_ids c [] = [ c_id; a_id; join_id ]);
  check_bool "false arm then join, then exit" true
    (walk_ids c [ (P4ir.Field.Ipv4_proto, 17L) ] = [ c_id; b_id; join_id ])

let test_flatten_per_action () =
  let prog, sw_id, a_id, b_id = per_action_prog () in
  let c = compile_prog prog in
  check_bool "goa continues at ta" true (walk_ids c [ (P4ir.Field.Tcp_dport, 80L) ] = [ sw_id; a_id ]);
  check_bool "gob continues at tb" true (walk_ids c [ (P4ir.Field.Tcp_dport, 81L) ] = [ sw_id; b_id ])

let test_flatten_cache_and_merge () =
  let cached = compile_prog (cached_prog ()) in
  check_bool "cache table flattened ahead of its originals" true
    (match walk_names cached [ (P4ir.Field.Ipv4_src, 1L) ] with "c0" :: _ -> true | _ -> false);
  let merged = compile_prog (merged_prog ()) in
  Alcotest.(check (list string)) "merged program collapses to one op" [ "m01" ]
    (walk_names merged [ (P4ir.Field.Ipv4_src, 1L); (P4ir.Field.Ipv4_dst, 1L) ])

(* --- window-level identity against Refsim --- *)

(* Same acl+route fixture as test_props's: a drop-capable ACL plus a
   multi-length LPM, sample_rate 3 so sampling alignment is
   load-bearing. *)
let acl_route seed =
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
  let rng = Stdx.Prng.create seed in
  let flows =
    Traffic.Workload.random_flows rng ~n:32
      ~fields:[ P4ir.Field.Ipv4_src; P4ir.Field.Ipv4_dst; P4ir.Field.Tcp_sport ]
  in
  let base = Traffic.Workload.of_flows rng flows in
  ( P4ir.Program.linear "drv" [ acl; route ],
    Traffic.Workload.mark_fraction rng ~rate:0.2 ~field:P4ir.Field.Ipv4_dst ~value:9L base )

let config ?(sample_rate = 1) ?(placement = Costmodel.Cost.all_asic) () =
  { (Nicsim.Exec.default_config target) with Nicsim.Exec.sample_rate; placement }

let test_compiled_window_identical =
  qtest ~count:20 "compiled windows = sequential (bits + counters)"
    QCheck2.Gen.(pair (map Int64.of_int int) (int_range 16 400))
    (fun (seed, packets) ->
      let prog, source = acl_route seed in
      Refcheck.same
        (Refcheck.windows (config ~sample_rate:3 ()) prog [ Refcheck.Window (packets, source) ]))

(* Cache-role tables: LRU recency, auto-insert fills, and the token
   bucket all mutate per packet; the compiled walk must reproduce every
   bit of it. *)
let test_compiled_cache_identical =
  qtest ~count:15 "compiled = sequential on flow-cached program (fills included)"
    QCheck2.Gen.(map Int64.of_int int)
    (fun seed ->
      let ((_, _, r) as run) =
        Refcheck.windows (config ~sample_rate:2 ()) (cached_prog ())
          [ Refcheck.Window (600, zipf_source seed) ]
      in
      (* The fixture must actually exercise the fill path. *)
      List.exists (fun (_, (c : Fuzz.Refsim.cache_report)) -> c.fills > 0) r.caches
      && Refcheck.same run)

let test_compiled_merged_identical () =
  let _, r =
    Refcheck.check "group-cached program"
      (Refcheck.windows (config ()) (group_cached_prog ())
         [ Refcheck.Window (500, zipf_source 3L) ])
  in
  let fused =
    List.sort_uniq compare
      (List.map (fun (e : P4ir.Table.entry) -> e.action) (List.assoc "gc" r.caches).lru)
  in
  check_bool "both arms fill the group cache" true (List.length fused >= 2);
  List.iter
    (fun prog ->
      ignore
        (Refcheck.check "merged/branching/switch program"
           (Refcheck.windows (config ()) prog [ Refcheck.Window (500, zipf_source 3L) ])))
    [ merged_prog ();
      (let p, _, _, _, _ = branching_prog () in p);
      (let p, _, _, _ = per_action_prog () in p) ]

(* Whole-optimizer output: whatever plan the search picks (caches,
   merges, reorders, groups), the compiled walk must agree with Refsim
   on it. *)
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
  ignore
    (Refcheck.check "optimized program"
       (Refcheck.windows (config ()) optimized [ Refcheck.Window (800, zipf_source 11L) ]))

(* --- batch-level identity: per-packet latencies --- *)

(* One lane through the burst entry at an explicit sequence number. *)
let run_lane ex ~seq ~now pkt =
  let out = [| 0. |] in
  ignore (Nicsim.Exec.run_batch ex ~seqs:[| seq |] ~nows:[| now |] ~pos:0 ~n:1 ~out [| pkt |]);
  out.(0)

let test_batch_latencies_bit_identical () =
  List.iter
    (fun prog ->
      let source = zipf_source 21L in
      let pkts = Array.init 300 (fun _ -> source ()) in
      let nows = Array.init 300 (fun i -> 0.001 *. float_of_int i) in
      ignore
        (Refcheck.check "per-packet latency bits"
           (Refcheck.burst (config ~sample_rate:3 ()) prog ~nows pkts)))
    [ P4ir.Program.linear "lin" (chain 3); cached_prog (); merged_prog () ]

(* --- replicas --- *)

let test_replica_compiled_identical () =
  let prog = P4ir.Program.linear "rep" (chain 3) in
  let cfg = config ~sample_rate:3 () in
  let ex = Nicsim.Exec.create cfg prog in
  let s = Fuzz.Refsim.session (Refcheck.refsim_config cfg) prog in
  (* Warm the parent (and the session), so the replica's explicit
     sequence numbers differ from its own packet count. *)
  let warm = zipf_source 4L in
  for i = 1 to 50 do
    let pkt = warm () in
    ignore (Fuzz.Refsim.send s ~seq:i ~now:0. (Refcheck.fields_of pkt));
    ignore (run_lane ex ~seq:i ~now:0. pkt)
  done;
  let baseline = (Fuzz.Refsim.report s).counters in
  let r = Nicsim.Exec.replicate ex in
  let src = zipf_source 5L in
  let ok = ref true in
  for i = 1 to 200 do
    let pkt = src () in
    let want = Fuzz.Refsim.send s ~seq:(50 + i) ~now:0.01 (Refcheck.fields_of pkt) in
    let got = run_lane r ~seq:(50 + i) ~now:0.01 pkt in
    if not (Int64.equal (Int64.bits_of_float want.latency) (Int64.bits_of_float got)) then
      ok := false
  done;
  check_bool "replica latencies bit-identical" true !ok;
  let since_replica =
    List.filter_map
      (fun (k, v) ->
        let d = v - Option.value ~default:0 (List.assoc_opt k baseline) in
        if d > 0 then Some (k, d) else None)
      (Fuzz.Refsim.report s).counters
  in
  check_bool "replica counters = reference since the copy" true
    (since_replica
    = List.map
        (fun ((k : Profile.Counter.key), v) -> ((k.owner, k.label), Int64.to_int v))
        (Profile.Counter.dump (Nicsim.Exec.counters r)))

(* --- telemetry identity --- *)

let test_compiled_telemetry_identical () =
  let a, _ =
    Refcheck.check "telemetry (1 in 7 traced)"
      (Refcheck.windows ~trace_every:7 (config ()) (cached_prog ())
         [ Refcheck.Window (400, zipf_source 13L) ])
  in
  check_bool "spans nonempty" true (a.spans <> [])

(* --- the walk against Refsim under placement and sampling --- *)

(* Three windows (an odd packet count, so each window's first global
   sequence number lands at a different sampling phase) with a sink
   tracing one packet in five and a tracer hook installed. *)
let check_against_reference ?sample_rate ~placement ~source prog =
  let source = source () in
  let a, r =
    Refcheck.check "walk = Refsim"
      (Refcheck.windows ~trace_every:5 (config ?sample_rate ~placement ()) prog
         (List.init 3 (fun _ -> Refcheck.Window (301, source))))
  in
  check_bool "spans and events nonempty" true (a.spans <> [] && a.events <> []);
  r.drops

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

let test_compiled_across_hot_patch_identical =
  qtest ~count:10 "window / hot_patch / window: compiled = sequential"
    QCheck2.Gen.(map Int64.of_int int)
    (fun seed ->
      let tabs' =
        List.mapi (fun i _ -> mk_table ~extra_action:(i = 1) i ~entries:[ 1L; 2L; 3L ]) (chain 4)
      in
      Refcheck.same
        (Refcheck.windows (config ()) (P4ir.Program.linear "dep" (chain 4))
           [ Refcheck.Window (200, zipf_source seed);
             Refcheck.Hot_patch (P4ir.Program.linear "dep" tabs');
             Refcheck.Window (200, zipf_source (Int64.add seed 1L)) ]))

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
          test_compiled_across_hot_patch_identical ] ) ]
