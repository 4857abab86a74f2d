(* Tests for the burst-vectorized compiled walk: the struct-of-arrays
   Packet.Batch container (scatter/gather, live mask, truncation), the
   op-at-a-time walk's divergence regrouping, bit-identity of the
   window walk against the reference interpreter (fixed pipelines,
   random programs, telemetry), and the no-per-window-allocation
   guarantee of the steady-state window loop. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let target = Costmodel.Target.bluefield2

let qtest ?(count = 50) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

module Batch = Nicsim.Packet.Batch

let fields =
  [| P4ir.Field.Ipv4_src; P4ir.Field.Ipv4_dst; P4ir.Field.Tcp_sport; P4ir.Field.Tcp_dport |]

(* --- fixtures (mirror test_compile's) --- *)

let mk_table i ~entries =
  let field = fields.(i mod Array.length fields) in
  let actions =
    [ P4ir.Action.make "seta" [ P4ir.Action.Set_field (P4ir.Field.Meta (i + 1), 1L) ];
      P4ir.Action.make "setb" [ P4ir.Action.Set_field (P4ir.Field.Meta (i + 1), 2L) ] ]
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

(* cond -> (ta | tb) -> join: lanes diverge at the cond and regroup. *)
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
  prog

(* switch-case: per-action successors diverge lanes mid-pipeline. *)
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
  prog

(* drop-capable ACL + multi-length LPM route: drops halt lanes mid-burst
   and the LPM goes through the generic (scratch-packet) table path. *)
let acl_route_prog () =
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
  P4ir.Program.linear "drv" [ acl; route ]

let drop_source seed =
  let rng = Stdx.Prng.create seed in
  let flows =
    Traffic.Workload.random_flows rng ~n:32
      ~fields:[ P4ir.Field.Ipv4_src; P4ir.Field.Ipv4_dst; P4ir.Field.Tcp_sport ]
  in
  let base = Traffic.Workload.of_flows rng flows in
  Traffic.Workload.mark_fraction rng ~rate:0.2 ~field:P4ir.Field.Ipv4_dst ~value:9L base

(* --- Packet.Batch container --- *)

let test_scatter_gather_roundtrip () =
  let layout = [| P4ir.Field.Ipv4_src; P4ir.Field.Tcp_sport; P4ir.Field.Meta 3 |] in
  let b = Batch.create ~fields:layout 4 in
  let pkts =
    Array.init 6 (fun i ->
        Nicsim.Packet.of_fields
          [ (P4ir.Field.Ipv4_src, Int64.of_int (100 + i));
            (P4ir.Field.Tcp_sport, Int64.of_int (200 + i));
            (P4ir.Field.Meta 3, Int64.of_int i) ])
  in
  Nicsim.Packet.mark_dropped pkts.(2);
  Nicsim.Packet.set_egress pkts.(4) 7;
  Batch.load b pkts;  (* grows past the initial capacity of 4 *)
  check_int "length" 6 (Batch.length b);
  check_bool "capacity grew" true (Batch.capacity b >= 6);
  for i = 0 to 5 do
    check_bool "src scattered" true
      (Batch.get b ~lane:i P4ir.Field.Ipv4_src = Int64.of_int (100 + i));
    check_bool "meta scattered" true
      (Batch.get b ~lane:i (P4ir.Field.Meta 3) = Int64.of_int i);
    check_bool "live after load" true (Batch.is_live b ~lane:i)
  done;
  check_bool "dropped captured" true (Batch.is_dropped b ~lane:2);
  check_bool "not dropped elsewhere" false (Batch.is_dropped b ~lane:0);
  check_bool "egress captured" true (Batch.egress_port b ~lane:4 = Some 7);
  check_bool "no egress elsewhere" true (Batch.egress_port b ~lane:1 = None);
  (* Mutate columns and per-lane state, gather back. *)
  Batch.set b ~lane:1 P4ir.Field.Tcp_sport 999L;
  Batch.mark_dropped b ~lane:3;
  Batch.set_egress b ~lane:5 12;
  Batch.store b pkts;
  check_bool "columnar write gathered" true
    (Nicsim.Packet.get pkts.(1) P4ir.Field.Tcp_sport = 999L);
  check_bool "untouched lane untouched" true
    (Nicsim.Packet.get pkts.(0) P4ir.Field.Tcp_sport = 200L);
  check_bool "drop gathered" true (Nicsim.Packet.is_dropped pkts.(3));
  check_bool "pre-existing drop survives" true (Nicsim.Packet.is_dropped pkts.(2));
  check_bool "egress gathered" true (Nicsim.Packet.egress_port pkts.(5) = Some 12);
  check_bool "pre-existing egress survives" true
    (Nicsim.Packet.egress_port pkts.(4) = Some 7)

let test_live_mask_compaction () =
  let b = Batch.create ~fields:[| P4ir.Field.Ipv4_src |] 8 in
  let pkts = Array.init 70 (fun i -> Nicsim.Packet.of_fields
    [ (P4ir.Field.Ipv4_src, Int64.of_int i) ]) in
  Batch.load b pkts;  (* 70 lanes: the mask spans multiple 32-lane words *)
  check_int "all live" 70 (Batch.live_count b);
  Batch.kill b ~lane:2;
  Batch.kill b ~lane:33;  (* second mask word *)
  Batch.kill b ~lane:69;
  check_int "killed lanes leave the mask" 67 (Batch.live_count b);
  check_bool "killed lane dead" false (Batch.is_live b ~lane:33);
  check_bool "neighbours still live" true
    (Batch.is_live b ~lane:32 && Batch.is_live b ~lane:34);
  (* A reload resurrects every lane. *)
  Batch.load b pkts;
  check_int "reload resets the mask" 70 (Batch.live_count b)

let test_columnar_truncation () =
  (* Ipv4_ttl is 8 bits wide: a columnar set must truncate exactly like
     Packet.set does. *)
  let b = Batch.create ~fields:[| P4ir.Field.Ipv4_ttl |] 2 in
  let pkts = [| Nicsim.Packet.create () |] in
  Batch.load b pkts;
  Batch.set b ~lane:0 P4ir.Field.Ipv4_ttl 0x1FFL;
  let p = Nicsim.Packet.create () in
  Nicsim.Packet.set p P4ir.Field.Ipv4_ttl 0x1FFL;
  check_bool "truncated like Packet.set" true
    (Batch.get b ~lane:0 P4ir.Field.Ipv4_ttl = Nicsim.Packet.get p P4ir.Field.Ipv4_ttl);
  check_bool "width-masked" true (Batch.get b ~lane:0 P4ir.Field.Ipv4_ttl = 0xFFL);
  check_bool "unknown field rejected" true
    (match Batch.get b ~lane:0 P4ir.Field.Ipv4_src with
     | _ -> false
     | exception Invalid_argument _ -> true)

(* --- burst walk: divergence and bit-identity --- *)

let window_stats_bits (s : Nicsim.Sim.window_stats) =
  List.map Int64.bits_of_float
    [ s.window_start; s.window_duration; s.avg_latency; s.p99_latency; s.p50_latency;
      s.p90_latency; s.p999_latency; s.throughput_gbps; s.drop_fraction ]
  @ [ Int64.of_int s.sampled_packets; Int64.of_int s.sampled_drops ]

let window_obs ?(sample_rate = 3) ?source prog run =
  let cfg = { (Nicsim.Exec.default_config target) with Nicsim.Exec.sample_rate } in
  let sim = Nicsim.Sim.create ~config:cfg target prog in
  let source = match source with Some s -> s | None -> zipf_source 21L in
  let stats = run sim ~duration:1.0 ~packets:300 ~source in
  let ex = Nicsim.Sim.exec sim in
  ( window_stats_bits stats,
    Nicsim.Exec.drops_seen ex,
    Profile.Counter.dump (Nicsim.Exec.counters ex) )

(* The soa walk must vectorize these (no caches, narrow fields) and then
   agree with the interpreter — including the divergence fixtures, where
   lanes split at a cond or a per-action successor and regroup at the
   join. *)
let test_soa_window_identity () =
  List.iter
    (fun prog ->
      check_bool "program is vectorizable" true
        (Nicsim.Exec.soa_capable
           (Nicsim.Exec.create (Nicsim.Exec.default_config target) prog));
      let interp = window_obs prog Nicsim.Sim.run_window_reference in
      let soa = window_obs prog (fun sim -> Nicsim.Sim.run_window sim) in
      let soa_blocked =
        window_obs prog (fun sim ->
            Nicsim.Exec.set_soa_block (Nicsim.Sim.exec sim) 5;
            Nicsim.Sim.run_window sim)
      in
      check_bool "interp = soa" true (interp = soa);
      check_bool "soa block size free" true (soa = soa_blocked))
    [ P4ir.Program.linear "lin" (chain 3);
      branching_prog ();
      per_action_prog () ]

(* Mid-burst drops: lanes halt at their dropping table while the rest of
   the burst keeps walking; drop accounting and latencies must match the
   per-packet walk. The LPM route also exercises the generic gather. *)
let test_soa_drops_identity () =
  let prog = acl_route_prog () in
  let interp = window_obs ~source:(drop_source 5L) prog Nicsim.Sim.run_window_reference in
  let soa = window_obs ~source:(drop_source 5L) prog (fun sim -> Nicsim.Sim.run_window sim) in
  let par_soa =
    window_obs ~source:(drop_source 5L) prog (fun sim -> Nicsim.Sim.run_window ~domains:3 sim)
  in
  check_bool "drops actually happen" true (match interp with _, d, _ -> d > 0);
  check_bool "interp = soa (drops included)" true (interp = soa);
  check_bool "interp = parallel soa" true (interp = par_soa)

(* Cache-role programs are not vectorizable; the soa driver must fall
   back to the per-packet compiled walk and still be bit-identical. *)
let test_soa_fallback_on_cache () =
  let tabs = chain 3 in
  let prog = P4ir.Program.linear "cache-fix" tabs in
  let p =
    match Pipeleon.Pipelet.form prog with
    | [ p ] -> p
    | _ -> Alcotest.fail "expected one pipelet"
  in
  let cache = Pipeleon.Cache.build ~name:"c0" ~capacity:64 ~insert_limit:1e9 tabs in
  let prog =
    Pipeleon.Transform.apply prog p [ Pipeleon.Transform.Cached { cache; originals = tabs } ]
  in
  check_bool "cache program not vectorizable" false
    (Nicsim.Exec.soa_capable (Nicsim.Exec.create (Nicsim.Exec.default_config target) prog));
  let seq = window_obs ~sample_rate:2 prog Nicsim.Sim.run_window_reference in
  let soa = window_obs ~sample_rate:2 prog (fun sim -> Nicsim.Sim.run_window sim) in
  check_bool "fallback bit-identical" true (seq = soa)

(* Per-packet latencies out of the batch entry point, compared float for
   float (not just window aggregates). *)
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

let test_soa_batch_latencies () =
  List.iter
    (fun prog ->
      let interp =
        batch_obs prog (fun ex ~nows ~out pkts ->
            Array.iteri (fun i p -> out.(i) <- Nicsim.Exec.run_packet ex ~now:nows.(i) p) pkts;
            Array.fold_left
              (fun d p -> if Nicsim.Packet.is_dropped p then d + 1 else d) 0 pkts)
      in
      let soa =
        batch_obs prog (fun ex ~nows ~out pkts ->
            let n = Array.length pkts in
            Nicsim.Exec.run_batch ex ~seqs:(Array.init n (fun i -> i + 1)) ~nows ~pos:0 ~n
              ~out pkts)
      in
      check_bool "per-packet latency bits + drops + counters" true (interp = soa))
    [ P4ir.Program.linear "lin" (chain 3); branching_prog (); acl_route_prog () ]

(* Telemetry under the soa walk: buffered spans and tracer events must
   come out in the exact per-packet order. *)
let test_soa_telemetry_identity () =
  let obs driver =
    let tel = Telemetry.create ~trace_capacity:4096 ~trace_sample_every:7 () in
    let sim = Nicsim.Sim.create ~telemetry:tel target (acl_route_prog ()) in
    let stats = driver sim ~duration:1.0 ~packets:400 ~source:(drop_source 13L) in
    (tel, window_stats_bits stats)
  in
  let tel_a, bits_a = obs Nicsim.Sim.run_window_reference in
  let tel_b, bits_b = obs (fun sim -> Nicsim.Sim.run_window sim) in
  check_bool "stats identical under sink" true (bits_a = bits_b);
  let ma = Telemetry.metrics tel_a and mb = Telemetry.metrics tel_b in
  Alcotest.(check (list string)) "metric names" (Telemetry.Metrics.names ma)
    (Telemetry.Metrics.names mb);
  List.iter
    (fun n ->
      check_bool (n ^ " counter") true
        (Telemetry.Metrics.find_counter ma n = Telemetry.Metrics.find_counter mb n))
    (Telemetry.Metrics.names ma);
  let spans t = Telemetry.Trace.spans (Option.get (Telemetry.trace t)) in
  check_bool "sampled spans identical (order included)" true (spans tel_a = spans tel_b);
  check_bool "spans nonempty" true (spans tel_a <> [])

(* Random programs (exact/LPM/ternary/range tables, branching, switch,
   drops): the window walk — vectorized or fallen back — must match the
   reference interpreter on whole windows. *)
let test_soa_random_programs =
  qtest ~count:40 "soa window = reference window on random programs"
    QCheck2.Gen.(int_range 0 100000)
    (fun seed ->
      let case = Fuzz.Gen.case ~n_packets:48 (Stdx.Prng.create (Int64.of_int seed)) in
      let flows = Array.of_list case.Fuzz.Gen.packets in
      let mk_source () =
        let k = ref 0 in
        fun () ->
          let f = flows.(!k mod Array.length flows) in
          incr k;
          Nicsim.Packet.of_fields f
      in
      let run driver =
        let cfg = { (Nicsim.Exec.default_config target) with Nicsim.Exec.sample_rate = 3 } in
        let sim = Nicsim.Sim.create ~config:cfg target case.Fuzz.Gen.program in
        Nicsim.Exec.set_soa_block (Nicsim.Sim.exec sim) 13;
        let stats = driver sim ~duration:1.0 ~packets:200 ~source:(mk_source ()) in
        ( window_stats_bits stats,
          Nicsim.Exec.drops_seen (Nicsim.Sim.exec sim),
          Profile.Counter.dump (Nicsim.Exec.counters (Nicsim.Sim.exec sim)) )
      in
      run Nicsim.Sim.run_window_reference = run (fun sim -> Nicsim.Sim.run_window sim))

(* --- allocation: the steady-state soa window loop must not churn --- *)

let test_soa_window_allocation_free () =
  (* 20 single-key exact tables with nop actions — the perf suite's
     pipeline shape, all on the Bt_exact1 fast path. The source cycles a
     preallocated pool, so any minor-heap traffic would come from the
     window driver or the walk itself. *)
  let nop_table i =
    P4ir.Table.make ~name:(Printf.sprintf "t%d" i)
      ~keys:[ P4ir.Table.key fields.(i mod Array.length fields) P4ir.Match_kind.Exact ]
      ~actions:[ P4ir.Action.nop "fwd"; P4ir.Action.nop "def" ]
      ~default_action:"def"
      ~entries:
        (List.init 64 (fun j ->
             P4ir.Table.entry [ P4ir.Pattern.Exact (Int64.of_int j) ] "fwd"))
      ()
  in
  let prog = P4ir.Program.linear "alloc" (List.init 20 nop_table) in
  let sim = Nicsim.Sim.create target prog in
  let pool =
    Array.init 256 (fun i ->
        Nicsim.Packet.of_fields
          [ (P4ir.Field.Ipv4_src, Int64.of_int (i mod 96));
            (P4ir.Field.Ipv4_dst, Int64.of_int ((i * 7) mod 96));
            (P4ir.Field.Tcp_sport, Int64.of_int ((i * 13) mod 96));
            (P4ir.Field.Tcp_dport, Int64.of_int ((i * 29) mod 96)) ])
  in
  let k = ref 0 in
  let source () =
    let p = pool.(!k land 255) in
    incr k;
    p
  in
  let window () =
    ignore (Nicsim.Sim.run_window sim ~duration:1.0 ~packets:8192 ~source)
  in
  (* Warm up: scratch buffers, the compiled pipeline, the batch state and
     the exact-index views all get built here. *)
  window ();
  window ();
  let before = Gc.minor_words () in
  window ();
  let per_window = Gc.minor_words () -. before in
  (* One window = 128 bursts of 64. The budget admits the window's stats
     record and a couple of boxed floats but not even one small
     allocation per burst (128 * 3 words would blow it), let alone per
     packet or per lane. *)
  check_bool
    (Printf.sprintf "per-window minor words = %.0f (budget 256)" per_window)
    true
    (per_window < 256.)

let () =
  Alcotest.run "batch"
    [ ( "container",
        [ Alcotest.test_case "scatter/gather round-trip" `Quick test_scatter_gather_roundtrip;
          Alcotest.test_case "live mask" `Quick test_live_mask_compaction;
          Alcotest.test_case "columnar truncation" `Quick test_columnar_truncation ] );
      ( "identity",
        [ Alcotest.test_case "windows (divergence fixtures)" `Quick test_soa_window_identity;
          Alcotest.test_case "mid-burst drops + parallel" `Quick test_soa_drops_identity;
          Alcotest.test_case "cache fallback" `Quick test_soa_fallback_on_cache;
          Alcotest.test_case "batch latencies" `Quick test_soa_batch_latencies;
          Alcotest.test_case "telemetry order" `Quick test_soa_telemetry_identity;
          test_soa_random_programs ] );
      ( "allocation",
        [ Alcotest.test_case "steady-state window allocates nothing" `Quick
            test_soa_window_allocation_free ] ) ]
