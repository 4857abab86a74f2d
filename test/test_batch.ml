(* Tests for the compiled window walk: bit-identity against the
   reference interpreter (fixed pipelines with branches, per-action
   successors and drops, random programs, telemetry), and the
   no-per-window-allocation guarantee of the steady-state window loop. *)

let check_bool = Alcotest.(check bool)

let target = Costmodel.Target.bluefield2

let qtest ?(count = 50) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

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

(* cond -> (ta | tb) -> join: packets split at the cond and rejoin. *)
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

(* switch-case: per-action successors split packets mid-pipeline. *)
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

(* drop-capable ACL + multi-length LPM route: drops halt packets
   mid-burst and the LPM goes through the shaped plan probe. *)
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

(* --- window walk: bit-identity --- *)

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

(* The compiled window must agree with the interpreter — including the
   divergence fixtures, where packets split at a cond or a per-action
   successor and rejoin. *)
let test_compiled_window_identity () =
  List.iter
    (fun prog ->
      let interp = window_obs prog Nicsim.Sim.run_window_reference in
      let compiled = window_obs prog (fun sim -> Nicsim.Sim.run_window sim) in
      check_bool "interp = compiled" true (interp = compiled))
    [ P4ir.Program.linear "lin" (chain 3);
      branching_prog ();
      per_action_prog () ]

(* Mid-burst drops: a packet halts at its dropping table while the rest
   of the burst keeps walking; drop accounting and latencies must match
   the interpreter. *)
let test_compiled_drops_identity () =
  let prog = acl_route_prog () in
  let interp = window_obs ~source:(drop_source 5L) prog Nicsim.Sim.run_window_reference in
  let compiled =
    window_obs ~source:(drop_source 5L) prog (fun sim -> Nicsim.Sim.run_window sim)
  in
  check_bool "drops actually happen" true (match interp with _, d, _ -> d > 0);
  check_bool "interp = compiled (drops included)" true (interp = compiled)

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

let test_compiled_batch_latencies () =
  List.iter
    (fun prog ->
      let interp =
        batch_obs prog (fun ex ~nows ~out pkts ->
            Array.iteri (fun i p -> out.(i) <- Nicsim.Exec.run_packet ex ~now:nows.(i) p) pkts;
            Array.fold_left
              (fun d p -> if Nicsim.Packet.is_dropped p then d + 1 else d) 0 pkts)
      in
      let compiled =
        batch_obs prog (fun ex ~nows ~out pkts ->
            let n = Array.length pkts in
            Nicsim.Exec.run_batch ex ~seqs:(Array.init n (fun i -> i + 1)) ~nows ~pos:0 ~n
              ~out pkts)
      in
      check_bool "per-packet latency bits + drops + counters" true (interp = compiled))
    [ P4ir.Program.linear "lin" (chain 3); branching_prog (); acl_route_prog () ]

(* Telemetry under the compiled walk: spans must come out in the exact
   per-packet order. *)
let test_compiled_telemetry_identity () =
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
   drops): the compiled window must match the reference interpreter on
   whole windows. *)
let test_compiled_random_programs =
  qtest ~count:40 "compiled window = reference window on random programs"
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
        let stats = driver sim ~duration:1.0 ~packets:200 ~source:(mk_source ()) in
        ( window_stats_bits stats,
          Nicsim.Exec.drops_seen (Nicsim.Sim.exec sim),
          Profile.Counter.dump (Nicsim.Exec.counters (Nicsim.Sim.exec sim)) )
      in
      run Nicsim.Sim.run_window_reference = run (fun sim -> Nicsim.Sim.run_window sim))

(* --- allocation: the steady-state window loop must not churn --- *)

(* Runs three windows of 8192 packets from a preallocated pool and
   returns the minor words the third one allocated: the first two warm
   up the scratch buffers, the compiled pipeline and the exact-probe
   indexes. Any remaining minor-heap traffic comes from the window
   driver or the walk itself. *)
let steady_window_words prog pool =
  let sim = Nicsim.Sim.create target prog in
  let k = ref 0 in
  let source () =
    let p = pool.(!k land 255) in
    incr k;
    p
  in
  let window () =
    ignore (Nicsim.Sim.run_window sim ~duration:1.0 ~packets:8192 ~source)
  in
  window ();
  window ();
  let before = Gc.minor_words () in
  window ();
  Gc.minor_words () -. before

(* 20 single-key exact tables with nop actions — the perf suite's
   pipeline shape, all on the exact-probe fast path. *)
let linear_alloc_fixture () =
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
  let pool =
    Array.init 256 (fun i ->
        Nicsim.Packet.of_fields
          [ (P4ir.Field.Ipv4_src, Int64.of_int (i mod 96));
            (P4ir.Field.Ipv4_dst, Int64.of_int ((i * 7) mod 96));
            (P4ir.Field.Tcp_sport, Int64.of_int ((i * 13) mod 96));
            (P4ir.Field.Tcp_dport, Int64.of_int ((i * 29) mod 96)) ])
  in
  ("linear", P4ir.Program.linear "alloc" (List.init 20 nop_table), pool)

(* A successor that depends on the action: a switch whose hit action
   ("goa") and miss default ("gob") lead to different tables. Nop
   actions only, so pooled packets are never mutated. *)
let switch_alloc_fixture () =
  let leaf name field =
    P4ir.Table.make ~name
      ~keys:[ P4ir.Table.key field P4ir.Match_kind.Exact ]
      ~actions:[ P4ir.Action.nop "fwd"; P4ir.Action.nop "def" ]
      ~default_action:"def"
      ~entries:[ P4ir.Table.entry [ P4ir.Pattern.Exact 1L ] "fwd" ]
      ()
  in
  let sw =
    P4ir.Table.make ~name:"sw"
      ~keys:[ P4ir.Table.key P4ir.Field.Tcp_dport P4ir.Match_kind.Exact ]
      ~actions:[ P4ir.Action.nop "goa"; P4ir.Action.nop "gob" ]
      ~default_action:"gob"
      ~entries:
        (List.init 8 (fun j -> P4ir.Table.entry [ P4ir.Pattern.Exact (Int64.of_int j) ] "goa"))
      ()
  in
  let prog = P4ir.Program.empty "switch-alloc" in
  let prog, a_id =
    P4ir.Program.add_node prog
      (P4ir.Program.Table (leaf "ta" P4ir.Field.Ipv4_src, P4ir.Program.Uniform None))
  in
  let prog, b_id =
    P4ir.Program.add_node prog
      (P4ir.Program.Table (leaf "tb" P4ir.Field.Ipv4_dst, P4ir.Program.Uniform None))
  in
  let prog, sw_id =
    P4ir.Program.add_node prog
      (P4ir.Program.Table
         (sw, P4ir.Program.Per_action [ ("goa", Some a_id); ("gob", Some b_id) ]))
  in
  let prog = P4ir.Program.with_root prog (Some sw_id) in
  P4ir.Program.validate_exn prog;
  let pool =
    Array.init 256 (fun i ->
        Nicsim.Packet.of_fields
          [ (P4ir.Field.Ipv4_src, Int64.of_int (i mod 3));
            (P4ir.Field.Ipv4_dst, Int64.of_int (i mod 5));
            (P4ir.Field.Tcp_dport, Int64.of_int (i mod 16)) ])
  in
  ("switch", prog, pool)

(* One window = 128 bursts of 64. The budget admits the window's stats
   record and a couple of boxed floats but not even one small allocation
   per burst (128 * 3 words would blow it), let alone per packet. *)
let test_window_allocation_free () =
  List.iter
    (fun (name, prog, pool) ->
      let per_window = steady_window_words prog pool in
      check_bool
        (Printf.sprintf "%s: per-window minor words = %.0f (budget 256)" name per_window)
        true
        (per_window < 256.))
    [ linear_alloc_fixture (); switch_alloc_fixture () ]

let () =
  Alcotest.run "batch"
    [ ( "identity",
        [ Alcotest.test_case "windows (divergence fixtures)" `Quick
            test_compiled_window_identity;
          Alcotest.test_case "mid-burst drops" `Quick test_compiled_drops_identity;
          Alcotest.test_case "batch latencies" `Quick test_compiled_batch_latencies;
          Alcotest.test_case "telemetry order" `Quick test_compiled_telemetry_identity;
          test_compiled_random_programs ] );
      ( "allocation",
        [ Alcotest.test_case "steady-state window allocates nothing" `Quick
            test_window_allocation_free ] ) ]
