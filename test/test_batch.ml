(* Tests for the compiled window walk: bit-identity against the
   independent reference (Fuzz.Refsim, through the Refcheck harness) on
   fixed pipelines with branches, per-action successors and drops,
   random programs and telemetry, and the no-per-window-allocation
   guarantee of the steady-state window loop. *)

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

(* A range table with overlapping rules, tied priorities and equal
   specificity in front of an exact table: the compiled walk scans it in
   winner order, the reference through [P4ir.Table.lookup]. *)
let range_prog () =
  let svc =
    P4ir.Table.make ~name:"svc"
      ~keys:[ P4ir.Table.key P4ir.Field.Tcp_dport P4ir.Match_kind.Range ]
      ~actions:
        [ P4ir.Action.make "lo" [ P4ir.Action.Set_field (P4ir.Field.Meta 7, 1L) ];
          P4ir.Action.make "hi" [ P4ir.Action.Set_field (P4ir.Field.Meta 7, 2L) ];
          P4ir.Action.nop "def" ]
      ~default_action:"def"
      ~entries:
        [ P4ir.Table.entry ~priority:1 [ P4ir.Pattern.Range (0L, 2L) ] "lo";
          P4ir.Table.entry ~priority:1 [ P4ir.Pattern.Range (1L, 3L) ] "hi";
          P4ir.Table.entry ~priority:2 [ P4ir.Pattern.Range (2L, 2L) ] "hi";
          P4ir.Table.entry ~priority:2 [ P4ir.Pattern.Range (2L, 2L) ] "lo";
          P4ir.Table.entry [ P4ir.Pattern.Range (0L, 0xFFFFL) ] "lo" ]
      ()
  in
  P4ir.Program.linear "range-fix" [ svc; mk_table 1 ~entries:[ 1L; 2L ] ]

let drop_source seed =
  let rng = Stdx.Prng.create seed in
  let flows =
    Traffic.Workload.random_flows rng ~n:32
      ~fields:[ P4ir.Field.Ipv4_src; P4ir.Field.Ipv4_dst; P4ir.Field.Tcp_sport ]
  in
  let base = Traffic.Workload.of_flows rng flows in
  Traffic.Workload.mark_fraction rng ~rate:0.2 ~field:P4ir.Field.Ipv4_dst ~value:9L base

(* --- window walk: bit-identity against Refsim --- *)

let config ?(sample_rate = 3) () =
  { (Nicsim.Exec.default_config target) with Nicsim.Exec.sample_rate }

let window ?(source = zipf_source 21L) prog =
  Refcheck.windows (config ()) prog [ Refcheck.Window (300, source) ]

(* The compiled window must agree with Refsim — including the
   divergence fixtures, where packets split at a cond or a per-action
   successor and rejoin. *)
let test_compiled_window_identity () =
  List.iter
    (fun prog -> ignore (Refcheck.check "window" (window prog)))
    [ P4ir.Program.linear "lin" (chain 3);
      branching_prog ();
      per_action_prog ();
      range_prog () ]

(* Mid-burst drops: a packet halts at its dropping table while the rest
   of the burst keeps walking; drop accounting and latencies must match
   Refsim. *)
let test_compiled_drops_identity () =
  let _, r = Refcheck.check "drops" (window ~source:(drop_source 5L) (acl_route_prog ())) in
  check_bool "drops actually happen" true (r.drops > 0)

(* Per-packet latencies out of the batch entry point, compared float for
   float (not just window aggregates). *)
let test_compiled_batch_latencies () =
  List.iter
    (fun prog ->
      let source = zipf_source 21L in
      let pkts = Array.init 300 (fun _ -> source ()) in
      let nows = Array.init 300 (fun i -> 0.001 *. float_of_int i) in
      ignore (Refcheck.check "batch" (Refcheck.burst (config ()) prog ~nows pkts)))
    [ P4ir.Program.linear "lin" (chain 3); branching_prog (); acl_route_prog (); range_prog () ]

(* Telemetry under the compiled walk: spans must come out in the exact
   per-packet order. *)
let test_compiled_telemetry_identity () =
  let a, _ =
    Refcheck.check "telemetry"
      (Refcheck.windows ~trace_every:7 (config ~sample_rate:1 ()) (acl_route_prog ())
         [ Refcheck.Window (400, drop_source 13L) ])
  in
  check_bool "spans nonempty" true (a.spans <> [])

(* Random programs (exact/LPM/ternary/range tables, branching, switch,
   drops): the compiled window must match Refsim on whole windows. *)
let test_compiled_random_programs =
  qtest ~count:40 "compiled window = reference window on random programs"
    QCheck2.Gen.(int_range 0 100000)
    (fun seed ->
      let case = Fuzz.Gen.case ~n_packets:48 (Stdx.Prng.create (Int64.of_int seed)) in
      let flows = Array.of_list case.Fuzz.Gen.packets in
      let k = ref 0 in
      let source () =
        let f = flows.(!k mod Array.length flows) in
        incr k;
        Nicsim.Packet.of_fields f
      in
      Refcheck.same
        (Refcheck.windows (config ()) case.Fuzz.Gen.program [ Refcheck.Window (200, source) ]))

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

(* The firewall's shape: a one-key flow cache over an exact table, whose
   hits skip it, then a range table, a two-length LPM table, a two-mask
   ternary table and a route whose action is [dec_ttl; forward]. The
   first two windows fill the cache (and run the pooled packets' TTL
   down to zero), so the measured window probes every backend on its
   hit path, with the cache's action alternating between flows. *)
let firewall_alloc_fixture () =
  let allow = P4ir.Action.nop "allow" in
  let peers =
    P4ir.Table.make ~name:"peers"
      ~keys:[ P4ir.Table.key P4ir.Field.Ipv4_src P4ir.Match_kind.Exact ]
      ~actions:[ P4ir.Action.nop "trusted"; allow ]
      ~default_action:"allow"
      ~entries:[ P4ir.Table.entry [ P4ir.Pattern.Exact 3L ] "trusted" ]
      ()
  in
  let flow = Pipeleon.Cache.build ~name:"flow" [ peers ] in
  let svc =
    P4ir.Table.make ~name:"svc"
      ~keys:[ P4ir.Table.key P4ir.Field.Tcp_dport P4ir.Match_kind.Range ]
      ~actions:[ allow; P4ir.Action.nop "deny" ]
      ~default_action:"deny"
      ~entries:
        [ P4ir.Table.entry ~priority:2 [ P4ir.Pattern.Range (80L, 80L) ] "allow";
          P4ir.Table.entry ~priority:1 [ P4ir.Pattern.Range (1024L, 65535L) ] "allow" ]
      ()
  in
  let bogon =
    P4ir.Table.make ~name:"bogon"
      ~keys:[ P4ir.Table.key P4ir.Field.Ipv4_src P4ir.Match_kind.Lpm ]
      ~actions:[ allow; P4ir.Action.nop "deny" ]
      ~default_action:"allow"
      ~entries:
        [ P4ir.Table.entry [ P4ir.Pattern.Lpm (0x0A000000L, 8) ] "deny";
          P4ir.Table.entry [ P4ir.Pattern.Lpm (0xC0A80000L, 16) ] "deny" ]
      ()
  in
  let dpi =
    P4ir.Table.make ~name:"dpi"
      ~keys:
        [ P4ir.Table.key P4ir.Field.Ipv4_src P4ir.Match_kind.Ternary;
          P4ir.Table.key P4ir.Field.Tcp_dport P4ir.Match_kind.Ternary ]
      ~actions:[ allow; P4ir.Action.nop "deny" ]
      ~default_action:"allow"
      ~entries:
        [ P4ir.Table.entry ~priority:3 [ P4ir.Pattern.Ternary (0L, 0L); P4ir.Pattern.Ternary (6667L, 0xFFFFL) ] "deny";
          P4ir.Table.entry ~priority:2
            [ P4ir.Pattern.Ternary (0xCB007100L, 0xFFFFFF00L); P4ir.Pattern.Ternary (0L, 0L) ]
            "deny" ]
      ()
  in
  let route =
    P4ir.Table.make ~name:"route"
      ~keys:[ P4ir.Table.key P4ir.Field.Ipv4_dst P4ir.Match_kind.Exact ]
      ~actions:[ P4ir.Action.make "uplink" [ P4ir.Action.Dec_ttl; P4ir.Action.Forward 1 ] ]
      ~default_action:"uplink" ()
  in
  let prog = P4ir.Program.empty "firewall-alloc" in
  let add prog node = P4ir.Program.add_node prog node in
  let prog, route_id = add prog (P4ir.Program.Table (route, P4ir.Program.Uniform None)) in
  let prog, dpi_id = add prog (P4ir.Program.Table (dpi, P4ir.Program.Uniform (Some route_id))) in
  let prog, bogon_id = add prog (P4ir.Program.Table (bogon, P4ir.Program.Uniform (Some dpi_id))) in
  let prog, svc_id = add prog (P4ir.Program.Table (svc, P4ir.Program.Uniform (Some bogon_id))) in
  let prog, peers_id = add prog (P4ir.Program.Table (peers, P4ir.Program.Uniform (Some svc_id))) in
  let prog, flow_id =
    add prog
      (P4ir.Program.Table
         ( flow,
           P4ir.Program.Per_action
             (List.map
                (fun (a : P4ir.Action.t) ->
                  (a.name, Some (if String.equal a.name "miss" then peers_id else svc_id)))
                flow.actions) ))
  in
  let prog = P4ir.Program.with_root prog (Some flow_id) in
  P4ir.Program.validate_exn prog;
  let pool =
    Array.init 256 (fun i ->
        Nicsim.Packet.of_fields
          [ (P4ir.Field.Ipv4_src, Int64.of_int (i mod 64));
            (P4ir.Field.Ipv4_dst, Int64.of_int i);
            (P4ir.Field.Tcp_dport, [| 80L; 443L; 2048L; 6667L |].(i mod 4)) ])
  in
  ("firewall", prog, pool)

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
    [ linear_alloc_fixture (); switch_alloc_fixture (); firewall_alloc_fixture () ]

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
