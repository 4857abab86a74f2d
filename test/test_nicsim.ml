(* Tests for the SmartNIC simulator: packets, LRU, match engines, the
   run-to-completion executor, and the multicore throughput model. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)
let check_float = Alcotest.(check (float 1e-6))

(* --- Packet --- *)

let test_packet_fields () =
  let p = Nicsim.Packet.create () in
  Nicsim.Packet.set p P4ir.Field.Ipv4_dst 0x0A000001L;
  check_bool "set/get" true
    (Int64.equal (Nicsim.Packet.get p P4ir.Field.Ipv4_dst) 0x0A000001L);
  Nicsim.Packet.set p P4ir.Field.Ipv4_ttl 0x1FFL;
  check_bool "width truncation" true
    (Int64.equal (Nicsim.Packet.get p P4ir.Field.Ipv4_ttl) 0xFFL);
  Nicsim.Packet.set p (P4ir.Field.Meta 20) 7L;
  check_bool "meta grows" true (Int64.equal (Nicsim.Packet.get p (P4ir.Field.Meta 20)) 7L);
  check_bool "unset meta reads zero" true
    (Int64.equal (Nicsim.Packet.get p (P4ir.Field.Meta 5)) 0L)

let test_packet_copy_independent () =
  let p = Nicsim.Packet.of_fields [ (P4ir.Field.Tcp_sport, 80L) ] in
  let q = Nicsim.Packet.copy p in
  Nicsim.Packet.set q P4ir.Field.Tcp_sport 443L;
  check_bool "copy independent" true
    (Int64.equal (Nicsim.Packet.get p P4ir.Field.Tcp_sport) 80L)

(* --- LRU --- *)

let test_lru_eviction_order () =
  let lru = Nicsim.Lru.create ~capacity:2 in
  ignore (Nicsim.Lru.put lru "a" 1);
  ignore (Nicsim.Lru.put lru "b" 2);
  ignore (Nicsim.Lru.find lru "a");  (* refresh a *)
  let evicted = Nicsim.Lru.put lru "c" 3 in
  check_bool "b evicted" true (evicted = Some "b");
  check_bool "a kept" true (Nicsim.Lru.find lru "a" = Some 1);
  check_int "len" 2 (Nicsim.Lru.length lru)

let test_lru_overwrite_no_evict () =
  let lru = Nicsim.Lru.create ~capacity:2 in
  ignore (Nicsim.Lru.put lru "a" 1);
  ignore (Nicsim.Lru.put lru "b" 2);
  check_bool "overwrite" true (Nicsim.Lru.put lru "a" 9 = None);
  check_bool "value updated" true (Nicsim.Lru.find lru "a" = Some 9)

let test_lru_remove_clear () =
  let lru = Nicsim.Lru.create ~capacity:4 in
  ignore (Nicsim.Lru.put lru "a" 1);
  Nicsim.Lru.remove lru "a";
  check_bool "removed" true (Nicsim.Lru.find lru "a" = None);
  ignore (Nicsim.Lru.put lru "b" 2);
  Nicsim.Lru.clear lru;
  check_int "cleared" 0 (Nicsim.Lru.length lru)

(* --- Engines --- *)

let pkt_dst v =
  Nicsim.Packet.of_fields [ (P4ir.Field.Ipv4_dst, v); (P4ir.Field.Tcp_dport, 80L) ]

let test_engine_exact () =
  let tab =
    P4ir.Table.make ~name:"e"
      ~keys:[ P4ir.Table.key P4ir.Field.Ipv4_dst P4ir.Match_kind.Exact ]
      ~actions:[ P4ir.Action.nop "hit"; P4ir.Action.nop "def" ]
      ~default_action:"def"
      ~entries:[ P4ir.Table.entry [ P4ir.Pattern.Exact 5L ] "hit" ]
      ()
  in
  let eng = Nicsim.Engine.create tab in
  let hit, accesses = Nicsim.Engine.lookup eng (pkt_dst 5L) in
  check_bool "hit" true (Option.is_some hit);
  check_int "one access" 1 accesses;
  let miss, accesses = Nicsim.Engine.lookup eng (pkt_dst 6L) in
  check_bool "miss" true (miss = None);
  check_int "miss one access" 1 accesses

let lpm_table () =
  P4ir.Table.make ~name:"lpm"
    ~keys:[ P4ir.Table.key P4ir.Field.Ipv4_dst P4ir.Match_kind.Lpm ]
    ~actions:[ P4ir.Action.nop "a8"; P4ir.Action.nop "a24"; P4ir.Action.nop "def" ]
    ~default_action:"def"
    ~entries:
      [ P4ir.Table.entry [ P4ir.Pattern.Lpm (0x0A000000L, 8) ] "a8";
        P4ir.Table.entry [ P4ir.Pattern.Lpm (0x0A0B0C00L, 24) ] "a24" ]
    ()

let test_engine_lpm_longest_first () =
  let eng = Nicsim.Engine.create (lpm_table ()) in
  let hit, accesses = Nicsim.Engine.lookup eng (pkt_dst 0x0A0B0C0DL) in
  (match hit with
   | Some e -> check_string "longest prefix wins" "a24" e.action
   | None -> Alcotest.fail "expected hit");
  check_int "first probe suffices" 1 accesses;
  let hit, accesses = Nicsim.Engine.lookup eng (pkt_dst 0x0AFFFFFFL) in
  (match hit with
   | Some e -> check_string "short prefix" "a8" e.action
   | None -> Alcotest.fail "expected /8 hit");
  check_int "two probes" 2 accesses;
  let miss, accesses = Nicsim.Engine.lookup eng (pkt_dst 0x0B000000L) in
  check_bool "miss" true (miss = None);
  check_int "all groups probed on miss" 2 accesses

let test_engine_ternary_priority () =
  let tab =
    P4ir.Table.make ~name:"tern"
      ~keys:[ P4ir.Table.key P4ir.Field.Ipv4_dst P4ir.Match_kind.Ternary ]
      ~actions:[ P4ir.Action.nop "low"; P4ir.Action.nop "high" ]
      ~default_action:"low"
      ~entries:
        [ P4ir.Table.entry ~priority:1 [ P4ir.Pattern.Ternary (0x0A000000L, 0xFF000000L) ] "low";
          P4ir.Table.entry ~priority:9 [ P4ir.Pattern.Ternary (0x0A0B0000L, 0xFFFF0000L) ] "high" ]
      ()
  in
  let eng = Nicsim.Engine.create tab in
  let hit, accesses = Nicsim.Engine.lookup eng (pkt_dst 0x0A0B0000L) in
  (match hit with
   | Some e -> check_string "priority wins" "high" e.action
   | None -> Alcotest.fail "expected hit");
  check_int "every mask group probed" 2 accesses

let test_engine_range_linear () =
  let tab =
    P4ir.Table.make ~name:"rng"
      ~keys:[ P4ir.Table.key P4ir.Field.Tcp_dport P4ir.Match_kind.Range ]
      ~actions:[ P4ir.Action.nop "web"; P4ir.Action.nop "def" ]
      ~default_action:"def"
      ~entries:[ P4ir.Table.entry [ P4ir.Pattern.Range (80L, 443L) ] "web" ]
      ()
  in
  let eng = Nicsim.Engine.create tab in
  match Nicsim.Engine.lookup eng (pkt_dst 1L) with
  | Some e, _ -> check_string "range hit" "web" e.action
  | None, _ -> Alcotest.fail "expected range hit"

let test_engine_insert_delete () =
  let tab =
    P4ir.Table.make ~name:"e"
      ~keys:[ P4ir.Table.key P4ir.Field.Ipv4_dst P4ir.Match_kind.Exact ]
      ~actions:[ P4ir.Action.nop "hit"; P4ir.Action.nop "def" ]
      ~default_action:"def" ()
  in
  let eng = Nicsim.Engine.create tab in
  Nicsim.Engine.insert eng (P4ir.Table.entry [ P4ir.Pattern.Exact 7L ] "hit");
  check_int "one entry" 1 (Nicsim.Engine.num_entries eng);
  check_int "update counted" 1 (Nicsim.Engine.update_count eng);
  check_bool "hit after insert" true
    (fst (Nicsim.Engine.lookup eng (pkt_dst 7L)) <> None);
  check_bool "delete" true (Nicsim.Engine.delete eng ~patterns:[ P4ir.Pattern.Exact 7L ]);
  check_int "empty" 0 (Nicsim.Engine.num_entries eng);
  check_int "both updates counted" 2 (Nicsim.Engine.take_update_count eng);
  check_int "counter reset" 0 (Nicsim.Engine.update_count eng)

let cache_table ?(capacity = 2) ?(insert_limit = 0.) () =
  P4ir.Table.make ~name:"cache"
    ~keys:[ P4ir.Table.key P4ir.Field.Ipv4_dst P4ir.Match_kind.Exact ]
    ~actions:[ P4ir.Action.nop "t:a"; P4ir.Action.nop "miss" ]
    ~default_action:"miss"
    ~role:
      (P4ir.Table.Cache
         { P4ir.Table.cached_tables = [ "t" ]; capacity; insert_limit; auto_insert = true })
    ()

let test_cache_fill_lru () =
  let eng = Nicsim.Engine.create (cache_table ()) in
  let fill v = Nicsim.Engine.cache_fill eng ~now:0. (P4ir.Table.entry [ P4ir.Pattern.Exact v ] "t:a") in
  check_bool "first" true (fill 1L = `Inserted);
  check_bool "second" true (fill 2L = `Inserted);
  check_bool "third evicts" true (fill 3L = `Full_replace);
  check_int "capacity respected" 2 (Nicsim.Engine.num_entries eng)

let test_cache_fill_rate_limit () =
  let eng = Nicsim.Engine.create (cache_table ~capacity:100 ~insert_limit:2. ()) in
  let fill now v =
    Nicsim.Engine.cache_fill eng ~now (P4ir.Table.entry [ P4ir.Pattern.Exact v ] "t:a")
  in
  (* The bucket starts with one second's burst (2 tokens). *)
  check_bool "burst token 1" true (fill 0.0 1L = `Inserted);
  check_bool "burst token 2" true (fill 0.0 2L = `Inserted);
  check_bool "burst exhausted" true (fill 0.0 3L = `Rate_limited);
  check_bool "refills with time" true (fill 1.0 4L = `Inserted);
  check_bool "capped at burst" true (fill 1.0 5L = `Inserted);
  check_bool "exhausted again" true (fill 1.0 6L = `Rate_limited)

(* --- Exec --- *)

let acl_with_drop ~name value =
  let acl = P4ir.Builder.acl_table ~name ~keys:[ P4ir.Builder.exact_key P4ir.Field.Ipv4_dst ] () in
  P4ir.Table.add_entry acl (P4ir.Table.entry [ P4ir.Pattern.Exact value ] "deny")

let test_exec_drop_halts () =
  let acl = acl_with_drop ~name:"acl" 9L in
  let after = P4ir.Builder.exact_chain ~prefix:"t" ~n:1 ~key_of:(fun _ -> P4ir.Field.Tcp_dport) () in
  let prog = P4ir.Program.linear "p" (acl :: after) in
  let target = Costmodel.Target.bluefield2 in
  let ex = Nicsim.Exec.create (Nicsim.Exec.default_config target) prog in
  let dropped = pkt_dst 9L in
  let lat_dropped = Nicsim.Exec.run_packet ex ~now:0. dropped in
  check_bool "dropped" true (Nicsim.Packet.is_dropped dropped);
  let passed = pkt_dst 8L in
  let lat_passed = Nicsim.Exec.run_packet ex ~now:0. passed in
  check_bool "not dropped" false (Nicsim.Packet.is_dropped passed);
  check_bool "early drop is cheaper" true (lat_dropped < lat_passed);
  check_int "drops counted" 1 (Nicsim.Exec.drops_seen ex)

let test_exec_actions_apply () =
  let tab =
    P4ir.Table.make ~name:"rewrite"
      ~keys:[ P4ir.Table.key P4ir.Field.Ipv4_dst P4ir.Match_kind.Exact ]
      ~actions:
        [ P4ir.Action.make "rw"
            [ P4ir.Action.Set_field (P4ir.Field.Tcp_dport, 100L);
              P4ir.Action.Dec_ttl;
              P4ir.Action.Forward 3 ];
          P4ir.Action.nop "def" ]
      ~default_action:"def"
      ~entries:[ P4ir.Table.entry [ P4ir.Pattern.Exact 1L ] "rw" ]
      ()
  in
  let prog = P4ir.Program.linear "p" [ tab ] in
  let ex = Nicsim.Exec.create (Nicsim.Exec.default_config Costmodel.Target.bluefield2) prog in
  let p = pkt_dst 1L in
  Nicsim.Packet.set p P4ir.Field.Ipv4_ttl 64L;
  ignore (Nicsim.Exec.run_packet ex ~now:0. p);
  check_bool "dport rewritten" true (Int64.equal (Nicsim.Packet.get p P4ir.Field.Tcp_dport) 100L);
  check_bool "ttl decremented" true (Int64.equal (Nicsim.Packet.get p P4ir.Field.Ipv4_ttl) 63L);
  check_bool "egress set" true (Nicsim.Packet.egress_port p = Some 3)

let test_exec_counters () =
  let acl = acl_with_drop ~name:"acl" 9L in
  let prog = P4ir.Program.linear "p" [ acl ] in
  let ex = Nicsim.Exec.create (Nicsim.Exec.default_config Costmodel.Target.bluefield2) prog in
  ignore (Nicsim.Exec.run_packet ex ~now:0. (pkt_dst 9L));
  ignore (Nicsim.Exec.run_packet ex ~now:0. (pkt_dst 1L));
  ignore (Nicsim.Exec.run_packet ex ~now:0. (pkt_dst 2L));
  let c = Nicsim.Exec.counters ex in
  check_bool "deny counted" true (Int64.equal (Profile.Counter.get c ~owner:"acl" ~label:"deny") 1L);
  check_bool "allow counted" true
    (Int64.equal (Profile.Counter.get c ~owner:"acl" ~label:"allow") 2L)

let test_exec_sampling () =
  let acl = acl_with_drop ~name:"acl" 9L in
  let prog = P4ir.Program.linear "p" [ acl ] in
  let cfg =
    { (Nicsim.Exec.default_config Costmodel.Target.bluefield2) with
      Nicsim.Exec.sample_rate = 4 }
  in
  let ex = Nicsim.Exec.create cfg prog in
  for _ = 1 to 16 do
    ignore (Nicsim.Exec.run_packet ex ~now:0. (pkt_dst 1L))
  done;
  let c = Nicsim.Exec.counters ex in
  check_bool "1 in 4 sampled" true
    (Int64.equal (Profile.Counter.get c ~owner:"acl" ~label:"allow") 4L)

let test_exec_migration_cost () =
  let tabs = P4ir.Builder.exact_chain ~prefix:"t" ~n:4 ~key_of:(fun _ -> P4ir.Field.Ipv4_dst) () in
  let prog = P4ir.Program.linear "p" tabs in
  let target = Costmodel.Target.bluefield2 in
  let all_asic = Nicsim.Exec.default_config target in
  let ids = List.map fst (P4ir.Program.tables prog) in
  (* Alternate ASIC/CPU: t0=Asic, t1=Cpu, t2=Asic, t3=Cpu gives crossings
     t0-t1, t1-t2, t2-t3, t3-sink = 4 migrations. *)
  let placement id =
    match List.find_index (Int.equal id) ids with
    | Some i when i mod 2 = 1 -> Costmodel.Cost.Cpu
    | _ -> Costmodel.Cost.Asic
  in
  let hetero = { all_asic with Nicsim.Exec.placement } in
  let ex_flat = Nicsim.Exec.create all_asic prog in
  let ex_het = Nicsim.Exec.create hetero prog in
  let base = Nicsim.Exec.run_packet ex_flat ~now:0. (pkt_dst 1L) in
  let lifted = Nicsim.Exec.run_packet ex_het ~now:0. (pkt_dst 1L) in
  check_bool "migrations charged" true
    (lifted -. base >= (4. *. target.Costmodel.Target.migration_latency) -. 1e-6)

let test_exec_switch_case_routing () =
  let t_next = P4ir.Builder.exact_chain ~prefix:"after" ~n:1 ~key_of:(fun _ -> P4ir.Field.Ipv4_dst) () in
  let switch_tab =
    P4ir.Table.make ~name:"sw"
      ~keys:[ P4ir.Table.key P4ir.Field.Ipv4_dst P4ir.Match_kind.Exact ]
      ~actions:[ P4ir.Action.nop "go"; P4ir.Action.nop "skip" ]
      ~default_action:"skip"
      ~entries:[ P4ir.Table.entry [ P4ir.Pattern.Exact 1L ] "go" ]
      ()
  in
  let prog = P4ir.Program.empty "p" in
  let prog, after_id =
    P4ir.Program.add_node prog
      (P4ir.Program.Table (List.hd t_next, P4ir.Program.Uniform None))
  in
  let prog, sw_id =
    P4ir.Program.add_node prog
      (P4ir.Program.Table
         (switch_tab, P4ir.Program.Per_action [ ("go", Some after_id); ("skip", None) ]))
  in
  let prog = P4ir.Program.with_root prog (Some sw_id) in
  P4ir.Program.validate_exn prog;
  let ex = Nicsim.Exec.create (Nicsim.Exec.default_config Costmodel.Target.bluefield2) prog in
  ignore (Nicsim.Exec.run_packet ex ~now:0. (pkt_dst 1L));
  ignore (Nicsim.Exec.run_packet ex ~now:0. (pkt_dst 2L));
  let c = Nicsim.Exec.counters ex in
  check_bool "only the 'go' packet reaches after_0" true
    (Int64.equal (Profile.Counter.owner_total c "after_0") 1L)

(* --- Sim --- *)

let test_sim_window_throughput () =
  let tabs = P4ir.Builder.exact_chain ~prefix:"t" ~n:10 ~key_of:(fun _ -> P4ir.Field.Ipv4_dst) () in
  let prog = P4ir.Program.linear "p" tabs in
  let target = Costmodel.Target.bluefield2 in
  let sim = Nicsim.Sim.create target prog in
  let rng = Stdx.Prng.create 42L in
  let flows = Traffic.Workload.random_flows rng ~n:100 ~fields:[ P4ir.Field.Ipv4_dst ] in
  let source = Traffic.Workload.of_flows rng flows in
  let stats = Nicsim.Sim.run_window sim ~duration:1.0 ~packets:500 ~source in
  check_int "sampled" 500 stats.Nicsim.Sim.sampled_packets;
  check_bool "throughput positive" true (stats.Nicsim.Sim.throughput_gbps > 0.);
  check_bool "capped at line rate" true
    (stats.Nicsim.Sim.throughput_gbps <= target.Costmodel.Target.line_rate_gbps +. 1e-9);
  check_float "clock advanced" 1.0 (Nicsim.Sim.now sim)

let test_sim_reconfigure_preserves_entries () =
  let tab =
    P4ir.Table.make ~name:"keep"
      ~keys:[ P4ir.Table.key P4ir.Field.Ipv4_dst P4ir.Match_kind.Exact ]
      ~actions:[ P4ir.Action.nop "hit"; P4ir.Action.nop "def" ]
      ~default_action:"def" ()
  in
  let prog = P4ir.Program.linear "p" [ tab ] in
  let sim = Nicsim.Sim.create Costmodel.Target.bluefield2 prog in
  Nicsim.Sim.insert sim ~table:"keep" (P4ir.Table.entry [ P4ir.Pattern.Exact 7L ] "hit");
  let prog2 =
    P4ir.Program.linear "p2"
      (tab :: P4ir.Builder.exact_chain ~prefix:"new" ~n:1 ~key_of:(fun _ -> P4ir.Field.Tcp_dport) ())
  in
  Nicsim.Sim.reconfigure ~downtime:0.5 sim prog2;
  check_float "downtime advanced clock" 0.5 (Nicsim.Sim.now sim);
  let eng = Nicsim.Exec.engine_exn (Nicsim.Sim.exec sim) "keep" in
  check_int "entries preserved" 1 (Nicsim.Engine.num_entries eng)

let test_sim_profile_extraction () =
  let acl = acl_with_drop ~name:"acl" 9L in
  let prog = P4ir.Program.linear "p" [ acl ] in
  let sim = Nicsim.Sim.create Costmodel.Target.bluefield2 prog in
  let rng = Stdx.Prng.create 1L in
  let base = Traffic.Workload.constant [ (P4ir.Field.Ipv4_dst, 1L) ] in
  let source =
    Traffic.Workload.mark_fraction rng ~rate:0.5 ~field:P4ir.Field.Ipv4_dst ~value:9L base
  in
  ignore (Nicsim.Sim.run_window sim ~duration:1.0 ~packets:4000 ~source);
  let prof = Nicsim.Sim.current_profile sim in
  let drop =
    Profile.drop_prob prof
      (match P4ir.Program.find_table prog "acl" with Some (_, t) -> t | None -> assert false)
  in
  check_bool "observed drop rate near 0.5" true (Float.abs (drop -. 0.5) < 0.05)

let test_sim_p99_and_drop_fraction () =
  let acl = acl_with_drop ~name:"acl" 9L in
  let tail = P4ir.Builder.exact_chain ~prefix:"t" ~n:8 ~key_of:(fun _ -> P4ir.Field.Tcp_dport) () in
  let prog = P4ir.Program.linear "p" (acl :: tail) in
  let sim = Nicsim.Sim.create Costmodel.Target.bluefield2 prog in
  let rng = Stdx.Prng.create 8L in
  let base = Traffic.Workload.constant [ (P4ir.Field.Ipv4_dst, 1L) ] in
  let source =
    Traffic.Workload.mark_fraction rng ~rate:0.25 ~field:P4ir.Field.Ipv4_dst ~value:9L base
  in
  let stats = Nicsim.Sim.run_window sim ~duration:1.0 ~packets:2000 ~source in
  check_bool "p99 >= avg" true (stats.Nicsim.Sim.p99_latency >= stats.Nicsim.Sim.avg_latency);
  check_bool "drop fraction near 0.25" true
    (Float.abs (stats.Nicsim.Sim.drop_fraction -. 0.25) < 0.04)

let test_sim_instrumentation_overhead () =
  let prog =
    P4ir.Program.linear "p"
      (P4ir.Builder.exact_chain ~prefix:"t" ~n:20 ~key_of:(fun _ -> P4ir.Field.Ipv4_dst) ())
  in
  let target = Costmodel.Target.agilio_cx in
  let run instrumented =
    let cfg = { (Nicsim.Exec.default_config target) with Nicsim.Exec.instrumented } in
    let sim = Nicsim.Sim.create ~config:cfg target prog in
    let source = Traffic.Workload.constant [ (P4ir.Field.Ipv4_dst, 1L) ] in
    (Nicsim.Sim.run_window sim ~duration:1.0 ~packets:300 ~source).Nicsim.Sim.avg_latency
  in
  let plain = run false and counted = run true in
  (* 20 counter bumps at the Agilio counter cost. *)
  Alcotest.(check (float 1e-6)) "counter cost exact"
    (20. *. target.Costmodel.Target.counter_update_cost)
    (counted -. plain)

let test_cache_capacity_respected_in_program () =
  let tabs = P4ir.Builder.exact_chain ~prefix:"t" ~n:2 ~key_of:(fun i -> [| P4ir.Field.Ipv4_src; P4ir.Field.Ipv4_dst |].(i)) () in
  let prog = P4ir.Program.linear "p" tabs in
  let p = List.hd (Pipeleon.Pipelet.form prog) in
  let cache = Pipeleon.Cache.build ~capacity:8 ~insert_limit:1e9 ~name:"c" tabs in
  let prog' =
    Pipeleon.Transform.apply prog p [ Pipeleon.Transform.Cached { cache; originals = tabs } ]
  in
  let ex = Nicsim.Exec.create (Nicsim.Exec.default_config Costmodel.Target.bluefield2) prog' in
  for i = 1 to 100 do
    let pkt =
      Nicsim.Packet.of_fields
        [ (P4ir.Field.Ipv4_src, Int64.of_int i); (P4ir.Field.Ipv4_dst, Int64.of_int i) ]
    in
    ignore (Nicsim.Exec.run_packet ex ~now:(float_of_int i) pkt)
  done;
  check_int "LRU bound holds under fills" 8
    (Nicsim.Engine.num_entries (Nicsim.Exec.engine_exn ex "c"))

let test_navigation_migration_execution () =
  (* Materialized hetero program executes through nav/migration tables:
     next_tab_id gets written and the packet still reaches the end. *)
  let tabs =
    P4ir.Builder.exact_chain ~prefix:"t" ~n:2 ~key_of:(fun _ -> P4ir.Field.Ipv4_dst) ()
  in
  let prog = P4ir.Program.linear "p" tabs in
  let ids = List.map fst (P4ir.Program.tables prog) in
  let placement id = if id = List.nth ids 1 then Costmodel.Cost.Cpu else Costmodel.Cost.Asic in
  let prog', placement' = Pipeleon.Hetero.materialize prog ~placement in
  let cfg = { (Nicsim.Exec.default_config Costmodel.Target.emulated_nic) with Nicsim.Exec.placement = placement' } in
  let ex = Nicsim.Exec.create cfg prog' in
  let pkt = pkt_dst 1L in
  ignore (Nicsim.Exec.run_packet ex ~now:0. pkt);
  check_bool "next_tab_id piggybacked" true
    (Int64.compare (Nicsim.Packet.get pkt P4ir.Field.Next_tab_id) 0L > 0);
  let c = Nicsim.Exec.counters ex in
  check_bool "migration table executed" true
    (List.exists
       (fun ((k : Profile.Counter.key), _) ->
         String.length k.owner >= 5 && String.sub k.owner 0 5 = "__mig")
       (Profile.Counter.dump c))

(* --- fast path: compiled plans, insert ordering, copies --- *)

let lpm_key = [ P4ir.Table.key P4ir.Field.Ipv4_dst P4ir.Match_kind.Lpm ]

let lpm_entry ~len v = P4ir.Table.entry [ P4ir.Pattern.Lpm (v, len) ] "hit"

let empty_lpm_table () =
  P4ir.Table.make ~name:"l" ~keys:lpm_key
    ~actions:[ P4ir.Action.nop "hit"; P4ir.Action.nop "def" ]
    ~default_action:"def" ()

let test_shaped_insert_ordering () =
  let eng = Nicsim.Engine.create (empty_lpm_table ()) in
  (* Insert prefix lengths out of order; groups must end up probe-ordered
     longest-first regardless. *)
  List.iter
    (fun len ->
      Nicsim.Engine.insert eng
        (lpm_entry ~len (Int64.shift_left 0x0AL (32 - 8))))
    [ 12; 8; 24; 16; 20 ];
  check_int "one group per distinct length" 5 (Nicsim.Engine.shape_groups eng);
  (* Re-inserting an existing length must not create a group. *)
  Nicsim.Engine.insert eng (lpm_entry ~len:16 (Int64.shift_left 0x0BL 16));
  check_int "no duplicate group" 5 (Nicsim.Engine.shape_groups eng);
  (* Probe ordering: a /24 hit is found on the first probe, a /8-only
     match needs one probe per longer group first. *)
  let _, accesses = Nicsim.Engine.lookup_linear eng (pkt_dst 0x0A000000L) in
  check_int "longest group probed first" 1 accesses;
  let hit, accesses = Nicsim.Engine.lookup_linear eng (pkt_dst 0x0AFFFFFFL) in
  check_bool "/8 still hits" true (Option.is_some hit);
  check_int "shortest group probed last" 5 accesses;
  let miss, accesses = Nicsim.Engine.lookup_linear eng (pkt_dst 0x0C000000L) in
  check_bool "miss" true (miss = None);
  check_int "miss probes every group" 5 accesses

let test_lpm_plan_matches_linear () =
  let eng = Nicsim.Engine.create (empty_lpm_table ()) in
  let lens = [ 6; 10; 14; 18; 22; 26 ] in
  List.iter
    (fun len ->
      for i = 0 to 15 do
        Nicsim.Engine.insert eng
          (lpm_entry ~len (Int64.shift_left (Int64.of_int (i * 3)) (32 - len)))
      done)
    lens;
  let agree probe =
    let pkt = pkt_dst probe in
    let plan_hit, plan_acc = Nicsim.Engine.lookup eng pkt in
    let lin_hit, lin_acc = Nicsim.Engine.lookup_linear eng pkt in
    check_bool
      (Printf.sprintf "same result at %Lx" probe)
      true
      ((match (plan_hit, lin_hit) with
        | None, None -> true
        | Some a, Some b -> a.P4ir.Table.patterns = b.P4ir.Table.patterns
        | _ -> false)
      && plan_acc = lin_acc)
  in
  for i = 0 to 2000 do
    agree (Int64.logand (Stdx.Prng.mix64 (Int64.of_int i)) 0xFFFFFFFFL)
  done;
  (* Mutation invalidates the compiled plan; agreement must survive it. *)
  Nicsim.Engine.insert eng (lpm_entry ~len:30 0xDEADBEECL);
  agree 0xDEADBEEFL;
  ignore (Nicsim.Engine.delete eng ~patterns:[ P4ir.Pattern.Lpm (0xDEADBEECL, 30) ]);
  agree 0xDEADBEEFL

(* --- rule-scale plan selection --- *)

(* [n] distinct prefixes spread over 8 lengths (17..24): enough groups
   for every LPM plan, sized to straddle the auto-selection threshold. *)
let big_lpm_table n =
  let per = n / 8 in
  P4ir.Table.make ~name:"big" ~keys:lpm_key
    ~actions:[ P4ir.Action.nop "hit"; P4ir.Action.nop "def" ]
    ~default_action:"def"
    ~entries:
      (List.concat
         (List.init 8 (fun l ->
              let len = 17 + l in
              List.init
                (per + if l = 0 then n mod 8 else 0)
                (fun i -> lpm_entry ~len (Int64.shift_left (Int64.of_int (i + 1)) (32 - len))))))
    ()

(* Masks share their top twelve bits, as structured ACL mask sets do —
   the auto selector's degeneracy guard would (correctly) refuse a tree
   over masks with no common bits; see [test_tree_degeneracy_guard]. *)
let big_ternary_table n =
  let masks = [| 0xFFFFFF00L; 0xFFFF00FFL; 0xFFF0FF0FL; 0xFFFFFFF0L |] in
  let per = n / 4 in
  P4ir.Table.make ~name:"bigt"
    ~keys:[ P4ir.Table.key P4ir.Field.Ipv4_dst P4ir.Match_kind.Ternary ]
    ~actions:[ P4ir.Action.nop "hit"; P4ir.Action.nop "def" ]
    ~default_action:"def"
    ~entries:
      (List.concat
         (List.init 4 (fun m ->
              List.init
                (per + if m = 0 then n mod 4 else 0)
                (fun i ->
                  P4ir.Table.entry ~priority:((m * per) + i)
                    [ P4ir.Pattern.Ternary
                        (Int64.logand (Int64.of_int ((i + 1) * 2654435761)) masks.(m), masks.(m))
                    ]
                    "hit"))))
    ()

(* [per] distinct prefixes at each of the given lengths. *)
let lpm_lengths_table ~lens ~per =
  P4ir.Table.make ~name:"lens" ~keys:lpm_key
    ~actions:[ P4ir.Action.nop "hit"; P4ir.Action.nop "def" ]
    ~default_action:"def"
    ~entries:
      (List.concat_map
         (fun len ->
           List.init per (fun i ->
               lpm_entry ~len (Int64.shift_left (Int64.of_int (i + 1)) (32 - len))))
         lens)
    ()

let plan_agrees_with_linear ?(pkt_of = pkt_dst) eng probe =
  let pkt = pkt_of probe in
  let plan_hit, plan_acc = Nicsim.Engine.lookup eng pkt in
  let lin_hit, lin_acc = Nicsim.Engine.lookup_linear eng pkt in
  check_bool
    (Printf.sprintf "plan = linear at %Lx" probe)
    true
    ((match (plan_hit, lin_hit) with
      | None, None -> true
      | Some a, Some b -> a.P4ir.Table.patterns = b.P4ir.Table.patterns
      | _ -> false)
    && plan_acc = lin_acc)

(* Probes that land inside the populated prefixes of [lpm_lengths_table]
   (every length, at every depth) as well as random misses. *)
let lengths_probes ~lens ~per =
  List.concat_map
    (fun len ->
      List.init per (fun i ->
          Int64.logor
            (Int64.shift_left (Int64.of_int (i + 1)) (32 - len))
            (Int64.of_int (i land 0xF))))
    lens
  @ List.init 200 (fun i -> Int64.logand (Stdx.Prng.mix64 (Int64.of_int i)) 0xFFFFFFFFL)

let test_plan_selector_thresholds () =
  (* Four prefix lengths are enough for the learned index, whatever the
     entry count; result and modeled access count stay the linear probe's. *)
  let lens = [ 8; 12; 16; 24 ] in
  let eng = Nicsim.Engine.create (lpm_lengths_table ~lens ~per:16) in
  check_string "4 lengths x 16 entries" "learned" (Nicsim.Engine.plan_kind eng);
  List.iter (plan_agrees_with_linear eng) (lengths_probes ~lens ~per:16);
  (* Three lengths take the learned index only from 4096 entries on. *)
  let lens = [ 16; 20; 24 ] in
  let n = Nicsim.Engine.learned_threshold in
  let eng = Nicsim.Engine.create (lpm_lengths_table ~lens ~per:16) in
  check_string "3 lengths, small" "lpm-linear" (Nicsim.Engine.plan_kind eng);
  let eng = Nicsim.Engine.create (lpm_lengths_table ~lens ~per:((n / 3) + 1)) in
  check_string "3 lengths at threshold" "learned" (Nicsim.Engine.plan_kind eng);
  let eng = Nicsim.Engine.create (lpm_lengths_table ~lens ~per:((n - 1) / 3)) in
  check_string "3 lengths below threshold" "lpm-linear" (Nicsim.Engine.plan_kind eng);
  (* A second (exact) key rules the learned index out at any length
     count: nested LPM+exact tables keep the longest-first probe. *)
  let two_key =
    P4ir.Table.make ~name:"lpm-exact"
      ~keys:(lpm_key @ [ P4ir.Table.key P4ir.Field.Tcp_dport P4ir.Match_kind.Exact ])
      ~actions:[ P4ir.Action.nop "hit"; P4ir.Action.nop "def" ]
      ~default_action:"def"
      ~entries:
        (List.concat_map
           (fun len ->
             List.init 16 (fun i ->
                 P4ir.Table.entry
                   [ P4ir.Pattern.Lpm (Int64.shift_left (Int64.of_int (i + 1)) (32 - len), len);
                     P4ir.Pattern.Exact (Int64.of_int (i land 3)) ]
                   "hit"))
           [ 8; 12; 16; 20; 24; 28 ])
      ()
  in
  let eng = Nicsim.Engine.create two_key in
  check_string "LPM+exact, 6 lengths" "lpm-linear" (Nicsim.Engine.plan_kind eng);
  let pkt_of v =
    Nicsim.Packet.of_fields
      [ (P4ir.Field.Ipv4_dst, Int64.logand v 0xFFFFFFFFL);
        (P4ir.Field.Tcp_dport, Int64.shift_right_logical v 32 |> Int64.logand 3L) ]
  in
  List.iter
    (fun v ->
      plan_agrees_with_linear ~pkt_of eng v;
      plan_agrees_with_linear ~pkt_of eng (Int64.logor v (Int64.shift_left 1L 32)))
    (lengths_probes ~lens:[ 8; 12; 16; 20; 24; 28 ] ~per:16);
  (* The ternary decision tree still switches on at 4096 entries. *)
  let eng = Nicsim.Engine.create (big_ternary_table Nicsim.Engine.tree_threshold) in
  check_string "ternary at threshold" "tree" (Nicsim.Engine.plan_kind eng);
  let eng = Nicsim.Engine.create (big_ternary_table (Nicsim.Engine.tree_threshold - 1)) in
  check_string "ternary below threshold" "ternary-skip" (Nicsim.Engine.plan_kind eng)

let test_backend_hint_override () =
  let lens = [ 16; 20; 24 ] in
  let tab = lpm_lengths_table ~lens ~per:16 in
  (* A forced hint runs a plan below its auto threshold... *)
  let eng = Nicsim.Engine.create ~hint:Nicsim.Engine.Force_learned tab in
  check_string "forced learned" "learned" (Nicsim.Engine.plan_kind eng);
  List.iter (plan_agrees_with_linear eng) (lengths_probes ~lens ~per:16);
  let eng = Nicsim.Engine.create ~hint:Nicsim.Engine.Force_linear (big_lpm_table 256) in
  check_string "forced linear" "lpm-linear" (Nicsim.Engine.plan_kind eng);
  (* ...but a hint the table's shape cannot honour falls back to Auto. *)
  let eng = Nicsim.Engine.create ~hint:Nicsim.Engine.Force_tree (big_lpm_table 256) in
  check_string "tree hint on LPM: auto's learned" "learned" (Nicsim.Engine.plan_kind eng);
  let eng = Nicsim.Engine.create ~hint:Nicsim.Engine.Force_tree tab in
  check_string "tree hint on LPM: auto's linear" "lpm-linear" (Nicsim.Engine.plan_kind eng);
  let eng = Nicsim.Engine.create ~hint:Nicsim.Engine.Force_learned (big_ternary_table 64) in
  check_string "learned hint on ternary: auto's skip" "ternary-skip"
    (Nicsim.Engine.plan_kind eng);
  (* Hints are a shaped-backend concept; exact tables ignore them. *)
  let ex =
    Nicsim.Engine.create ~hint:Nicsim.Engine.Force_tree
      (P4ir.Table.make ~name:"e"
         ~keys:[ P4ir.Table.key P4ir.Field.Ipv4_dst P4ir.Match_kind.Exact ]
         ~actions:[ P4ir.Action.nop "hit"; P4ir.Action.nop "def" ]
         ~default_action:"def"
         ~entries:[ P4ir.Table.entry [ P4ir.Pattern.Exact 5L ] "hit" ]
         ())
  in
  check_string "exact kind unchanged" "exact-hash" (Nicsim.Engine.plan_kind ex)

let test_plan_staleness () =
  let eng = Nicsim.Engine.create ~hint:Nicsim.Engine.Force_learned (empty_lpm_table ()) in
  Nicsim.Engine.insert eng (lpm_entry ~len:16 0x0A0B0000L);
  check_string "learned from the start" "learned" (Nicsim.Engine.plan_kind eng);
  check_bool "/16 hit" true (fst (Nicsim.Engine.lookup eng (pkt_dst 0x0A0B0C0DL)) <> None);
  (* Every control-plane mutation must invalidate the compiled plan. *)
  Nicsim.Engine.insert eng (lpm_entry ~len:24 0x0A0B0C00L);
  (match fst (Nicsim.Engine.lookup eng (pkt_dst 0x0A0B0C0DL)) with
   | Some e ->
     check_bool "rebuilt after insert" true
       (e.P4ir.Table.patterns = [ P4ir.Pattern.Lpm (0x0A0B0C00L, 24) ])
   | None -> Alcotest.fail "expected hit after insert");
  ignore (Nicsim.Engine.delete eng ~patterns:[ P4ir.Pattern.Lpm (0x0A0B0C00L, 24) ]);
  (match fst (Nicsim.Engine.lookup eng (pkt_dst 0x0A0B0C0DL)) with
   | Some e ->
     check_bool "rebuilt after delete" true
       (e.P4ir.Table.patterns = [ P4ir.Pattern.Lpm (0x0A0B0000L, 16) ])
   | None -> Alcotest.fail "expected /16 hit after delete");
  Nicsim.Engine.load_entries eng [ lpm_entry ~len:8 0x0B000000L ];
  check_int "reloaded entry count" 1 (Nicsim.Engine.num_entries eng);
  check_bool "rebuilt after load_entries" true
    (fst (Nicsim.Engine.lookup eng (pkt_dst 0x0B123456L)) <> None);
  check_bool "old entries gone" true
    (fst (Nicsim.Engine.lookup eng (pkt_dst 0x0A0B0C0DL)) = None);
  Nicsim.Engine.invalidate eng;
  check_int "invalidated" 0 (Nicsim.Engine.num_entries eng);
  check_bool "rebuilt after invalidate" true
    (fst (Nicsim.Engine.lookup eng (pkt_dst 0x0B123456L)) = None)

let test_learned_remainder_store () =
  (* A dense run of /32 hosts makes the piecewise-linear fit trivial;
     one far outlier then ends the key space with a sub-[learned_min_run]
     segment, which must be diverted to the sorted remainder store
     rather than earning (badly-fitting) coefficients. *)
  let eng = Nicsim.Engine.create ~hint:Nicsim.Engine.Force_learned (empty_lpm_table ()) in
  for i = 0 to 159 do
    Nicsim.Engine.insert eng (lpm_entry ~len:32 (Int64.of_int (0x0A000000 + i)))
  done;
  Nicsim.Engine.insert eng (lpm_entry ~len:32 0x30000000L);
  check_string "still learned" "learned" (Nicsim.Engine.plan_kind eng);
  let stats = Nicsim.Engine.plan_stats eng in
  check_bool "remainder store populated" true (List.assoc "remainder" stats > 0);
  List.iter (plan_agrees_with_linear eng)
    [ 0L; 0x09FFFFFFL; 0x0A000000L; 0x0A00009FL; 0x0A0000A0L; 0x2FFFFFFFL; 0x30000000L;
      0x30000001L; 0xFFFFFFFFL ]

let test_tree_degeneracy_guard () =
  (* Complement-pair masks: every key bit is wildcarded by half the
     mask groups, so any split duplicates half the candidates — the
     duplication budget dies near the root and leaves stay huge. Auto
     must refuse that tree and keep the skip probe; a forced hint
     builds it anyway and must still agree with the reference probe. *)
  let masks =
    [| 0xFFFF0000L; 0x0000FFFFL; 0xFF00FF00L; 0x00FF00FFL;
       0xF0F0F0F0L; 0x0F0F0F0FL; 0xCCCCCCCCL; 0x33333333L |]
  in
  let n = 2 * Nicsim.Engine.tree_threshold in
  let per = n / 8 in
  (* Distinct patterns per mask: an odd-multiplier bijection of the
     index deposited into the mask's 16 set bit positions. *)
  let deposit mask x =
    let v = ref 0L and bit = ref 0 in
    for b = 0 to 31 do
      if Int64.equal (Int64.logand (Int64.shift_right_logical mask b) 1L) 1L then begin
        if (x lsr !bit) land 1 = 1 then v := Int64.logor !v (Int64.shift_left 1L b);
        incr bit
      end
    done;
    !v
  in
  let tab =
    P4ir.Table.make ~name:"degen"
      ~keys:[ P4ir.Table.key P4ir.Field.Ipv4_dst P4ir.Match_kind.Ternary ]
      ~actions:[ P4ir.Action.nop "hit"; P4ir.Action.nop "def" ]
      ~default_action:"def"
      ~entries:
        (List.concat
           (List.init 8 (fun m ->
                List.init per (fun i ->
                    P4ir.Table.entry ~priority:((m * per) + i)
                      [ P4ir.Pattern.Ternary
                          (deposit masks.(m) (i * 2654435761 land 0xFFFF), masks.(m))
                      ]
                      "hit"))))
      ()
  in
  let eng = Nicsim.Engine.create tab in
  check_string "auto refuses degenerate tree" "ternary-skip" (Nicsim.Engine.plan_kind eng);
  let eng = Nicsim.Engine.create ~hint:Nicsim.Engine.Force_tree tab in
  check_string "forced tree bypasses the guard" "tree" (Nicsim.Engine.plan_kind eng);
  check_bool "leaves actually degenerate" true
    (List.assoc "tree_max_leaf" (Nicsim.Engine.plan_stats eng) > 4 * 8);
  for i = 0 to 100 do
    plan_agrees_with_linear eng (Int64.logand (Stdx.Prng.mix64 (Int64.of_int i)) 0xFFFFFFFFL)
  done

let test_engine_copy_independent () =
  let eng = Nicsim.Engine.create (empty_lpm_table ()) in
  Nicsim.Engine.insert eng (lpm_entry ~len:8 0x0A000000L);
  let snap = Nicsim.Engine.copy eng in
  Nicsim.Engine.insert eng (lpm_entry ~len:24 0x0A0B0C00L);
  check_int "copy unaffected by later insert" 1 (Nicsim.Engine.num_entries snap);
  check_int "original grew" 2 (Nicsim.Engine.num_entries eng);
  (match fst (Nicsim.Engine.lookup snap (pkt_dst 0x0A0B0C0DL)) with
   | Some e -> check_bool "copy still matches /8" true (e.P4ir.Table.patterns = [ P4ir.Pattern.Lpm (0x0A000000L, 8) ])
   | None -> Alcotest.fail "copy lost its entry");
  ignore (Nicsim.Engine.delete snap ~patterns:[ P4ir.Pattern.Lpm (0x0A000000L, 8) ]);
  check_int "original unaffected by copy delete" 2 (Nicsim.Engine.num_entries eng)

let test_prng_fork_deterministic () =
  let a = Stdx.Prng.create 42L in
  let b = Stdx.Prng.create 42L in
  let fa = Stdx.Prng.fork a 3 in
  let fb = Stdx.Prng.fork b 3 in
  for _ = 1 to 8 do
    check_bool "equal (state, index) give equal streams" true
      (Int64.equal (Stdx.Prng.next64 fa) (Stdx.Prng.next64 fb))
  done;
  (* Forking must not advance the parent. *)
  check_bool "parent undisturbed" true
    (Int64.equal (Stdx.Prng.next64 a) (Stdx.Prng.next64 b));
  let c = Stdx.Prng.create 42L in
  ignore (Stdx.Prng.next64 c);
  check_bool "distinct indices decorrelate" false
    (Int64.equal
       (Stdx.Prng.next64 (Stdx.Prng.fork c 0))
       (Stdx.Prng.next64 (Stdx.Prng.fork c 1)))

(* --- windows: the compiled walk against the reference interpreter --- *)

let stats_bits_equal (a : Nicsim.Sim.window_stats) (b : Nicsim.Sim.window_stats) =
  let f x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y) in
  f a.window_start b.window_start
  && f a.window_duration b.window_duration
  && a.sampled_packets = b.sampled_packets
  && a.sampled_drops = b.sampled_drops
  && f a.avg_latency b.avg_latency
  && f a.p99_latency b.p99_latency
  && f a.throughput_gbps b.throughput_gbps
  && f a.drop_fraction b.drop_fraction

(* Exact + LPM + ternary pipeline with a drop entry some packets hit. *)
let driver_program () =
  let acl = acl_with_drop ~name:"acl" 9L in
  let lpm =
    P4ir.Table.make ~name:"route" ~keys:lpm_key
      ~actions:[ P4ir.Action.nop "hit"; P4ir.Action.nop "def" ]
      ~default_action:"def"
      ~entries:
        (List.concat_map
           (fun len ->
             List.init 8 (fun i ->
                 lpm_entry ~len (Int64.shift_left (Int64.of_int (i * 5)) (32 - len))))
           [ 8; 12; 16; 20; 24 ])
      ()
  in
  let tern =
    P4ir.Table.make ~name:"qos"
      ~keys:[ P4ir.Table.key P4ir.Field.Tcp_dport P4ir.Match_kind.Ternary ]
      ~actions:[ P4ir.Action.nop "mark"; P4ir.Action.nop "def" ]
      ~default_action:"def"
      ~entries:
        (List.mapi
           (fun i mask ->
             P4ir.Table.entry ~priority:i [ P4ir.Pattern.Ternary (0x10L, mask) ] "mark")
           [ 0xFFL; 0xF0FL; 0x3FFL; 0xFF0L ])
      ()
  in
  P4ir.Program.linear "drv" [ acl; lpm; tern ]

let driver_source seed =
  let rng = Stdx.Prng.create seed in
  let flows =
    Traffic.Workload.random_flows rng ~n:64
      ~fields:
        [ P4ir.Field.Ipv4_src; P4ir.Field.Ipv4_dst; P4ir.Field.Tcp_sport;
          P4ir.Field.Tcp_dport ]
  in
  let base = Traffic.Workload.of_flows rng flows in
  Traffic.Workload.mark_fraction rng ~rate:0.2 ~field:P4ir.Field.Ipv4_dst ~value:9L base

let driver_sim () =
  let target = Costmodel.Target.bluefield2 in
  (* A non-trivial sample rate makes the global-sequence sampling pinning
     observable: get it wrong and counters AND latencies diverge. *)
  let cfg = { (Nicsim.Exec.default_config target) with Nicsim.Exec.sample_rate = 3 } in
  Nicsim.Sim.create ~config:cfg target (driver_program ())

let check_driver_identical name run_alt =
  let sim_a = driver_sim () in
  let stats_a =
    Nicsim.Sim.run_window_reference sim_a ~duration:1.0 ~packets:1000
      ~source:(driver_source 5L)
  in
  let sim_b = driver_sim () in
  let stats_b = run_alt sim_b (driver_source 5L) in
  check_bool (name ^ ": stats bit-identical") true (stats_bits_equal stats_a stats_b);
  check_bool (name ^ ": counters identical") true
    (Profile.Counter.dump (Nicsim.Exec.counters (Nicsim.Sim.exec sim_a))
    = Profile.Counter.dump (Nicsim.Exec.counters (Nicsim.Sim.exec sim_b)));
  check_int (name ^ ": packets seen") (Nicsim.Exec.packets_seen (Nicsim.Sim.exec sim_a))
    (Nicsim.Exec.packets_seen (Nicsim.Sim.exec sim_b));
  check_int (name ^ ": drops seen") (Nicsim.Exec.drops_seen (Nicsim.Sim.exec sim_a))
    (Nicsim.Exec.drops_seen (Nicsim.Sim.exec sim_b))

let test_window_batched_identical () =
  (* 1000 packets in bursts of 64 end on a ragged burst of 40. *)
  check_driver_identical "batched" (fun sim source ->
      Nicsim.Sim.run_window sim ~duration:1.0 ~packets:1000 ~source)

let () =
  Alcotest.run "nicsim"
    [ ( "packet",
        [ Alcotest.test_case "fields" `Quick test_packet_fields;
          Alcotest.test_case "copy" `Quick test_packet_copy_independent ] );
      ( "lru",
        [ Alcotest.test_case "eviction order" `Quick test_lru_eviction_order;
          Alcotest.test_case "overwrite" `Quick test_lru_overwrite_no_evict;
          Alcotest.test_case "remove/clear" `Quick test_lru_remove_clear ] );
      ( "engine",
        [ Alcotest.test_case "exact" `Quick test_engine_exact;
          Alcotest.test_case "lpm longest first" `Quick test_engine_lpm_longest_first;
          Alcotest.test_case "ternary priority" `Quick test_engine_ternary_priority;
          Alcotest.test_case "range linear" `Quick test_engine_range_linear;
          Alcotest.test_case "insert/delete" `Quick test_engine_insert_delete;
          Alcotest.test_case "cache fill + lru" `Quick test_cache_fill_lru;
          Alcotest.test_case "cache rate limit" `Quick test_cache_fill_rate_limit ] );
      ( "exec",
        [ Alcotest.test_case "drop halts" `Quick test_exec_drop_halts;
          Alcotest.test_case "actions apply" `Quick test_exec_actions_apply;
          Alcotest.test_case "counters" `Quick test_exec_counters;
          Alcotest.test_case "sampling" `Quick test_exec_sampling;
          Alcotest.test_case "migration cost" `Quick test_exec_migration_cost;
          Alcotest.test_case "switch-case routing" `Quick test_exec_switch_case_routing ] );
      ( "sim",
        [ Alcotest.test_case "window throughput" `Quick test_sim_window_throughput;
          Alcotest.test_case "reconfigure" `Quick test_sim_reconfigure_preserves_entries;
          Alcotest.test_case "profile extraction" `Quick test_sim_profile_extraction;
          Alcotest.test_case "p99 + drop fraction" `Quick test_sim_p99_and_drop_fraction;
          Alcotest.test_case "instrumentation overhead" `Quick test_sim_instrumentation_overhead;
          Alcotest.test_case "cache capacity in program" `Quick
            test_cache_capacity_respected_in_program;
          Alcotest.test_case "nav/migration execution" `Quick
            test_navigation_migration_execution ] );
      ( "fast-path",
        [ Alcotest.test_case "shaped insert ordering" `Quick test_shaped_insert_ordering;
          Alcotest.test_case "lpm plan = linear probe" `Quick test_lpm_plan_matches_linear;
          Alcotest.test_case "plan selector thresholds" `Quick test_plan_selector_thresholds;
          Alcotest.test_case "backend hint override" `Quick test_backend_hint_override;
          Alcotest.test_case "plan staleness on mutation" `Quick test_plan_staleness;
          Alcotest.test_case "learned remainder store" `Quick test_learned_remainder_store;
          Alcotest.test_case "tree degeneracy guard" `Quick test_tree_degeneracy_guard;
          Alcotest.test_case "engine copy independent" `Quick test_engine_copy_independent;
          Alcotest.test_case "prng fork deterministic" `Quick test_prng_fork_deterministic;
          Alcotest.test_case "batched window bit-identical" `Quick
            test_window_batched_identical ] ) ]
