(* Property-based tests (QCheck) on the core invariants:
   - bit-level helpers (truncate, prefix masks, pattern semantics);
   - engine lookups agree with the reference Table.lookup semantics;
   - windows agree with the Refsim reference on random sizes;
   - node-sum expected latency equals path enumeration on random DAGs;
   - the optimizer preserves program semantics on random programs;
   - knapsack solutions respect budgets and beat greedy;
   - LRU never exceeds capacity. *)

let target = Costmodel.Target.bluefield2

(* The data path's lookup: the match and its modeled access count. *)
let lookup eng pkt =
  let r = Nicsim.Engine.probe eng pkt in
  (r, Nicsim.Engine.last_accesses eng)

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* --- values and patterns --- *)

let test_truncate_idempotent =
  qtest "truncate idempotent"
    QCheck2.Gen.(pair (int_range 1 64) (map Int64.of_int int))
    (fun (w, v) ->
      let once = P4ir.Value.truncate ~width:w v in
      Int64.equal once (P4ir.Value.truncate ~width:w once))

let test_lpm_equals_ternary =
  qtest "lpm pattern = ternary with prefix mask"
    QCheck2.Gen.(triple (int_range 0 32) (map Int64.of_int int) (map Int64.of_int int))
    (fun (len, value, probe) ->
      let width = 32 in
      let lpm = P4ir.Pattern.Lpm (value, len) in
      let tern =
        P4ir.Pattern.Ternary (value, P4ir.Value.prefix_mask ~width ~prefix_len:len)
      in
      P4ir.Pattern.matches ~width lpm probe = P4ir.Pattern.matches ~width tern probe)

let test_prefix_mask_popcount =
  qtest "prefix mask has prefix_len set bits"
    QCheck2.Gen.(int_range 0 32)
    (fun len ->
      let mask = P4ir.Value.prefix_mask ~width:32 ~prefix_len:len in
      let rec pop v = if Int64.equal v 0L then 0 else 1 + pop (Int64.logand v (Int64.sub v 1L)) in
      pop mask = len)

(* --- engines vs reference lookup --- *)

let kind_gen =
  QCheck2.Gen.oneofl [ P4ir.Match_kind.Exact; P4ir.Match_kind.Lpm; P4ir.Match_kind.Ternary ]

let table_gen =
  (* A single-key table with random entries of a consistent kind. *)
  let open QCheck2.Gen in
  kind_gen >>= fun kind ->
  list_size (int_range 0 20) (int_range 0 63) >>= fun raw ->
  let actions = [ P4ir.Action.nop "hit"; P4ir.Action.nop "fallback" ] in
  let pattern i v =
    match kind with
    | P4ir.Match_kind.Exact -> P4ir.Pattern.Exact (Int64.of_int v)
    | P4ir.Match_kind.Lpm -> P4ir.Pattern.Lpm (Int64.shift_left (Int64.of_int v) 26, [| 6; 14; 22 |].(i mod 3))
    | P4ir.Match_kind.Ternary ->
      P4ir.Pattern.Ternary (Int64.of_int v, [| 0x3FL; 0x3F00L; 0xFFFFL |].(i mod 3))
    | P4ir.Match_kind.Range -> P4ir.Pattern.Range (Int64.of_int v, Int64.of_int (v + 5))
  in
  let entries =
    (* Priorities order ternary/range entries; LPM matching is
       longest-prefix-first and P4 gives LPM entries no priority. *)
    List.mapi
      (fun i v ->
        let priority = if kind = P4ir.Match_kind.Lpm then 0 else i in
        P4ir.Table.entry ~priority [ pattern i v ] "hit")
      raw
  in
  (* Deduplicate identical patterns (hash engines overwrite; the
     reference keeps both and breaks ties by order). *)
  let entries =
    List.fold_left
      (fun acc (e : P4ir.Table.entry) ->
        if List.exists (fun (x : P4ir.Table.entry) -> x.patterns = e.patterns) acc then acc
        else e :: acc)
      [] entries
    |> List.rev
  in
  return
    (P4ir.Table.make ~name:"t"
       ~keys:[ P4ir.Table.key P4ir.Field.Ipv4_dst kind ]
       ~actions ~default_action:"fallback" ~entries ())

let test_engine_matches_reference =
  qtest ~count:200 "engine lookup = reference lookup"
    QCheck2.Gen.(pair table_gen (int_range 0 65535))
    (fun (tab, probe) ->
      let eng = Nicsim.Engine.create tab in
      let pkt = Nicsim.Packet.of_fields [ (P4ir.Field.Ipv4_dst, Int64.of_int probe) ] in
      let engine_hit, _ = lookup eng pkt in
      let ref_hit = P4ir.Table.lookup tab (fun _ -> Int64.of_int probe) in
      match (engine_hit, ref_hit) with
      | None, None -> true
      | Some a, Some b ->
        (* Same action; the exact entry may differ among equal-priority
           overlapping entries. *)
        a.P4ir.Table.priority = b.P4ir.Table.priority
      | _ -> false)

let lpm_raw_gen = QCheck2.Gen.(triple (int_range 1 30) (map Int64.of_int int) (int_range 0 3))

(* One [lpm_plan_gen] entry: a prefix with the value bits past its
   length cleared and, on a two-key table, a port. *)
let lpm_plan_entry ~with_port (len, v, port) =
  let v =
    Int64.logand (P4ir.Value.truncate ~width:32 v) (P4ir.Value.prefix_mask ~width:32 ~prefix_len:len)
  in
  P4ir.Table.entry
    (P4ir.Pattern.Lpm (v, len)
    :: (if with_port then [ P4ir.Pattern.Exact (Int64.of_int port) ] else []))
    "hit"

(* Random LPM tables over up to 30 prefix lengths. Half the tables
   carry a second, exact key (tcp.dport in 0..3): the nested LPM+exact
   shape. *)
let lpm_plan_gen =
  let open QCheck2.Gen in
  bool
  >>= fun with_port ->
  list_size (int_range 1 40) lpm_raw_gen
  >>= fun raw ->
  let entries = List.map (lpm_plan_entry ~with_port) raw in
  let entries =
    List.fold_left
      (fun acc (e : P4ir.Table.entry) ->
        if List.exists (fun (x : P4ir.Table.entry) -> x.patterns = e.patterns) acc then acc
        else e :: acc)
      [] entries
    |> List.rev
  in
  return
    (P4ir.Table.make ~name:"t"
       ~keys:
         (P4ir.Table.key P4ir.Field.Ipv4_dst P4ir.Match_kind.Lpm
         ::
         (if with_port then [ P4ir.Table.key P4ir.Field.Tcp_dport P4ir.Match_kind.Exact ]
          else []))
       ~actions:[ P4ir.Action.nop "hit"; P4ir.Action.nop "fallback" ]
       ~default_action:"fallback" ~entries ())

(* A probe packet for [lpm_plan_gen] tables: a 32-bit destination and a
   port in the exact key's range (ignored by single-key tables). *)
let lpm_probe_gen = QCheck2.Gen.(pair (map Int64.of_int int) (int_range 0 3))

let lpm_probe_packet (dst, port) =
  Nicsim.Packet.of_fields
    [ (P4ir.Field.Ipv4_dst, P4ir.Value.truncate ~width:32 dst);
      (P4ir.Field.Tcp_dport, Int64.of_int port) ]

let test_lpm_plan_equals_linear =
  qtest ~count:300 "auto LPM plan = linear probe"
    QCheck2.Gen.(pair lpm_plan_gen lpm_probe_gen)
    (fun (tab, probe) ->
      let eng = Nicsim.Engine.create tab in
      let pkt = lpm_probe_packet probe in
      let plan_hit, plan_acc = lookup eng pkt in
      let lin_hit, lin_acc = Nicsim.Engine.lookup_linear eng pkt in
      plan_acc = lin_acc
      &&
      match (plan_hit, lin_hit) with
      | None, None -> true
      | Some a, Some b -> a.P4ir.Table.patterns = b.P4ir.Table.patterns
      | _ -> false)

let ternary_raw_gen = QCheck2.Gen.(pair (int_range 0 4) (map Int64.of_int int))

(* One [ternary_plan_gen] entry: a value under one of a small pool of
   masks, its bits outside the mask cleared. *)
let ternary_plan_entry ~priority (mi, v) =
  let masks = [| 0x3FL; 0x3F00L; 0xFFFFL; 0xF0F0L; 0x0FF0L |] in
  P4ir.Table.entry ~priority [ P4ir.Pattern.Ternary (Int64.logand v masks.(mi), masks.(mi)) ] "hit"

(* Random single-key ternary tables over the mask pool with unique
   priorities: several mask groups and overlapping matches. *)
let ternary_plan_gen =
  let open QCheck2.Gen in
  list_size (int_range 1 40) ternary_raw_gen
  >>= fun raw ->
  let entries = List.mapi (fun i raw -> ternary_plan_entry ~priority:i raw) raw in
  let entries =
    List.fold_left
      (fun acc (e : P4ir.Table.entry) ->
        if List.exists (fun (x : P4ir.Table.entry) -> x.patterns = e.patterns) acc then acc
        else e :: acc)
      [] entries
    |> List.rev
  in
  return
    (P4ir.Table.make ~name:"t"
       ~keys:[ P4ir.Table.key P4ir.Field.Ipv4_dst P4ir.Match_kind.Ternary ]
       ~actions:[ P4ir.Action.nop "hit"; P4ir.Action.nop "fallback" ]
       ~default_action:"fallback" ~entries ())

type edit = Insert of P4ir.Table.entry | Delete of P4ir.Pattern.t list | Delete_live of int

(* Up to [max_edits] edits: inserts ([insert_weight] shares), deletes
   of random patterns and deletes of the [i mod n]-th live entry (one
   share each). [entry_gen k] draws the k-th edit's entry. *)
let edits_gen ?(max_edits = 24) ?(insert_weight = 1) entry_gen =
  QCheck2.Gen.(
    int_range 1 max_edits >>= fun n ->
    flatten_l
      (List.init n (fun k ->
           triple (int_range 0 (insert_weight + 1)) (entry_gen k) nat
           >|= fun (op, (e : P4ir.Table.entry), i) ->
           if op < insert_weight then Insert e
           else if op = insert_weight then Delete e.patterns
           else Delete_live i)))

(* One [exact_edits_gen] entry: a destination in 0..95 and, on a
   two-key table, a port in 0..3. *)
let exact_raw_gen = QCheck2.Gen.(pair (int_range 0 95) (int_range 0 3))

let exact_entry ~with_port ~priority (v, port) =
  P4ir.Table.entry ~priority
    (P4ir.Pattern.Exact (Int64.of_int v)
    :: (if with_port then [ P4ir.Pattern.Exact (Int64.of_int port) ] else []))
    "hit"

(* One- and two-key exact tables (one shape group) under up to 160
   edits, three in five of them inserts over a small key space: the
   group's index doubles several times (a live count past 32 takes it
   from 8 slots to 128) and deletes land inside collision runs.
   Inserted entries take priorities 0..2, so re-inserting a live key
   exercises the collapse rule both ways. *)
let exact_edits_gen =
  let open QCheck2.Gen in
  bool >>= fun with_port ->
  list_size (int_range 0 40) exact_raw_gen >>= fun raw ->
  let entries =
    List.map (fun (v, port) -> (v, if with_port then port else 0)) raw
    |> List.sort_uniq compare
    |> List.map (exact_entry ~with_port ~priority:0)
  in
  let tab =
    P4ir.Table.make ~name:"t"
      ~keys:
        (P4ir.Table.key P4ir.Field.Ipv4_dst P4ir.Match_kind.Exact
        ::
        (if with_port then [ P4ir.Table.key P4ir.Field.Tcp_dport P4ir.Match_kind.Exact ]
         else []))
      ~actions:[ P4ir.Action.nop "hit"; P4ir.Action.nop "fallback" ]
      ~default_action:"fallback" ~entries ()
  in
  edits_gen ~max_edits:160 ~insert_weight:3 (fun k ->
      map (exact_entry ~with_port ~priority:(k mod 3)) exact_raw_gen)
  >>= fun edits ->
  list_size (pure 16) (pair (map Int64.of_int (int_range 0 127)) (int_range 0 3))
  >|= fun probes -> (tab, edits, probes)

(* [lpm_plan_gen] (one and two keys) and [ternary_plan_gen] tables with
   edits, and exact tables with more of them; inserted ternary entries
   take priorities above every initial one, so priorities stay unique. *)
let shaped_edits_gen =
  let probes = QCheck2.Gen.list_size (QCheck2.Gen.pure 16) lpm_probe_gen in
  QCheck2.Gen.(
    oneof
      [ ( lpm_plan_gen >>= fun tab ->
          let with_port = List.length tab.P4ir.Table.keys = 2 in
          edits_gen (fun _ -> map (lpm_plan_entry ~with_port) lpm_raw_gen) >>= fun edits ->
          probes >|= fun probes -> (tab, edits, probes) );
        ( ternary_plan_gen >>= fun tab ->
          edits_gen (fun k -> map (ternary_plan_entry ~priority:(1000 + k)) ternary_raw_gen)
          >>= fun edits -> probes >|= fun probes -> (tab, edits, probes) );
        exact_edits_gen ])

(* A packet at an entry's own values: a hit on it while it is live. *)
let entry_packet (patterns : P4ir.Pattern.t list) =
  let dst =
    match patterns with
    | (P4ir.Pattern.Exact v | P4ir.Pattern.Lpm (v, _) | P4ir.Pattern.Ternary (v, _)) :: _ -> v
    | _ -> 0L
  in
  let port = match patterns with [ _; P4ir.Pattern.Exact p ] -> Int64.to_int p | _ -> 0 in
  lpm_probe_packet (dst, port)

(* LPM, ternary and exact tables under interleaved inserts and deletes.
   A model list of the live entries follows every edit (an insert onto
   live patterns keeps the higher priority, ties to the live entry).
   After every edit the delete's result, [num_entries] and [entries]
   match the model, and on each probe [probe] agrees with
   [lookup_linear] on the entry and the access count; on a single-key
   or an exact table (whose winner is unique) it also returns
   [P4ir.Table.lookup]'s winner over [Engine.entries]. For an exact
   table [lookup_linear] is the same index, so that and the final
   check are its independent references. After the last edit,
   [load_entries] of [Engine.entries] into a fresh engine (the reload
   [Sim.hot_patch] and [Sim.reconfigure] do) answers every probe with
   the same entry, and [Refsim] agrees on every hit and miss. *)
let test_shaped_probe_under_edits =
  qtest ~count:300 "shaped probe = linear under edits" shaped_edits_gen
    (fun (tab, edits, probes) ->
      let eng = Nicsim.Engine.create tab in
      let same a b = match (a, b) with None, None -> true | Some a, Some b -> a == b | _ -> false in
      let exact = List.for_all (fun (k : P4ir.Table.key) -> k.kind = P4ir.Match_kind.Exact) tab.keys in
      let agree live pkt =
        let got = Nicsim.Engine.probe eng pkt in
        let acc = Nicsim.Engine.last_accesses eng in
        let lin, lin_acc = Nicsim.Engine.lookup_linear eng pkt in
        same got lin && acc = lin_acc
        && ((List.length tab.keys > 1 && not exact)
           || same got (P4ir.Table.lookup live (Nicsim.Packet.get pkt)))
      in
      let sorted es = List.sort compare (List.map (fun (e : P4ir.Table.entry) -> e.patterns) es) in
      let probe_packets = List.map lpm_probe_packet probes in
      let holds model patterns =
        let live = { tab with entries = Nicsim.Engine.entries eng } in
        Nicsim.Engine.num_entries eng = List.length model
        && sorted live.entries = sorted model
        && List.for_all (agree live) (entry_packet patterns :: probe_packets)
      in
      let live model patterns =
        List.exists (fun (m : P4ir.Table.entry) -> m.patterns = patterns) model
      in
      let delete model patterns =
        let ok = Nicsim.Engine.delete eng ~patterns = live model patterns in
        (ok, List.filter (fun (m : P4ir.Table.entry) -> m.patterns <> patterns) model, patterns)
      in
      let rec go model = function
        | [] -> true
        | edit :: rest ->
          let ok, model, patterns =
            match edit with
            | Insert (e : P4ir.Table.entry) ->
              Nicsim.Engine.insert eng e;
              let model =
                if live model e.patterns then
                  List.map
                    (fun (m : P4ir.Table.entry) ->
                      if m.patterns = e.patterns && m.priority < e.priority then e else m)
                    model
                else model @ [ e ]
              in
              (true, model, e.patterns)
            | Delete patterns -> delete model patterns
            | Delete_live i ->
              (match model with
               | [] -> (true, model, [])
               | _ -> delete model (List.nth model (i mod List.length model)).patterns)
          in
          ok && holds model patterns && go model rest
      in
      let reloaded () =
        let live = Nicsim.Engine.entries eng in
        let fresh = Nicsim.Engine.create { tab with entries = [] } in
        Nicsim.Engine.load_entries fresh live;
        let prog = P4ir.Program.linear "p" [ { tab with entries = live } ] in
        List.for_all2
          (fun pkt (dst, port) ->
            let got = Nicsim.Engine.probe eng pkt in
            let fields =
              [ (P4ir.Field.Ipv4_dst, P4ir.Value.truncate ~width:32 dst);
                (P4ir.Field.Tcp_dport, Int64.of_int port) ]
            in
            same got (Nicsim.Engine.probe fresh pkt)
            && List.assoc_opt "t" (Fuzz.Refsim.run prog fields).trace
               = Some (match got with Some _ -> "hit" | None -> "fallback"))
          probe_packets probes
      in
      holds tab.entries [] && go tab.entries edits && reloaded ())

(* --- the window against Refsim --- *)

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

let test_window_drivers_identical =
  qtest ~count:20 "batched windows = sequential (bits + counters)"
    QCheck2.Gen.(pair (map Int64.of_int int) (int_range 16 400))
    (fun (seed, packets) ->
      let prog, source = acl_route seed in
      let cfg = { (Nicsim.Exec.default_config target) with Nicsim.Exec.sample_rate = 3 } in
      Refcheck.same (Refcheck.windows cfg prog [ Refcheck.Window (packets, source) ]))

let synth_gen =
  let open QCheck2.Gen in
  map
    (fun seed ->
      let rng = Stdx.Prng.create (Int64.of_int seed) in
      let params =
        { Experiments.Synth.default_params with sections = 3; pipelet_len = 2; diamond_prob = 0.5 }
      in
      let prog = Experiments.Synth.program ~params rng in
      let prof = Experiments.Synth.profile rng prog in
      (prog, prof))
    int

let test_node_sum_equals_paths =
  qtest ~count:50 "node-sum latency = path enumeration" synth_gen (fun (prog, prof) ->
      let a = Costmodel.Cost.expected_latency target prof prog in
      let b = Costmodel.Cost.expected_latency_via_paths target prof prog in
      Float.abs (a -. b) <= 1e-6 *. Float.max 1. a)

let test_reach_probs_bounded =
  qtest ~count:50 "reach probabilities in [0,1]" synth_gen (fun (prog, prof) ->
      List.for_all
        (fun (_, p) -> p >= -.1e-9 && p <= 1. +. 1e-9)
        (Costmodel.Cost.reach_probs prof prog))

(* --- optimizer semantics --- *)

let packets_agree prog_a prog_b seed =
  let rng = Stdx.Prng.create seed in
  let fields =
    [ P4ir.Field.Ipv4_src; P4ir.Field.Ipv4_dst; P4ir.Field.Tcp_sport; P4ir.Field.Tcp_dport;
      P4ir.Field.Ipv4_proto; P4ir.Field.Eth_type ]
  in
  let ex_a = Nicsim.Exec.create (Nicsim.Exec.default_config target) prog_a in
  let ex_b = Nicsim.Exec.create (Nicsim.Exec.default_config target) prog_b in
  let ok = ref true in
  for _ = 1 to 300 do
    (* Small value domain so table entries actually hit. *)
    let pkt =
      Nicsim.Packet.of_fields
        (List.map (fun f -> (f, Int64.of_int (Stdx.Prng.int rng 40))) fields)
    in
    let q = Nicsim.Packet.copy pkt in
    ignore (Nicsim.Exec.run_packet ex_a ~now:0. pkt);
    ignore (Nicsim.Exec.run_packet ex_b ~now:0. q);
    if Nicsim.Packet.is_dropped pkt <> Nicsim.Packet.is_dropped q then ok := false;
    List.iter
      (fun i ->
        let f = P4ir.Field.Meta i in
        if not (Int64.equal (Nicsim.Packet.get pkt f) (Nicsim.Packet.get q f)) then ok := false)
      [ 8; 9; 10; 11 ]
  done;
  !ok

let test_optimizer_preserves_semantics =
  qtest ~count:25 "optimizer preserves semantics" synth_gen (fun (prog, prof) ->
      let result =
        Pipeleon.Optimizer.optimize
          ~config:{ Pipeleon.Optimizer.default_config with top_k = 1.0 }
          target prof prog
      in
      P4ir.Program.validate_exn result.Pipeleon.Optimizer.program;
      packets_agree prog result.Pipeleon.Optimizer.program 11L)

let test_warm_start_gain_equal =
  qtest ~count:10 "warm-start re-optimization is gain-equal" synth_gen
    (fun (prog, prof) ->
      let config = { Pipeleon.Optimizer.default_config with top_k = 1.0 } in
      let cold = Pipeleon.Optimizer.optimize ~config target prof prog in
      let cache = Pipeleon.Search.create_cache () in
      let warm =
        { Pipeleon.Optimizer.warm_cache = cache;
          warm_signature = Runtime.Incremental.pipelet_signature }
      in
      ignore (Pipeleon.Optimizer.optimize ~config ~warm target prof prog);
      let rewarm = Pipeleon.Optimizer.optimize ~config ~warm target prof prog in
      let hits, misses = Pipeleon.Search.cache_stats cache in
      (* Unchanged profile: the second round must be served from cache
         and produce the same predicted gain as a cold run. *)
      hits = misses
      && rewarm.plan.Pipeleon.Search.predicted_gain
         = cold.plan.Pipeleon.Search.predicted_gain)

let test_serialize_roundtrip_random =
  qtest ~count:50 "serialize round-trip on random programs" synth_gen (fun (prog, _) ->
      let json = P4ir.Serialize.to_string prog in
      match P4ir.Serialize.of_string json with
      | Ok prog' -> String.equal json (P4ir.Serialize.to_string prog')
      | Error _ -> false)

let test_emit_parse_fixpoint_random =
  qtest ~count:30 "p4lite emit/parse fixpoint on random programs" synth_gen
    (fun (prog, _) ->
      let emitted = P4lite.Emit.emit prog in
      match P4lite.Lower.parse_program emitted with
      | reparsed -> String.equal emitted (P4lite.Emit.emit reparsed)
      | exception _ -> false)

let test_hetero_materialize_random =
  qtest ~count:25 "hetero materialization preserves semantics" synth_gen
    (fun (prog, _) ->
      (* Random placement by table-name hash; conditionals stay on ASIC. *)
      let placement id =
        match P4ir.Program.table_of prog id with
        | Some t when Hashtbl.hash t.P4ir.Table.name mod 2 = 0 -> Costmodel.Cost.Cpu
        | _ -> Costmodel.Cost.Asic
      in
      let prog', _ = Pipeleon.Hetero.materialize prog ~placement in
      P4ir.Program.validate_exn prog';
      packets_agree prog prog' 77L)

let test_hot_patch_equals_fresh =
  qtest ~count:25 "incremental hot-patch behaves like a fresh deploy" synth_gen
    (fun (prog, _) ->
      (* Patch a sim of a DIFFERENT program over to [prog]; its executor
         must then process packets exactly like a fresh one built on
         [prog]. *)
      let rng = Stdx.Prng.create 5L in
      let other =
        Experiments.Synth.program
          ~params:{ Experiments.Synth.default_params with sections = 2 }
          rng
      in
      let sim = Nicsim.Sim.create target other in
      ignore (Nicsim.Sim.hot_patch sim prog);
      let patched_ex = Nicsim.Sim.exec sim in
      let fresh_ex = Nicsim.Exec.create (Nicsim.Exec.default_config target) prog in
      let pkt_rng = Stdx.Prng.create 99L in
      let fields =
        [ P4ir.Field.Ipv4_src; P4ir.Field.Ipv4_dst; P4ir.Field.Tcp_sport;
          P4ir.Field.Ipv4_proto; P4ir.Field.Eth_type ]
      in
      let ok = ref true in
      for _ = 1 to 200 do
        let pkt =
          Nicsim.Packet.of_fields
            (List.map (fun f -> (f, Int64.of_int (Stdx.Prng.int pkt_rng 40))) fields)
        in
        let q = Nicsim.Packet.copy pkt in
        ignore (Nicsim.Exec.run_packet patched_ex ~now:0. pkt);
        ignore (Nicsim.Exec.run_packet fresh_ex ~now:0. q);
        if Nicsim.Packet.is_dropped pkt <> Nicsim.Packet.is_dropped q then ok := false;
        List.iter
          (fun i ->
            let f = P4ir.Field.Meta i in
            if not (Int64.equal (Nicsim.Packet.get pkt f) (Nicsim.Packet.get q f)) then
              ok := false)
          [ 8; 9; 10; 11 ]
      done;
      !ok)

(* --- knapsack --- *)

let knapsack_gen =
  let open QCheck2.Gen in
  list_size (int_range 1 6)
    (list_size (int_range 1 4)
       (map3
          (fun g m u ->
            { Pipeleon.Knapsack.gain = float_of_int g; mem = m * 100; upd = float_of_int u; tag = 0 })
          (int_range 0 20) (int_range 0 10) (int_range 0 10)))
  |> map (fun groups ->
         List.map (List.mapi (fun i o -> { o with Pipeleon.Knapsack.tag = i })) groups)

let budget_ok groups picks ~mem_budget ~upd_budget =
  let used_mem, used_upd =
    List.fold_left
      (fun (m, u) (gi, tag) ->
        let o = List.nth (List.nth groups gi) tag in
        (m + o.Pipeleon.Knapsack.mem, u +. o.Pipeleon.Knapsack.upd))
      (0, 0.) picks
  in
  used_mem <= mem_budget && used_upd <= upd_budget

let test_knapsack_within_budget =
  qtest ~count:200 "knapsack respects budgets" knapsack_gen (fun groups ->
      let sol = Pipeleon.Knapsack.solve ~groups ~mem_budget:500 ~upd_budget:15. () in
      let one_per_group =
        let gis = List.map fst sol.Pipeleon.Knapsack.picks in
        List.length gis = List.length (List.sort_uniq compare gis)
      in
      one_per_group && budget_ok groups sol.Pipeleon.Knapsack.picks ~mem_budget:500 ~upd_budget:15.)

let test_knapsack_prune_equals_unpruned =
  (* Dominance pruning only drops options whose DP candidate value is
     covered by a dominator at every cell, so the optimal total gain is
     preserved bit-for-bit (float max over a subset containing the
     argmax). *)
  qtest ~count:200 "dominance pruning preserves total gain" knapsack_gen (fun groups ->
      let solve ~prune =
        Pipeleon.Knapsack.solve_stats ~prune ~groups ~mem_budget:500 ~upd_budget:15. ()
      in
      let pruned, stats_p = solve ~prune:true in
      let unpruned, stats_u = solve ~prune:false in
      pruned.Pipeleon.Knapsack.total_gain = unpruned.Pipeleon.Knapsack.total_gain
      && stats_p.Pipeleon.Knapsack.options_after <= stats_u.Pipeleon.Knapsack.options_after
      && stats_p.Pipeleon.Knapsack.dp_cells <= stats_u.Pipeleon.Knapsack.dp_cells)

let test_knapsack_beats_greedy =
  (* With bucket counts that divide the generated costs exactly, the DP
     is the true optimum and must dominate the greedy heuristic. (Under
     coarse buckets it is only optimal for the discretized problem.) *)
  qtest ~count:200 "knapsack DP >= greedy" knapsack_gen (fun groups ->
      let dp =
        Pipeleon.Knapsack.solve ~mem_buckets:5 ~upd_buckets:15 ~groups ~mem_budget:500
          ~upd_budget:15. ()
      in
      let gr = Pipeleon.Knapsack.greedy ~groups ~mem_budget:500 ~upd_budget:15. in
      dp.Pipeleon.Knapsack.total_gain >= gr.Pipeleon.Knapsack.total_gain -. 1e-9)

(* --- compiled range scan --- *)

(* Mixed-kind rule sets with a range key, so the table runs the linear
   backend: small value domains, priorities from {0,1,2} and patterns
   that often tie on specificity, so equal-priority overlaps (which the
   fuzz generator never makes) are the common case. The compiled scan
   must return the very entry [P4ir.Table.lookup] returns — ties
   included — before and after control-plane edits. *)
let range_keys =
  [| P4ir.Table.key P4ir.Field.Tcp_dport P4ir.Match_kind.Range;
     P4ir.Table.key P4ir.Field.Ipv4_proto P4ir.Match_kind.Ternary;
     P4ir.Table.key P4ir.Field.Ipv4_dscp P4ir.Match_kind.Lpm;
     P4ir.Table.key P4ir.Field.Tcp_sport P4ir.Match_kind.Exact;
     P4ir.Table.key P4ir.Field.Udp_dport P4ir.Match_kind.Range |]

let range_pattern_gen (k : P4ir.Table.key) =
  QCheck2.Gen.(
    let v = map Int64.of_int (int_range 0 15) in
    match k.kind with
    | P4ir.Match_kind.Range -> map2 (fun lo w -> P4ir.Pattern.Range (lo, Int64.add lo (Int64.of_int w))) v (int_range (-1) 6)
    | P4ir.Match_kind.Ternary ->
      map2 (fun x m -> P4ir.Pattern.Ternary (x, Int64.of_int m)) v (oneofl [ 0; 3; 12; 15 ])
    | P4ir.Match_kind.Lpm ->
      (* dscp is 6 bits wide *)
      map2 (fun x len -> P4ir.Pattern.Lpm (Int64.shift_left x 2, len)) v (int_range 0 6)
    | P4ir.Match_kind.Exact -> map (fun x -> P4ir.Pattern.Exact x) v)

let range_table_gen =
  QCheck2.Gen.(
    let* extra = list_size (int_range 0 3) (int_range 1 4) in
    let keys =
      range_keys.(0) :: List.sort_uniq compare (List.map (fun i -> range_keys.(i)) extra)
    in
    let entry_gen =
      let* patterns = flatten_l (List.map range_pattern_gen keys) in
      let* priority = int_range 0 2 in
      let* action = oneofl [ "a"; "b" ] in
      return (P4ir.Table.entry ~priority patterns action)
    in
    let* entries = list_size (int_range 0 12) entry_gen in
    let* edits = list_size (int_range 0 4) (pair bool entry_gen) in
    return
      ( P4ir.Table.make ~name:"r" ~keys
          ~actions:[ P4ir.Action.nop "a"; P4ir.Action.nop "b"; P4ir.Action.nop "miss" ]
          ~default_action:"miss" ~entries (),
        edits ))

let range_packet (tab : P4ir.Table.t) vals =
  Nicsim.Packet.of_fields
    (List.mapi (fun i (k : P4ir.Table.key) -> (k.field, Int64.of_int (List.nth vals i))) tab.keys)

let test_range_scan_equals_reference =
  qtest ~count:300 "range scan = reference lookup (ties included)"
    QCheck2.Gen.(pair range_table_gen (list_size (pure 24) (list_size (pure 5) (int_range 0 23))))
    (fun ((tab, edits), probes) ->
      let eng = Nicsim.Engine.create tab in
      let agree () =
        let live = { tab with P4ir.Table.entries = Nicsim.Engine.entries eng } in
        List.for_all
          (fun vals ->
            let pkt = range_packet tab vals in
            let expect = P4ir.Table.lookup live (Nicsim.Packet.get pkt) in
            let got = Nicsim.Engine.probe eng pkt in
            let same =
              match (got, expect) with
              | None, None -> true
              | Some a, Some b -> a == b
              | _ -> false
            in
            same
            && Nicsim.Engine.last_accesses eng = max 1 (Nicsim.Engine.num_entries eng)
            && fst (Nicsim.Engine.lookup_linear eng pkt) = got)
          probes
      in
      agree ()
      && List.for_all
           (fun (is_insert, (e : P4ir.Table.entry)) ->
             if is_insert then Nicsim.Engine.insert eng e
             else ignore (Nicsim.Engine.delete eng ~patterns:e.patterns);
             agree ())
           edits)

(* --- LRU --- *)

let test_lru_capacity =
  qtest ~count:100 "LRU never exceeds capacity"
    QCheck2.Gen.(pair (int_range 1 8) (list_size (int_range 0 100) (int_range 0 30)))
    (fun (cap, ops) ->
      let tab =
        P4ir.Table.make ~name:"cache"
          ~keys:[ P4ir.Table.key P4ir.Field.Ipv4_dst P4ir.Match_kind.Exact ]
          ~actions:[ P4ir.Action.nop "t:a"; P4ir.Action.nop "miss" ]
          ~default_action:"miss"
          ~role:
            (P4ir.Table.Cache
               { P4ir.Table.cached_tables = [ "t" ];
                 capacity = cap;
                 insert_limit = 0.;
                 auto_insert = true })
          ()
      in
      let eng = Nicsim.Engine.create tab in
      List.for_all
        (fun k ->
          ignore
            (Nicsim.Engine.cache_fill eng ~now:0.
               (P4ir.Table.entry [ P4ir.Pattern.Exact (Int64.of_int k) ] "t:a"));
          Nicsim.Engine.num_entries eng <= cap)
        ops)

(* --- reorder --- *)

let test_apply_order_is_permutation =
  qtest ~count:100 "apply_order permutes"
    QCheck2.Gen.(int_range 1 7)
    (fun n ->
      let rng = Stdx.Prng.create (Int64.of_int (n * 31)) in
      let order = Array.init n Fun.id in
      Stdx.Prng.shuffle rng order;
      let xs = List.init n Fun.id in
      let permuted = Pipeleon.Reorder.apply_order xs (Array.to_list order) in
      List.sort compare permuted = xs)

let () =
  Alcotest.run "properties"
    [ ( "bits",
        [ test_truncate_idempotent; test_lpm_equals_ternary; test_prefix_mask_popcount ] );
      ( "engines",
        [ test_engine_matches_reference; test_lpm_plan_equals_linear;
          test_shaped_probe_under_edits; test_range_scan_equals_reference ] );
      ("window-drivers", [ test_window_drivers_identical ]);
      ("costmodel", [ test_node_sum_equals_paths; test_reach_probs_bounded ]);
      ( "optimizer",
        [ test_optimizer_preserves_semantics; test_warm_start_gain_equal;
          test_serialize_roundtrip_random ] );
      ( "frontends-and-deploys",
        [ test_emit_parse_fixpoint_random; test_hetero_materialize_random;
          test_hot_patch_equals_fresh ] );
      ( "knapsack",
        [ test_knapsack_within_budget; test_knapsack_prune_equals_unpruned;
          test_knapsack_beats_greedy ] );
      ("lru", [ test_lru_capacity ]);
      ("reorder", [ test_apply_order_is_permutation ]) ]
