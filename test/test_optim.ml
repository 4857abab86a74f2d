(* Tests for the Pipeleon optimizations: reorder, cache, merge, group
   caching, the knapsack search, and — most importantly — semantic
   equivalence between original and optimized programs under real
   execution. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let target = Costmodel.Target.bluefield2

(* A pipeline of independent exact tables keyed on distinct fields, with
   realistic entries, suitable for all three optimizations. *)
let fields = [| P4ir.Field.Ipv4_src; P4ir.Field.Ipv4_dst; P4ir.Field.Tcp_sport; P4ir.Field.Tcp_dport |]

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

(* Run the same random packets through two programs; outcomes must agree. *)
let equivalent ?(packets = 2000) ?(flows = 64) prog_a prog_b =
  let rng = Stdx.Prng.create 7L in
  let flow_fields = Array.to_list fields in
  let pop = Traffic.Workload.random_flows rng ~n:(flows - 8) ~fields:flow_fields in
  (* Mix in flows that actually hit entries (values 1-3). *)
  let hitting =
    Array.init 8 (fun i ->
        List.map (fun f -> (f, Int64.of_int ((i mod 3) + 1))) flow_fields)
  in
  let all_flows = Array.append pop hitting in
  let src_rng = Stdx.Prng.create 99L in
  let source = Traffic.Workload.of_flows ~zipf_s:1.1 src_rng all_flows in
  let ex_a = Nicsim.Exec.create (Nicsim.Exec.default_config target) prog_a in
  let ex_b = Nicsim.Exec.create (Nicsim.Exec.default_config target) prog_b in
  let meta_fields = List.init 8 (fun i -> P4ir.Field.Meta i) in
  let ok = ref true in
  for _ = 1 to packets do
    let p = source () in
    let q = Nicsim.Packet.copy p in
    ignore (Nicsim.Exec.run_packet ex_a ~now:0. p);
    ignore (Nicsim.Exec.run_packet ex_b ~now:0. q);
    if Nicsim.Packet.is_dropped p <> Nicsim.Packet.is_dropped q then ok := false;
    if Nicsim.Packet.egress_port p <> Nicsim.Packet.egress_port q then ok := false;
    List.iter
      (fun f ->
        if not (Int64.equal (Nicsim.Packet.get p f) (Nicsim.Packet.get q f)) then ok := false)
      (meta_fields @ Array.to_list fields)
  done;
  !ok

(* --- Pipelet-level transforms --- *)

let the_pipelet prog =
  match Pipeleon.Pipelet.form prog with
  | [ p ] -> p
  | ps -> Alcotest.failf "expected one pipelet, got %d" (List.length ps)

let test_reorder_apply_equivalence () =
  let tabs = chain 3 in
  let prog = P4ir.Program.linear "orig" tabs in
  let p = the_pipelet prog in
  let reordered =
    List.map (fun t -> Pipeleon.Transform.Plain t) (Pipeleon.Reorder.apply_order tabs [ 2; 0; 1 ])
  in
  let prog' = Pipeleon.Transform.apply prog p reordered in
  P4ir.Program.validate_exn prog';
  check_bool "reordered program equivalent" true (equivalent prog prog')

let test_cache_apply_equivalence () =
  let tabs = chain 3 in
  let prog = P4ir.Program.linear "orig" tabs in
  let p = the_pipelet prog in
  let cache = Pipeleon.Cache.build ~name:"c0" ~capacity:64 ~insert_limit:1e9 tabs in
  let prog' =
    Pipeleon.Transform.apply prog p [ Pipeleon.Transform.Cached { cache; originals = tabs } ]
  in
  P4ir.Program.validate_exn prog';
  check_bool "cached program equivalent" true (equivalent prog prog')

let test_cache_with_drops_equivalence () =
  let acl =
    P4ir.Table.add_entry
      (P4ir.Builder.acl_table ~name:"acl"
         ~keys:[ P4ir.Builder.exact_key P4ir.Field.Ipv4_src ]
         ())
      (P4ir.Table.entry [ P4ir.Pattern.Exact 2L ] "deny")
  in
  let tabs = [ acl; mk_table 1 ~entries:[ 1L; 2L ] ] in
  let prog = P4ir.Program.linear "orig" tabs in
  let p = the_pipelet prog in
  let cache = Pipeleon.Cache.build ~name:"c0" ~capacity:64 ~insert_limit:1e9 tabs in
  let prog' =
    Pipeleon.Transform.apply prog p [ Pipeleon.Transform.Cached { cache; originals = tabs } ]
  in
  check_bool "drop-through cache equivalent" true (equivalent prog prog')

let test_cache_switch_case_keeps_branches () =
  (* Caching a singleton Per_action pipelet must preserve the per-action
     branching: a hit jumps where the fired action would have gone, a
     miss falls to the original table with its branches intact. A past
     bug wired both to the pipelet's (unrepresentable) exit, severing
     the path to the join table — found by the chaos fuzzer. *)
  let sw =
    let tab =
      P4ir.Table.make ~name:"sw"
        ~keys:[ P4ir.Table.key P4ir.Field.Ipv4_src P4ir.Match_kind.Exact ]
        ~actions:
          [ P4ir.Action.make "goa" [ P4ir.Action.Set_field (P4ir.Field.Meta 1, 1L) ];
            P4ir.Action.make "gob" [ P4ir.Action.Set_field (P4ir.Field.Meta 1, 2L) ] ]
        ~default_action:"gob" ()
    in
    List.fold_left
      (fun tab v -> P4ir.Table.add_entry tab (P4ir.Table.entry [ P4ir.Pattern.Exact v ] "goa"))
      tab [ 1L; 2L ]
  in
  let join = mk_table 1 ~entries:[ 1L; 2L; 3L ] in
  let prog = P4ir.Program.empty "p" in
  let prog, join_id = P4ir.Program.add_node prog (P4ir.Program.Table (join, P4ir.Program.Uniform None)) in
  let prog, sw_id =
    P4ir.Program.add_node prog
      (P4ir.Program.Table
         (sw, P4ir.Program.Per_action [ ("goa", Some join_id); ("gob", None) ]))
  in
  let prog = P4ir.Program.with_root prog (Some sw_id) in
  P4ir.Program.validate_exn prog;
  let p =
    List.find
      (fun (p : Pipeleon.Pipelet.t) -> p.Pipeleon.Pipelet.entry = sw_id)
      (Pipeleon.Pipelet.form prog)
  in
  check_bool "pipelet is switch-case" true p.Pipeleon.Pipelet.is_switch_case;
  let cache = Pipeleon.Cache.build ~name:"c0" ~capacity:64 ~insert_limit:1e9 [ sw ] in
  let prog' =
    Pipeleon.Transform.apply prog p
      [ Pipeleon.Transform.Cached { cache; originals = [ sw ] } ]
  in
  P4ir.Program.validate_exn prog';
  (* The hit edge for the fused "goa" action must still reach the join. *)
  let cache_id, _ =
    List.find (fun (_, (t : P4ir.Table.t)) -> t.name = "c0") (P4ir.Program.tables prog')
  in
  (match P4ir.Program.find_exn prog' cache_id with
   | P4ir.Program.Table (_, P4ir.Program.Per_action branches) ->
     check_bool "hit branch reaches join" true
       (List.exists (fun (_, next) -> next = Some join_id) branches)
   | _ -> Alcotest.fail "cache is not Per_action");
  check_bool "switch-case cache equivalent" true (equivalent prog prog')

let test_merge_ternary_equivalence () =
  let tabs = chain 2 in
  let prog = P4ir.Program.linear "orig" tabs in
  let p = the_pipelet prog in
  let merged = Pipeleon.Merge.build_ternary ~name:"m01" tabs in
  let prog' =
    Pipeleon.Transform.apply prog p
      [ Pipeleon.Transform.Merged_plain { merged; originals = tabs } ]
  in
  check_bool "ternary merge equivalent" true (equivalent prog prog')

let test_merge_fallback_equivalence () =
  let tabs = chain 2 in
  let prog = P4ir.Program.linear "orig" tabs in
  let p = the_pipelet prog in
  let merged = Pipeleon.Merge.build_fallback ~name:"mx01" tabs in
  let prog' =
    Pipeleon.Transform.apply prog p
      [ Pipeleon.Transform.Merged_fallback { merged; originals = tabs } ]
  in
  check_bool "fallback merge equivalent" true (equivalent prog prog')

let test_merge_entry_counts () =
  let tabs = chain 2 in
  let merged = Pipeleon.Merge.build_ternary ~name:"m" tabs in
  (* (3 hits + miss) x (3 hits + miss) - all-miss = 15 entries. *)
  check_int "cross product with wildcards" 15 (P4ir.Table.num_entries merged);
  let fb = Pipeleon.Merge.build_fallback ~name:"f" tabs in
  check_int "hit-hit cross product" 9 (P4ir.Table.num_entries fb);
  check_int "estimate" 9 (Pipeleon.Merge.entry_estimate tabs)

let test_merge_rejects_dependency () =
  let writer =
    P4ir.Table.make ~name:"w"
      ~keys:[ P4ir.Table.key P4ir.Field.Ipv4_src P4ir.Match_kind.Exact ]
      ~actions:[ P4ir.Action.make "set" [ P4ir.Action.Set_field (P4ir.Field.Ipv4_dst, 1L) ] ]
      ~default_action:"set" ()
  in
  let reader = mk_table 1 ~entries:[ 1L ] in
  (* reader keys on Ipv4_dst which writer writes. *)
  check_bool "match-dep not mergeable" false (Pipeleon.Merge.mergeable [ writer; reader ]);
  check_bool "independent mergeable" true (Pipeleon.Merge.mergeable (chain 2))

let test_reorder_dependencies_respected () =
  let tabs = chain 3 in
  let orders = Pipeleon.Reorder.candidate_orders tabs in
  check_int "independent: all 6 orders" 6 (List.length orders);
  let writer =
    P4ir.Table.make ~name:"w"
      ~keys:[ P4ir.Table.key P4ir.Field.Ipv4_src P4ir.Match_kind.Exact ]
      ~actions:[ P4ir.Action.make "set" [ P4ir.Action.Set_field (P4ir.Field.Ipv4_dst, 1L) ] ]
      ~default_action:"set" ()
  in
  let reader = mk_table 1 ~entries:[ 1L ] in
  let dep_orders = Pipeleon.Reorder.candidate_orders [ writer; reader ] in
  check_bool "dependent pair cannot swap" true (dep_orders = [ [ 0; 1 ] ])

(* --- Cost-model-guided candidate evaluation --- *)

let profile_with_drops prog ~drop_rates =
  List.fold_left
    (fun prof (tname, rate) ->
      Profile.set_table tname
        { Profile.action_probs = [ ("allow", 1. -. rate); ("deny", rate) ];
          update_rate = 0.;
          locality = -1. }
        prof)
    (Profile.uniform prog) drop_rates

let acl_chain n =
  List.init n (fun i ->
      P4ir.Table.add_entry
        (P4ir.Builder.acl_table ~name:(Printf.sprintf "acl%d" i)
           ~keys:[ P4ir.Builder.exact_key fields.(i mod Array.length fields) ]
           ())
        (P4ir.Table.entry [ P4ir.Pattern.Exact 2L ] "deny"))

let test_reorder_gain_matches_drop_rates () =
  let tabs = acl_chain 3 in
  let prog = P4ir.Program.linear "acls" tabs in
  let prof =
    profile_with_drops prog ~drop_rates:[ ("acl0", 0.0); ("acl1", 0.0); ("acl2", 0.9) ]
  in
  let greedy = Pipeleon.Reorder.greedy_drop_order prof tabs in
  check_bool "high-drop table promoted first" true (List.hd greedy = 2);
  (* Expected latency must improve when the dropper goes first. *)
  let l_orig =
    Costmodel.Cost.expected_latency target prof prog
  in
  let reordered = P4ir.Program.linear "re" (Pipeleon.Reorder.apply_order tabs greedy) in
  let prof' =
    profile_with_drops reordered ~drop_rates:[ ("acl0", 0.0); ("acl1", 0.0); ("acl2", 0.9) ]
  in
  let l_new = Costmodel.Cost.expected_latency target prof' reordered in
  check_bool "reorder lowers expected latency" true (l_new < l_orig)

let test_candidate_enumeration_two_tables () =
  let tabs = chain 2 in
  let prof = Profile.uniform (P4ir.Program.linear "x" tabs) in
  let combos = Pipeleon.Candidate.enumerate prof tabs in
  (* Paper: caches [A],[B],[A][B],[A,B]; merge [A,B] (2 variants here);
     2 orders; minus the identity no-op. *)
  check_bool "enough candidates" true (List.length combos >= 10);
  let has_full_cache =
    List.exists
      (fun (c : Pipeleon.Candidate.combo) ->
        c.order = [ 0; 1 ]
        && c.segs = [ { Pipeleon.Candidate.pos = 0; len = 2; kind = Pipeleon.Candidate.Cache_seg } ])
      combos
  in
  check_bool "[A,B] cache candidate present" true has_full_cache

let test_enumerate_budget_and_reorder_combos () =
  let tabs = chain 6 in
  let prof = Profile.uniform (P4ir.Program.linear "eb" tabs) in
  let opts = { Pipeleon.Candidate.default_options with max_combos = 40 } in
  let combos = Pipeleon.Candidate.enumerate ~opts prof tabs in
  check_bool "within budget" true (List.length combos <= opts.max_combos);
  check_bool "non-empty" true (combos <> []);
  (* Per-order budgeting keeps each surviving order's reorder-only combo
     (the identity order's one is the excluded no-op identity combo). *)
  let orders =
    List.sort_uniq compare (List.map (fun (c : Pipeleon.Candidate.combo) -> c.order) combos)
  in
  let identity = List.init 6 Fun.id in
  List.iter
    (fun order ->
      let has_plain =
        List.exists
          (fun (c : Pipeleon.Candidate.combo) -> c.order = order && c.segs = [])
          combos
      in
      check_bool "reorder-only combo retained" true (has_plain || order = identity))
    orders;
  (* And the default budget never overflows either. *)
  let full = Pipeleon.Candidate.enumerate prof tabs in
  check_bool "default budget respected" true
    (List.length full <= Pipeleon.Candidate.default_options.max_combos)

let test_listx_take () =
  check_bool "prefix" true (Stdx.Listx.take 3 [ 1; 2; 3; 4; 5 ] = [ 1; 2; 3 ]);
  check_bool "short list" true (Stdx.Listx.take 9 [ 1; 2 ] = [ 1; 2 ]);
  check_bool "zero" true (Stdx.Listx.take 0 [ 1; 2 ] = []);
  check_bool "negative" true (Stdx.Listx.take (-3) [ 1; 2 ] = []);
  (* Tail recursion: must survive a list far beyond the stack. *)
  let big = List.init 1_000_000 Fun.id in
  check_int "big prefix" 999_999 (List.length (Stdx.Listx.take 999_999 big))

let test_cache_gain_depends_on_hit_rate () =
  let tabs = chain 4 in
  let prog = P4ir.Program.linear "x" tabs in
  let prof_hi = Profile.with_default_cache_hit 0.95 (Profile.uniform prog) in
  let prof_lo = Profile.with_default_cache_hit 0.05 (Profile.uniform prog) in
  let combo =
    { Pipeleon.Candidate.order = [ 0; 1; 2; 3 ];
      segs = [ { Pipeleon.Candidate.pos = 0; len = 4; kind = Pipeleon.Candidate.Cache_seg } ] }
  in
  let elements =
    Option.get (Pipeleon.Candidate.realize ~name_prefix:"t" tabs combo)
  in
  let eval prof =
    (Pipeleon.Candidate.evaluate target prof ~reach_prob:1.0 ~originals:tabs combo elements)
      .Pipeleon.Candidate.gain
  in
  check_bool "high hit rate gains" true (eval prof_hi > 0.);
  check_bool "hit rate monotone" true (eval prof_hi > eval prof_lo)

let test_multi_key_cache_and_merge () =
  (* Tables with compound keys: the cache key is the live-in union and
     merges combine per-field constraints. *)
  let mk name f1 f2 tag =
    P4ir.Table.make ~name
      ~keys:[ P4ir.Table.key f1 P4ir.Match_kind.Exact; P4ir.Table.key f2 P4ir.Match_kind.Exact ]
      ~actions:
        [ P4ir.Action.make "hit" [ P4ir.Action.Set_field (P4ir.Field.Meta tag, 1L) ];
          P4ir.Action.nop "def" ]
      ~default_action:"def"
      ~entries:
        (List.init 3 (fun v ->
             P4ir.Table.entry
               [ P4ir.Pattern.Exact (Int64.of_int v); P4ir.Pattern.Exact (Int64.of_int v) ]
               "hit"))
      ()
  in
  (* Overlapping fields across tables: live-in = 3 fields, not 4. *)
  let t1 = mk "mk1" P4ir.Field.Ipv4_src P4ir.Field.Ipv4_dst 1 in
  let t2 = mk "mk2" P4ir.Field.Ipv4_dst P4ir.Field.Tcp_sport 2 in
  let tabs = [ t1; t2 ] in
  check_int "live-in union" 3 (List.length (Pipeleon.Cache.live_in_fields tabs));
  let prog = P4ir.Program.linear "orig" tabs in
  let p = the_pipelet prog in
  let cache = Pipeleon.Cache.build ~name:"mc" ~insert_limit:1e9 tabs in
  let cached =
    Pipeleon.Transform.apply prog p [ Pipeleon.Transform.Cached { cache; originals = tabs } ]
  in
  check_bool "multi-key cache equivalent" true (equivalent prog cached);
  let merged = Pipeleon.Merge.build_ternary ~name:"mm" tabs in
  check_int "merged key is the field union" 3 (List.length merged.P4ir.Table.keys);
  let prog2 = P4ir.Program.linear "orig" tabs in
  let p2 = the_pipelet prog2 in
  let merged_prog =
    Pipeleon.Transform.apply prog2 p2
      [ Pipeleon.Transform.Merged_plain { merged; originals = tabs } ]
  in
  check_bool "multi-key merge equivalent" true (equivalent prog merged_prog)

let test_analytic_matches_realized () =
  (* The fast analytic evaluation must track the reference mini-program
     evaluation: same sign, gains within a coarse band. *)
  let rng = Stdx.Prng.create 3131L in
  let checked = ref 0 in
  for n = 2 to 4 do
    let tabs = chain n in
    let prog = P4ir.Program.linear "x" tabs in
    (* A profile with some drops and localities. *)
    let prof =
      List.fold_left
        (fun prof (t : P4ir.Table.t) ->
          let p = Stdx.Prng.uniform rng 0.2 0.8 in
          Profile.set_table t.name
            { Profile.action_probs = [ ("seta", p); ("setb", 1. -. p) ];
              update_rate = 0.;
              locality = Stdx.Prng.uniform rng 0.5 0.95 }
            prof)
        (Profile.uniform prog) tabs
    in
    let ctx = Pipeleon.Candidate.context target prof ~reach_prob:1.0 tabs in
    List.iter
      (fun combo ->
        match Pipeleon.Candidate.realize ~name_prefix:"cmp" tabs combo with
        | None -> ()
        | Some elements -> (
          match Pipeleon.Candidate.evaluate_analytic ctx combo with
          | None -> ()
          | Some a ->
            incr checked;
            let r =
              Pipeleon.Candidate.evaluate target prof ~reach_prob:1.0 ~originals:tabs
                combo elements
            in
            let scale = Float.max 1.0 (Float.abs r.Pipeleon.Candidate.gain) in
            if Float.abs (a.Pipeleon.Candidate.gain -. r.Pipeleon.Candidate.gain)
               > (0.3 *. scale) +. 0.3
            then
              Alcotest.failf "gain mismatch (n=%d): analytic %.3f vs realized %.3f" n
                a.Pipeleon.Candidate.gain r.Pipeleon.Candidate.gain))
      (Pipeleon.Candidate.enumerate prof tabs)
  done;
  check_bool "compared a meaningful sample" true (!checked > 50)

(* --- Knapsack --- *)

let test_knapsack_budget_respected () =
  let open Pipeleon in
  let groups =
    [ [ { Knapsack.gain = 10.; mem = 100; upd = 0.; tag = 0 };
        { Knapsack.gain = 3.; mem = 10; upd = 0.; tag = 1 } ];
      [ { Knapsack.gain = 8.; mem = 100; upd = 0.; tag = 0 } ] ]
  in
  let sol = Knapsack.solve ~groups ~mem_budget:120 ~upd_budget:10. () in
  (* Cannot afford both 100-mem options; best is 10 + 3? No: 10 (g0 tag0)
     + nothing from g1 beats 3 + 8 = 11. So optimum is 3 + 8 = 11. *)
  check_bool "optimal pick" true (Float.abs (sol.Knapsack.total_gain -. 11.) < 1e-9);
  check_int "two picks" 2 (List.length sol.Knapsack.picks)

let test_knapsack_zero_cost_exclusive () =
  let open Pipeleon in
  let groups =
    [ [ { Knapsack.gain = 5.; mem = 0; upd = 0.; tag = 0 };
        { Knapsack.gain = 4.; mem = 0; upd = 0.; tag = 1 } ] ]
  in
  let sol = Knapsack.solve ~groups ~mem_budget:100 ~upd_budget:10. () in
  check_int "one option per group" 1 (List.length sol.Knapsack.picks);
  check_bool "best zero-cost option" true (Float.abs (sol.Knapsack.total_gain -. 5.) < 1e-9)

let test_knapsack_prune_stats () =
  let open Pipeleon in
  let groups =
    [ [ { Knapsack.gain = 5.; mem = 100; upd = 1.; tag = 0 };
        (* dominated: less gain, more of both costs *)
        { Knapsack.gain = 4.; mem = 200; upd = 2.; tag = 1 };
        (* dropped regardless of pruning: non-positive gain *)
        { Knapsack.gain = 0.; mem = 0; upd = 0.; tag = 2 } ];
      [ { Knapsack.gain = 7.; mem = 50; upd = 0.; tag = 0 } ];
      [] ]
  in
  let solve ~prune =
    Knapsack.solve_stats ~prune ~groups ~mem_budget:500 ~upd_budget:15. ()
  in
  let sol_p, stats_p = solve ~prune:true in
  let sol_u, stats_u = solve ~prune:false in
  check_int "options before" 4 stats_p.Knapsack.options_before;
  check_int "options after pruning" 2 stats_p.Knapsack.options_after;
  check_int "options after (no pruning)" 3 stats_u.Knapsack.options_after;
  check_bool "gain identical" true
    (sol_p.Knapsack.total_gain = sol_u.Knapsack.total_gain);
  check_bool "optimal" true (Float.abs (sol_p.Knapsack.total_gain -. 12.) < 1e-9);
  check_bool "pruned DP touches fewer cells" true
    (stats_p.Knapsack.dp_cells < stats_u.Knapsack.dp_cells)

let test_knapsack_greedy_vs_dp () =
  let open Pipeleon in
  (* Classic greedy trap: density-best option blocks the true optimum. *)
  let groups =
    [ [ { Knapsack.gain = 6.; mem = 60; upd = 0.; tag = 0 } ];
      [ { Knapsack.gain = 5.; mem = 50; upd = 0.; tag = 0 } ];
      [ { Knapsack.gain = 5.5; mem = 50; upd = 0.; tag = 0 } ] ]
  in
  let dp = Knapsack.solve ~groups ~mem_budget:100 ~upd_budget:10. () in
  let gr = Knapsack.greedy ~groups ~mem_budget:100 ~upd_budget:10. in
  check_bool "dp at least as good" true (dp.Knapsack.total_gain >= gr.Knapsack.total_gain -. 1e-9)

(* --- Optimizer end-to-end --- *)

let test_optimizer_end_to_end_equivalence () =
  let tabs = acl_chain 2 @ chain 4 in
  let prog = P4ir.Program.linear "prog" tabs in
  let prof =
    profile_with_drops prog ~drop_rates:[ ("acl0", 0.1); ("acl1", 0.6) ]
  in
  let result = Pipeleon.Optimizer.optimize ~config:{ Pipeleon.Optimizer.default_config with top_k = 1.0 } target prof prog in
  P4ir.Program.validate_exn result.Pipeleon.Optimizer.program;
  check_bool "some optimization chosen" true
    (result.Pipeleon.Optimizer.plan.Pipeleon.Search.choices <> []
     || result.Pipeleon.Optimizer.plan.Pipeleon.Search.group_choices <> []);
  check_bool "optimized equivalent to original" true
    (equivalent prog result.Pipeleon.Optimizer.program)

let test_optimizer_topk_reduces_work () =
  (* A program with branches -> several pipelets. *)
  let mk i = mk_table i ~entries:[ 1L; 2L ] in
  let prog = P4ir.Program.empty "multi" in
  let prog, exit_id =
    P4ir.Program.add_node prog (P4ir.Program.Table (mk 11, P4ir.Program.Uniform None))
  in
  let prog, arm1 =
    P4ir.Builder.chain_into prog [ mk 0; mk 1 ] ~exit:(Some exit_id)
  in
  let prog, arm2 =
    P4ir.Builder.chain_into prog [ mk 2; mk 3 ] ~exit:(Some exit_id)
  in
  let prog, c =
    P4ir.Program.add_node prog
      (P4ir.Builder.cond ~name:"c0" ~field:P4ir.Field.Ipv4_proto ~op:P4ir.Program.Eq ~arg:6L
         ~on_true:(Some arm1) ~on_false:(Some arm2))
  in
  let prog = P4ir.Program.with_root prog (Some c) in
  P4ir.Program.validate_exn prog;
  let prof = Profile.uniform prog in
  let cfg_full = { Pipeleon.Optimizer.default_config with top_k = 1.0; enable_groups = false } in
  let cfg_topk = { cfg_full with top_k = 0.34 } in
  let full = Pipeleon.Optimizer.optimize ~config:cfg_full target prof prog in
  let topk = Pipeleon.Optimizer.optimize ~config:cfg_topk target prof prog in
  check_bool "topk considers fewer pipelets" true
    (topk.Pipeleon.Optimizer.pipelets_considered < full.Pipeleon.Optimizer.pipelets_considered);
  check_bool "topk examines fewer candidates" true
    (topk.Pipeleon.Optimizer.plan.Pipeleon.Search.candidates_examined
     <= full.Pipeleon.Optimizer.plan.Pipeleon.Search.candidates_examined)

let test_group_detection_and_equivalence () =
  let mk i = mk_table i ~entries:[ 1L; 2L ] in
  let prog = P4ir.Program.empty "grp" in
  let prog, exit_id =
    P4ir.Program.add_node prog (P4ir.Program.Table (mk 9, P4ir.Program.Uniform None))
  in
  let prog, arm1 = P4ir.Builder.chain_into prog [ mk 0; mk 1 ] ~exit:(Some exit_id) in
  let prog, arm2 = P4ir.Builder.chain_into prog [ mk 2; mk 3 ] ~exit:(Some exit_id) in
  let prog, c =
    P4ir.Program.add_node prog
      (P4ir.Builder.cond ~name:"c0" ~field:P4ir.Field.Ipv4_proto ~op:P4ir.Program.Eq ~arg:6L
         ~on_true:(Some arm1) ~on_false:(Some arm2))
  in
  let prog = P4ir.Program.with_root prog (Some c) in
  P4ir.Program.validate_exn prog;
  let pipelets = Pipeleon.Pipelet.form prog in
  let groups = Pipeleon.Group.detect prog ~candidates:pipelets in
  check_int "one group detected" 1 (List.length groups);
  let g = List.hd groups in
  match Pipeleon.Group.build_cache ~name:"gc" prog g with
  | None -> Alcotest.fail "group cache should build"
  | Some cache ->
    let prog' = Pipeleon.Group.apply prog g ~cache in
    P4ir.Program.validate_exn prog';
    check_bool "group-cached program equivalent" true (equivalent prog prog')

let test_group_cache_fills_and_hits () =
  (* A group cache must fill with branch-arm subsets and then serve hits
     that skip both the branch and the arm. *)
  let mk i = mk_table i ~entries:[ 1L; 2L ] in
  let prog = P4ir.Program.empty "grp" in
  let prog, arm1 = P4ir.Builder.chain_into prog [ mk 0 ] ~exit:None in
  let prog, arm2 = P4ir.Builder.chain_into prog [ mk 2 ] ~exit:None in
  let prog, c =
    P4ir.Program.add_node prog
      (P4ir.Builder.cond ~name:"c0" ~field:P4ir.Field.Ipv4_proto ~op:P4ir.Program.Eq ~arg:6L
         ~on_true:(Some arm1) ~on_false:(Some arm2))
  in
  let prog = P4ir.Program.with_root prog (Some c) in
  let g = List.hd (Pipeleon.Group.detect prog ~candidates:(Pipeleon.Pipelet.form prog)) in
  let cache = Option.get (Pipeleon.Group.build_cache ~name:"gc" prog g) in
  let prog' = Pipeleon.Group.apply prog g ~cache in
  let ex = Nicsim.Exec.create (Nicsim.Exec.default_config target) prog' in
  let send proto src =
    let pkt =
      Nicsim.Packet.of_fields
        [ (P4ir.Field.Ipv4_proto, proto); (P4ir.Field.Ipv4_src, src);
          (P4ir.Field.Tcp_sport, src) ]
    in
    ignore (Nicsim.Exec.run_packet ex ~now:0. pkt)
  in
  (* Two flows, one per arm; send each twice: first fills, second hits. *)
  send 6L 1L; send 17L 2L; send 6L 1L; send 17L 2L;
  let eng = Nicsim.Exec.engine_exn ex "gc" in
  check_int "two fills" 2 (Nicsim.Engine.num_entries eng);
  let ctrs = Nicsim.Exec.counters ex in
  let hit_count =
    List.fold_left
      (fun acc ((k : Profile.Counter.key), v) ->
        if String.equal k.owner "gc" && not (String.equal k.label "miss") then
          Int64.add acc v
        else acc)
      0L (Profile.Counter.dump ctrs)
  in
  check_bool "second packets hit" true (Int64.equal hit_count 2L);
  (* Fused names carry the branch outcome, so fold-back reconstructs the
     conditional's counters from hits too. *)
  let folded = Profile.Counter_map.fold_back ~optimized:prog' ctrs in
  check_bool "branch outcomes recovered" true
    (Int64.equal (Profile.Counter.get folded ~owner:"c0" ~label:"true") 2L)

let test_placement_optimization () =
  (* Interleaved CPU-required tables: copying the ASIC-capable middles to
     CPU should reduce migrations and expected latency. *)
  let mk i = mk_table i ~entries:[ 1L ] in
  let tabs = List.init 6 mk in
  let prog = P4ir.Program.linear "hetero" tabs in
  let prof = Profile.uniform prog in
  let ids = List.map fst (P4ir.Program.tables prog) in
  let requires id =
    match List.find_index (Int.equal id) ids with
    | Some i when i mod 2 = 1 -> Pipeleon.Placement.Needs_cpu
    | Some 0 -> Pipeleon.Placement.Needs_asic
    | _ -> Pipeleon.Placement.Any
  in
  let naive = Pipeleon.Placement.naive prog ~require:requires in
  let opt = Pipeleon.Placement.optimize target prof prog ~require:requires in
  let m_naive = Pipeleon.Placement.migrations_expected prof prog ~placement:naive in
  let m_opt = Pipeleon.Placement.migrations_expected prof prog ~placement:opt in
  check_bool "fewer migrations" true (m_opt < m_naive);
  let l_naive = Costmodel.Cost.expected_latency ~placement:naive target prof prog in
  let l_opt = Costmodel.Cost.expected_latency ~placement:opt target prof prog in
  check_bool "lower latency" true (l_opt <= l_naive)

let test_hetero_materialize_structure () =
  let tabs = chain 4 in
  let prog = P4ir.Program.linear "het" tabs in
  let ids = List.map fst (P4ir.Program.tables prog) in
  let placement id =
    match List.find_index (Int.equal id) ids with
    | Some i when i mod 2 = 1 -> Costmodel.Cost.Cpu
    | _ -> Costmodel.Cost.Asic
  in
  check_int "three internal crossings" 3 (Pipeleon.Hetero.crossings prog ~placement);
  let prog', placement' = Pipeleon.Hetero.materialize prog ~placement in
  P4ir.Program.validate_exn prog';
  let roles =
    List.filter_map
      (fun (_, (t : P4ir.Table.t)) ->
        match t.role with
        | P4ir.Table.Navigation -> Some `Nav
        | P4ir.Table.Migration -> Some `Mig
        | _ -> None)
      (P4ir.Program.tables prog')
  in
  check_int "one migration table per crossing" 3
    (List.length (List.filter (( = ) `Mig) roles));
  check_int "one navigation table per crossing destination" 3
    (List.length (List.filter (( = ) `Nav) roles));
  (* After materialization the navigation/migration hops absorb the
     crossings' dispatch; the crossing count reflects the same 3 hops
     routed through nav tables. *)
  check_bool "placement extended to new nodes" true
    (List.for_all
       (fun (id, (t : P4ir.Table.t)) ->
         match t.role with
         | P4ir.Table.Migration | P4ir.Table.Navigation ->
           placement' id = Costmodel.Cost.Asic || placement' id = Costmodel.Cost.Cpu
         | _ -> true)
       (P4ir.Program.tables prog'))

let test_hetero_materialize_equivalence () =
  let tabs = chain 4 in
  let prog = P4ir.Program.linear "het" tabs in
  let ids = List.map fst (P4ir.Program.tables prog) in
  let placement id =
    match List.find_index (Int.equal id) ids with
    | Some i when i mod 2 = 1 -> Costmodel.Cost.Cpu
    | _ -> Costmodel.Cost.Asic
  in
  let prog', _ = Pipeleon.Hetero.materialize prog ~placement in
  (* Equivalent on all fields except next_tab_id (the piggybacked
     metadata), which `equivalent` does not inspect. *)
  check_bool "materialized program equivalent" true (equivalent prog prog')

let test_api_map_merged_rebuild () =
  let tabs = chain 2 in
  let prog = P4ir.Program.linear "orig" tabs in
  let p = the_pipelet prog in
  let merged = Pipeleon.Merge.build_ternary ~name:"m01" tabs in
  let optimized =
    Pipeleon.Transform.apply prog p
      [ Pipeleon.Transform.Merged_plain { merged; originals = tabs } ]
  in
  (* Insert a new entry into t0; the merged table must be rebuilt with
     amplification. *)
  let entry = P4ir.Table.entry [ P4ir.Pattern.Exact 42L ] "seta" in
  let original' =
    P4ir.Program.update_table prog (fst (Option.get (P4ir.Program.find_table prog "t0")))
      (fun t -> P4ir.Table.add_entry t entry)
  in
  let ops = Pipeleon.Api_map.map_insert ~original:original' ~optimized ~table:"t0" entry in
  let rebuilds =
    List.filter_map
      (function Pipeleon.Api_map.Rebuild { table; entries } -> Some (table, entries) | _ -> None)
      ops
  in
  check_int "one rebuild" 1 (List.length rebuilds);
  let _, entries = List.hd rebuilds in
  (* (4 hits + miss) x (3 hits + miss) - all-miss = 19. *)
  check_int "amplified entries" 19 (List.length entries)

let test_api_map_cache_invalidation () =
  let tabs = chain 2 in
  let prog = P4ir.Program.linear "orig" tabs in
  let p = the_pipelet prog in
  let cache = Pipeleon.Cache.build ~name:"c0" tabs in
  let optimized =
    Pipeleon.Transform.apply prog p [ Pipeleon.Transform.Cached { cache; originals = tabs } ]
  in
  let entry = P4ir.Table.entry [ P4ir.Pattern.Exact 42L ] "seta" in
  let ops = Pipeleon.Api_map.map_insert ~original:prog ~optimized ~table:"t0" entry in
  check_bool "direct insert survives" true
    (List.exists (function Pipeleon.Api_map.Direct { table = "t0"; _ } -> true | _ -> false) ops);
  check_bool "cache invalidated" true
    (List.exists (function Pipeleon.Api_map.Invalidate "c0" -> true | _ -> false) ops)

let () =
  Alcotest.run "optim"
    [ ( "transforms",
        [ Alcotest.test_case "reorder equivalence" `Quick test_reorder_apply_equivalence;
          Alcotest.test_case "cache equivalence" `Quick test_cache_apply_equivalence;
          Alcotest.test_case "cache with drops" `Quick test_cache_with_drops_equivalence;
          Alcotest.test_case "switch-case cache keeps branches" `Quick
            test_cache_switch_case_keeps_branches;
          Alcotest.test_case "ternary merge equivalence" `Quick test_merge_ternary_equivalence;
          Alcotest.test_case "fallback merge equivalence" `Quick test_merge_fallback_equivalence;
          Alcotest.test_case "merge entry counts" `Quick test_merge_entry_counts;
          Alcotest.test_case "multi-key cache + merge" `Quick test_multi_key_cache_and_merge;
          Alcotest.test_case "merge rejects dependency" `Quick test_merge_rejects_dependency;
          Alcotest.test_case "reorder respects deps" `Quick test_reorder_dependencies_respected ] );
      ( "cost-guided",
        [ Alcotest.test_case "reorder gain" `Quick test_reorder_gain_matches_drop_rates;
          Alcotest.test_case "candidate enumeration" `Quick test_candidate_enumeration_two_tables;
          Alcotest.test_case "enumerate budget + reorder combos" `Quick
            test_enumerate_budget_and_reorder_combos;
          Alcotest.test_case "listx take" `Quick test_listx_take;
          Alcotest.test_case "cache hit-rate monotone" `Quick test_cache_gain_depends_on_hit_rate;
          Alcotest.test_case "analytic matches realized" `Quick test_analytic_matches_realized ] );
      ( "knapsack",
        [ Alcotest.test_case "budget respected" `Quick test_knapsack_budget_respected;
          Alcotest.test_case "zero-cost exclusive" `Quick test_knapsack_zero_cost_exclusive;
          Alcotest.test_case "prune stats" `Quick test_knapsack_prune_stats;
          Alcotest.test_case "dp >= greedy" `Quick test_knapsack_greedy_vs_dp ] );
      ( "optimizer",
        [ Alcotest.test_case "end-to-end equivalence" `Quick test_optimizer_end_to_end_equivalence;
          Alcotest.test_case "top-k reduces work" `Quick test_optimizer_topk_reduces_work;
          Alcotest.test_case "group cache" `Quick test_group_detection_and_equivalence;
          Alcotest.test_case "group cache fills + hits" `Quick test_group_cache_fills_and_hits;
          Alcotest.test_case "placement" `Quick test_placement_optimization;
          Alcotest.test_case "hetero materialize structure" `Quick test_hetero_materialize_structure;
          Alcotest.test_case "hetero materialize equivalence" `Quick
            test_hetero_materialize_equivalence ] );
      ( "api-map",
        [ Alcotest.test_case "merged rebuild" `Quick test_api_map_merged_rebuild;
          Alcotest.test_case "cache invalidation" `Quick test_api_map_cache_invalidation ] ) ]
