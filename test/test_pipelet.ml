(* Tests for pipelet formation, hot-pipelet detection, pipelet groups,
   and the instrumentation analysis. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

let target = Costmodel.Target.bluefield2

let exact_table name =
  P4ir.Table.make ~name
    ~keys:[ P4ir.Table.key P4ir.Field.Ipv4_dst P4ir.Match_kind.Exact ]
    ~actions:[ P4ir.Builder.forward_action "act"; P4ir.Action.nop "def" ]
    ~default_action:"def" ()

let names prog (p : Pipeleon.Pipelet.t) =
  List.map (fun (t : P4ir.Table.t) -> t.name) (Pipeleon.Pipelet.tables prog p)

(* --- formation --- *)

let test_linear_one_pipelet () =
  let prog = P4ir.Program.linear "p" (List.init 4 (fun i -> exact_table (Printf.sprintf "t%d" i))) in
  match Pipeleon.Pipelet.form prog with
  | [ p ] ->
    check_int "all tables" 4 (Pipeleon.Pipelet.length p);
    check_bool "in order" true (names prog p = [ "t0"; "t1"; "t2"; "t3" ]);
    check_bool "exits to sink" true (p.exit = None)
  | ps -> Alcotest.failf "expected 1 pipelet, got %d" (List.length ps)

let test_long_pipelet_split () =
  let prog = P4ir.Program.linear "p" (List.init 10 (fun i -> exact_table (Printf.sprintf "t%d" i))) in
  let ps = Pipeleon.Pipelet.form ~max_len:4 prog in
  check_int "split into 3" 3 (List.length ps);
  check_bool "lengths 4,4,2" true (List.map Pipeleon.Pipelet.length ps = [ 4; 4; 2 ]);
  (* Consecutive chunks chain: each chunk's exit is the next chunk's entry. *)
  let rec chained = function
    | (a : Pipeleon.Pipelet.t) :: (b : Pipeleon.Pipelet.t) :: rest ->
      a.exit = Some b.entry && chained (b :: rest)
    | _ -> true
  in
  check_bool "chunks chain in order" true (chained ps);
  (* Order preserved across chunks. *)
  let all = List.concat_map (names prog) ps in
  check_bool "global order" true (all = List.init 10 (fun i -> Printf.sprintf "t%d" i))

let test_split_at_conditionals () =
  let prog = P4ir.Program.empty "p" in
  let prog, after = P4ir.Builder.chain_into prog [ exact_table "after0"; exact_table "after1" ] ~exit:None in
  let prog, arm1 = P4ir.Builder.chain_into prog [ exact_table "a0" ] ~exit:(Some after) in
  let prog, arm2 = P4ir.Builder.chain_into prog [ exact_table "b0" ] ~exit:(Some after) in
  let prog, c =
    P4ir.Program.add_node prog
      (P4ir.Builder.cond ~name:"c" ~field:P4ir.Field.Ipv4_proto ~op:P4ir.Program.Eq ~arg:6L
         ~on_true:(Some arm1) ~on_false:(Some arm2))
  in
  let prog = P4ir.Program.with_root prog (Some c) in
  P4ir.Program.validate_exn prog;
  let ps = Pipeleon.Pipelet.form prog in
  check_int "three pipelets" 3 (List.length ps);
  (* The join point (after0) starts its own pipelet even though each arm
     flows into it with Uniform next. *)
  check_bool "join starts fresh pipelet" true
    (List.exists (fun p -> names prog p = [ "after0"; "after1" ]) ps)

let test_switch_case_singleton () =
  let sw =
    P4ir.Table.make ~name:"sw"
      ~keys:[ P4ir.Table.key P4ir.Field.Ipv4_dst P4ir.Match_kind.Exact ]
      ~actions:[ P4ir.Action.nop "x"; P4ir.Action.nop "y" ]
      ~default_action:"y" ()
  in
  let prog = P4ir.Program.empty "p" in
  let prog, t1 = P4ir.Builder.chain_into prog [ exact_table "t1" ] ~exit:None in
  let prog, t2 = P4ir.Builder.chain_into prog [ exact_table "t2" ] ~exit:None in
  let prog, sw_id =
    P4ir.Program.add_node prog
      (P4ir.Program.Table (sw, P4ir.Program.Per_action [ ("x", Some t1); ("y", Some t2) ]))
  in
  let prog = P4ir.Program.with_root prog (Some sw_id) in
  P4ir.Program.validate_exn prog;
  let ps = Pipeleon.Pipelet.form prog in
  check_int "three pipelets" 3 (List.length ps);
  let sw_p = List.find (fun (p : Pipeleon.Pipelet.t) -> p.entry = sw_id) ps in
  check_bool "switch-case singleton" true sw_p.is_switch_case;
  check_int "length 1" 1 (Pipeleon.Pipelet.length sw_p)

let test_every_table_in_exactly_one_pipelet () =
  let rng = Stdx.Prng.create 44L in
  for _ = 1 to 10 do
    let prog = Experiments.Synth.program rng in
    let ps = Pipeleon.Pipelet.form prog in
    let covered = List.concat_map (fun (p : Pipeleon.Pipelet.t) -> p.table_ids) ps in
    let table_ids = List.map fst (P4ir.Program.tables prog) in
    check_bool "coverage" true
      (List.sort compare covered = List.sort compare table_ids)
  done

(* --- hotspots --- *)

let test_hotspot_ranking () =
  (* Two pipelets behind a branch; the heavy-traffic one must rank first. *)
  let prog = P4ir.Program.empty "p" in
  let prog, a = P4ir.Builder.chain_into prog [ exact_table "hot0"; exact_table "hot1" ] ~exit:None in
  let prog, b = P4ir.Builder.chain_into prog [ exact_table "cold0"; exact_table "cold1" ] ~exit:None in
  let prog, c =
    P4ir.Program.add_node prog
      (P4ir.Builder.cond ~name:"c" ~field:P4ir.Field.Ipv4_proto ~op:P4ir.Program.Eq ~arg:6L
         ~on_true:(Some a) ~on_false:(Some b))
  in
  let prog = P4ir.Program.with_root prog (Some c) in
  let prof = Profile.set_cond "c" { Profile.true_prob = 0.9 } (Profile.uniform prog) in
  let hots = Pipeleon.Hotspot.rank target prof prog (Pipeleon.Pipelet.form prog) in
  (match hots with
   | first :: second :: _ ->
     check_bool "hot first" true (names prog first.pipelet = [ "hot0"; "hot1" ]);
     check_float "reach prob" 0.9 first.reach_prob;
     check_bool "cost ordering" true (first.weighted_cost > second.weighted_cost)
   | _ -> Alcotest.fail "expected two pipelets");
  let top = Pipeleon.Hotspot.top_k ~fraction:0.5 hots in
  check_int "top 50% of 2" 1 (List.length top);
  Alcotest.check_raises "bad fraction" (Invalid_argument "Hotspot.top_k: fraction in (0,1]")
    (fun () -> ignore (Pipeleon.Hotspot.top_k ~fraction:0. hots))

(* --- groups --- *)

let test_group_detection_shapes () =
  (* A skip-style branch (true arm runs A then B, false arm jumps straight
     to B) is not a diamond: the arms' exits differ and B has two
     predecessors, so no group must form. *)
  let prog = P4ir.Program.empty "p" in
  let prog, b = P4ir.Builder.chain_into prog [ exact_table "b" ] ~exit:None in
  let prog, a = P4ir.Builder.chain_into prog [ exact_table "a" ] ~exit:(Some b) in
  let prog, c =
    P4ir.Program.add_node prog
      (P4ir.Builder.cond ~name:"c" ~field:P4ir.Field.Ipv4_proto ~op:P4ir.Program.Eq ~arg:6L
         ~on_true:(Some a) ~on_false:(Some b))
  in
  let prog = P4ir.Program.with_root prog (Some c) in
  P4ir.Program.validate_exn prog;
  let groups = Pipeleon.Group.detect prog ~candidates:(Pipeleon.Pipelet.form prog) in
  check_int "skip-branch is not a group" 0 (List.length groups);
  (* A true diamond with a common sink exit IS a group. *)
  let prog2 = P4ir.Program.empty "p2" in
  let prog2, a2 = P4ir.Builder.chain_into prog2 [ exact_table "a2" ] ~exit:None in
  let prog2, b2 = P4ir.Builder.chain_into prog2 [ exact_table "b2" ] ~exit:None in
  let prog2, c2 =
    P4ir.Program.add_node prog2
      (P4ir.Builder.cond ~name:"c2" ~field:P4ir.Field.Ipv4_proto ~op:P4ir.Program.Eq ~arg:6L
         ~on_true:(Some a2) ~on_false:(Some b2))
  in
  let prog2 = P4ir.Program.with_root prog2 (Some c2) in
  let groups2 = Pipeleon.Group.detect prog2 ~candidates:(Pipeleon.Pipelet.form prog2) in
  check_int "diamond groups" 1 (List.length groups2)

(* --- instrumentation --- *)

let test_instrument_analysis () =
  let prog = P4ir.Program.linear "p" (List.init 3 (fun i -> exact_table (Printf.sprintf "t%d" i))) in
  let prof = Profile.uniform prog in
  check_float "expected updates = nodes visited" 3.
    (Pipeleon.Instrument.expected_updates_per_packet prof prog)

let () =
  Alcotest.run "pipelet"
    [ ( "formation",
        [ Alcotest.test_case "linear" `Quick test_linear_one_pipelet;
          Alcotest.test_case "long split" `Quick test_long_pipelet_split;
          Alcotest.test_case "split at conditionals" `Quick test_split_at_conditionals;
          Alcotest.test_case "switch-case singleton" `Quick test_switch_case_singleton;
          Alcotest.test_case "full coverage" `Quick test_every_table_in_exactly_one_pipelet ] );
      ("hotspots", [ Alcotest.test_case "ranking" `Quick test_hotspot_ranking ]);
      ("groups", [ Alcotest.test_case "detection shapes" `Quick test_group_detection_shapes ]);
      ("instrumentation", [ Alcotest.test_case "analysis" `Quick test_instrument_analysis ]) ]
