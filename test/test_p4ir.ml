(* Unit tests for the p4ir library: values, patterns, actions, tables,
   the program DAG, dependency analysis, and JSON round-trips. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* --- Value --- *)

let test_truncate () =
  check_bool "truncate 8-bit" true (Int64.equal (P4ir.Value.truncate ~width:8 0x1FFL) 0xFFL);
  check_bool "truncate 64-bit is identity" true
    (Int64.equal (P4ir.Value.truncate ~width:64 Int64.minus_one) Int64.minus_one);
  check_bool "truncate 1-bit" true (Int64.equal (P4ir.Value.truncate ~width:1 3L) 1L)

let test_prefix_mask () =
  check_bool "/24 of 32" true
    (Int64.equal (P4ir.Value.prefix_mask ~width:32 ~prefix_len:24) 0xFFFFFF00L);
  check_bool "/0" true (Int64.equal (P4ir.Value.prefix_mask ~width:32 ~prefix_len:0) 0L);
  check_bool "/32 full" true
    (Int64.equal (P4ir.Value.prefix_mask ~width:32 ~prefix_len:32) 0xFFFFFFFFL);
  check_bool "overlong clamps" true
    (Int64.equal (P4ir.Value.prefix_mask ~width:16 ~prefix_len:99) 0xFFFFL)

let test_in_range () =
  check_bool "unsigned range" true (P4ir.Value.in_range ~lo:10L ~hi:20L 15L);
  check_bool "below" false (P4ir.Value.in_range ~lo:10L ~hi:20L 9L);
  check_bool "unsigned wraparound" true
    (P4ir.Value.in_range ~lo:0L ~hi:Int64.minus_one 123456L)

(* --- Field --- *)

let test_field_roundtrip () =
  List.iter
    (fun f ->
      check_bool
        ("roundtrip " ^ P4ir.Field.to_string f)
        true
        (P4ir.Field.equal f (P4ir.Field.of_string (P4ir.Field.to_string f))))
    (P4ir.Field.Meta 7 :: P4ir.Field.all_standard)

let test_field_width () =
  check_int "ipv4 src" 32 (P4ir.Field.width P4ir.Field.Ipv4_src);
  check_int "eth src" 48 (P4ir.Field.width P4ir.Field.Eth_src);
  check_bool "max value 8-bit" true
    (Int64.equal (P4ir.Field.max_value P4ir.Field.Ipv4_ttl) 255L)

let test_field_bad_name () =
  Alcotest.check_raises "bad field" (Invalid_argument "Field.of_string: nope") (fun () ->
      ignore (P4ir.Field.of_string "nope"))

(* --- Pattern --- *)

let test_pattern_matches () =
  let w = 32 in
  check_bool "exact hit" true (P4ir.Pattern.matches ~width:w (P4ir.Pattern.Exact 5L) 5L);
  check_bool "exact miss" false (P4ir.Pattern.matches ~width:w (P4ir.Pattern.Exact 5L) 6L);
  check_bool "lpm hit" true
    (P4ir.Pattern.matches ~width:w (P4ir.Pattern.Lpm (0x0A000000L, 8)) 0x0A0B0C0DL);
  check_bool "lpm miss" false
    (P4ir.Pattern.matches ~width:w (P4ir.Pattern.Lpm (0x0A000000L, 8)) 0x0B000000L);
  check_bool "ternary wildcard" true
    (P4ir.Pattern.matches ~width:w (P4ir.Pattern.Ternary (0L, 0L)) 42L);
  check_bool "range" true
    (P4ir.Pattern.matches ~width:w (P4ir.Pattern.Range (10L, 20L)) 20L)

let test_pattern_specificity () =
  check_int "exact" 64 (P4ir.Pattern.specificity (P4ir.Pattern.Exact 1L));
  check_int "lpm 24" 24 (P4ir.Pattern.specificity (P4ir.Pattern.Lpm (0L, 24)));
  check_int "ternary popcount" 8
    (P4ir.Pattern.specificity (P4ir.Pattern.Ternary (0L, 0xFFL)))

let test_wildcards () =
  check_bool "lpm wildcard" true (P4ir.Pattern.is_wildcard (P4ir.Pattern.wildcard P4ir.Match_kind.Lpm));
  check_bool "ternary wildcard" true
    (P4ir.Pattern.is_wildcard (P4ir.Pattern.wildcard P4ir.Match_kind.Ternary));
  Alcotest.check_raises "exact has none"
    (Invalid_argument "Pattern.wildcard: exact has no wildcard") (fun () ->
      ignore (P4ir.Pattern.wildcard P4ir.Match_kind.Exact))

(* --- Action --- *)

let test_action_sets () =
  let a =
    P4ir.Action.make "a"
      [ P4ir.Action.Set_from (P4ir.Field.Meta 0, P4ir.Field.Ipv4_src);
        P4ir.Action.Dec_ttl ]
  in
  check_bool "reads src+ttl" true
    (P4ir.Action.reads_of a = [ P4ir.Field.Ipv4_src; P4ir.Field.Ipv4_ttl ]);
  check_bool "writes meta+ttl" true
    (P4ir.Action.writes_of a = [ P4ir.Field.Ipv4_ttl; P4ir.Field.Meta 0 ])

let test_action_concat_drop () =
  let a = P4ir.Action.make "a" [ P4ir.Action.Drop; P4ir.Action.Forward 2 ] in
  let b = P4ir.Action.make "b" [ P4ir.Action.Nop ] in
  let c = P4ir.Action.concat "c" a b in
  check_int "drop truncates" 1 (P4ir.Action.num_primitives c);
  check_bool "still dropping" true (P4ir.Action.is_dropping c);
  let d = P4ir.Action.concat "d" b a in
  check_int "nop then a's prims up to drop" 2 (P4ir.Action.num_primitives d)

(* --- Table --- *)

let simple_table ?(name = "t") () =
  P4ir.Table.make ~name
    ~keys:[ P4ir.Table.key P4ir.Field.Ipv4_dst P4ir.Match_kind.Exact ]
    ~actions:[ P4ir.Builder.forward_action "fwd"; P4ir.Action.drop_action ]
    ~default_action:"fwd" ()

let test_table_validation () =
  Alcotest.check_raises "bad default"
    (Invalid_argument "Table t: unknown default action nope") (fun () ->
      ignore
        (P4ir.Table.make ~name:"t"
           ~keys:[ P4ir.Table.key P4ir.Field.Ipv4_dst P4ir.Match_kind.Exact ]
           ~actions:[ P4ir.Action.nop "a" ]
           ~default_action:"nope" ()));
  let t = simple_table () in
  Alcotest.check_raises "wrong arity"
    (Invalid_argument "Table t: entry has 2 patterns for 1 keys") (fun () ->
      ignore
        (P4ir.Table.add_entry t
           (P4ir.Table.entry [ P4ir.Pattern.Exact 1L; P4ir.Pattern.Exact 2L ] "fwd")))

let test_table_lookup_priority () =
  let t =
    P4ir.Table.make ~name:"acl"
      ~keys:[ P4ir.Table.key P4ir.Field.Ipv4_dst P4ir.Match_kind.Ternary ]
      ~actions:[ P4ir.Action.nop "allow"; P4ir.Action.drop_action ]
      ~default_action:"allow"
      ~entries:
        [ P4ir.Table.entry ~priority:1 [ P4ir.Pattern.Ternary (0L, 0L) ] "allow";
          P4ir.Table.entry ~priority:5 [ P4ir.Pattern.Ternary (7L, 0xFFL) ] "drop" ]
      ()
  in
  let read7 _ = 7L in
  let read9 _ = 9L in
  (match P4ir.Table.lookup t read7 with
   | Some e -> check_string "priority wins" "drop" e.action
   | None -> Alcotest.fail "expected hit");
  match P4ir.Table.lookup t read9 with
  | Some e -> check_string "wildcard catches" "allow" e.action
  | None -> Alcotest.fail "expected wildcard hit"

let test_table_m_values () =
  let lpm =
    P4ir.Table.make ~name:"lpm"
      ~keys:[ P4ir.Table.key P4ir.Field.Ipv4_dst P4ir.Match_kind.Lpm ]
      ~actions:[ P4ir.Action.nop "a" ]
      ~default_action:"a"
      ~entries:
        [ P4ir.Table.entry [ P4ir.Pattern.Lpm (0x0A000000L, 8) ] "a";
          P4ir.Table.entry [ P4ir.Pattern.Lpm (0x0A0B0000L, 16) ] "a";
          P4ir.Table.entry [ P4ir.Pattern.Lpm (0x0A0B0C00L, 24) ] "a";
          P4ir.Table.entry [ P4ir.Pattern.Lpm (0x0B000000L, 8) ] "a" ]
      ()
  in
  check_int "3 distinct prefix lengths" 3 (P4ir.Table.distinct_lpm_lengths lpm);
  let tern =
    P4ir.Table.make ~name:"tern"
      ~keys:[ P4ir.Table.key P4ir.Field.Ipv4_dst P4ir.Match_kind.Ternary ]
      ~actions:[ P4ir.Action.nop "a" ]
      ~default_action:"a"
      ~entries:
        [ P4ir.Table.entry [ P4ir.Pattern.Ternary (1L, 0xFFL) ] "a";
          P4ir.Table.entry [ P4ir.Pattern.Ternary (2L, 0xFFL) ] "a";
          P4ir.Table.entry [ P4ir.Pattern.Ternary (3L, 0xFF00L) ] "a" ]
      ()
  in
  check_int "2 distinct masks" 2 (P4ir.Table.distinct_ternary_masks tern);
  check_bool "effective kind" true
    (P4ir.Match_kind.equal (P4ir.Table.effective_kind tern) P4ir.Match_kind.Ternary)

(* --- Program --- *)

let linear3 () =
  let tabs = List.init 3 (fun i -> simple_table ~name:(Printf.sprintf "t%d" i) ()) in
  P4ir.Program.linear "lin3" tabs

let test_linear_structure () =
  let prog = linear3 () in
  P4ir.Program.validate_exn prog;
  check_int "3 nodes" 3 (P4ir.Program.num_nodes prog);
  let names = List.map (fun (_, (t : P4ir.Table.t)) -> t.name) (P4ir.Program.tables prog) in
  check_bool "topo order" true (names = [ "t0"; "t1"; "t2" ])

let test_validate_catches_cycle () =
  let prog = linear3 () in
  (* Point the last table back at the first. *)
  let ids = P4ir.Program.node_ids prog in
  let first = List.nth ids 0 and last = List.nth ids 2 in
  let prog =
    match P4ir.Program.find_exn prog last with
    | P4ir.Program.Table (t, _) ->
      P4ir.Program.set_node prog last (P4ir.Program.Table (t, P4ir.Program.Uniform (Some first)))
    | _ -> prog
  in
  check_bool "cycle detected" true (Result.is_error (P4ir.Program.validate prog))

let test_validate_catches_dup_names () =
  let tabs = [ simple_table ~name:"same" (); simple_table ~name:"same" () ] in
  let prog = P4ir.Program.linear "dup" tabs in
  check_bool "dup names" true (Result.is_error (P4ir.Program.validate prog))

let test_redirect_and_predecessors () =
  let prog = linear3 () in
  let ids = List.map fst (P4ir.Program.tables prog) in
  let t0 = List.nth ids 0 and t1 = List.nth ids 1 and t2 = List.nth ids 2 in
  check_bool "pred of t1 is t0" true (P4ir.Program.predecessors prog t1 = [ t0 ]);
  (* Skip t1 entirely. *)
  let prog = P4ir.Program.redirect prog ~old_target:t1 ~new_target:(Some t2) in
  let prog = P4ir.Program.remove_node prog t1 in
  P4ir.Program.validate_exn prog;
  check_int "2 nodes left" 2 (P4ir.Program.num_nodes prog)

let branching_program () =
  (* cond -> (t0 -> t2) / (t1 -> t2) -> sink *)
  let prog = P4ir.Program.empty "branchy" in
  let t2 = simple_table ~name:"t2" () in
  let prog, id2 = P4ir.Program.add_node prog (P4ir.Program.Table (t2, P4ir.Program.Uniform None)) in
  let t0 = simple_table ~name:"t0" () in
  let prog, id0 =
    P4ir.Program.add_node prog (P4ir.Program.Table (t0, P4ir.Program.Uniform (Some id2)))
  in
  let t1 = simple_table ~name:"t1" () in
  let prog, id1 =
    P4ir.Program.add_node prog (P4ir.Program.Table (t1, P4ir.Program.Uniform (Some id2)))
  in
  let prog, idc =
    P4ir.Program.add_node prog
      (P4ir.Builder.cond ~name:"c" ~field:P4ir.Field.Ipv4_proto ~op:P4ir.Program.Eq
         ~arg:6L ~on_true:(Some id0) ~on_false:(Some id1))
  in
  (P4ir.Program.with_root prog (Some idc), idc, id0, id1, id2)

let test_paths () =
  let prog, _, _, _, _ = branching_program () in
  P4ir.Program.validate_exn prog;
  let paths = P4ir.Program.enumerate_paths prog in
  check_int "two paths" 2 (List.length paths);
  List.iter
    (fun (p : P4ir.Program.path) -> check_int "3 nodes per path" 3 (List.length p.path_nodes))
    paths

let test_topological_order_branching () =
  let prog, idc, id0, id1, id2 = branching_program () in
  let topo = P4ir.Program.topological_order prog in
  let pos x = Option.get (List.find_index (Int.equal x) topo) in
  check_bool "cond first" true (pos idc < pos id0 && pos idc < pos id1);
  check_bool "join last" true (pos id0 < pos id2 && pos id1 < pos id2)

(* --- Deps --- *)

let table_writing ~name field =
  P4ir.Table.make ~name
    ~keys:[ P4ir.Table.key P4ir.Field.Ipv4_src P4ir.Match_kind.Exact ]
    ~actions:[ P4ir.Action.make "w" [ P4ir.Action.Set_field (field, 1L) ] ]
    ~default_action:"w" ()

let table_matching ~name field =
  P4ir.Table.make ~name
    ~keys:[ P4ir.Table.key field P4ir.Match_kind.Exact ]
    ~actions:[ P4ir.Action.nop "n" ]
    ~default_action:"n" ()

let test_deps () =
  let w = table_writing ~name:"w" (P4ir.Field.Meta 1) in
  let m = table_matching ~name:"m" (P4ir.Field.Meta 1) in
  let other = table_matching ~name:"o" P4ir.Field.Tcp_dport in
  check_bool "match dep" false (P4ir.Deps.independent w m);
  check_bool "independent" true (P4ir.Deps.independent w other);
  check_bool "deps listed" true (List.mem P4ir.Deps.Match_dep (P4ir.Deps.between w m))

(* --- JSON --- *)

let test_json_parse () =
  let j = P4ir.Json.of_string_exn {| {"a": [1, 2.5, "x", true, null], "b": {"c": -3}} |} in
  check_int "list len" 5 (List.length (P4ir.Json.to_list (P4ir.Json.member "a" j)));
  check_bool "nested int" true
    (Int64.equal (P4ir.Json.get_int (P4ir.Json.member "c" (P4ir.Json.member "b" j))) (-3L));
  check_bool "bad json is error" true (Result.is_error (P4ir.Json.of_string "{"))

let test_json_string_escapes () =
  let j = P4ir.Json.String "line\n\"quoted\"\ttab" in
  let round = P4ir.Json.of_string_exn (P4ir.Json.to_string j) in
  check_string "escape roundtrip" "line\n\"quoted\"\ttab" (P4ir.Json.get_string round)

let test_serialize_roundtrip_linear () =
  let prog = linear3 () in
  let json = P4ir.Serialize.to_string prog in
  match P4ir.Serialize.of_string json with
  | Error e -> Alcotest.fail e
  | Ok prog' ->
    P4ir.Program.validate_exn prog';
    check_int "same node count" (P4ir.Program.num_nodes prog) (P4ir.Program.num_nodes prog');
    check_string "same json" json (P4ir.Serialize.to_string prog')

let test_serialize_roundtrip_branching () =
  let prog, _, _, _, _ = branching_program () in
  let json = P4ir.Serialize.to_string prog in
  match P4ir.Serialize.of_string json with
  | Error e -> Alcotest.fail e
  | Ok prog' ->
    P4ir.Program.validate_exn prog';
    check_string "same json" json (P4ir.Serialize.to_string prog');
    check_int "two paths survive" 2 (List.length (P4ir.Program.enumerate_paths prog'))

let test_serialize_preserves_roles () =
  let cache_meta =
    { P4ir.Table.cached_tables = [ "t0"; "t1" ];
      capacity = 128;
      insert_limit = 50.;
      auto_insert = true }
  in
  let t =
    P4ir.Table.make ~name:"c" ~role:(P4ir.Table.Cache cache_meta)
      ~keys:[ P4ir.Table.key P4ir.Field.Ipv4_dst P4ir.Match_kind.Exact ]
      ~actions:[ P4ir.Action.nop "miss" ]
      ~default_action:"miss" ()
  in
  let prog = P4ir.Program.linear "withcache" [ t ] in
  match P4ir.Serialize.of_string (P4ir.Serialize.to_string prog) with
  | Error e -> Alcotest.fail e
  | Ok prog' -> (
    match P4ir.Program.find_table prog' "c" with
    | Some (_, tab) -> (
      match tab.role with
      | P4ir.Table.Cache m ->
        check_int "capacity" 128 m.capacity;
        check_bool "covered" true (m.cached_tables = [ "t0"; "t1" ])
      | _ -> Alcotest.fail "role lost")
    | None -> Alcotest.fail "table lost")

let test_program_api_errors () =
  let prog = linear3 () in
  Alcotest.check_raises "set_node unknown id"
    (Invalid_argument "Program.set_node: unknown id 99") (fun () ->
      ignore
        (P4ir.Program.set_node prog 99
           (P4ir.Builder.cond ~name:"x" ~field:P4ir.Field.Ipv4_ttl ~op:P4ir.Program.Eq
              ~arg:0L ~on_true:None ~on_false:None)));
  Alcotest.check_raises "find_exn unknown id"
    (Invalid_argument "Program.find_exn: unknown id 99") (fun () ->
      ignore (P4ir.Program.find_exn prog 99));
  Alcotest.check_raises "update_table on branch"
    (Invalid_argument "update_table: node 3 is a branch") (fun () ->
      let prog, id =
        P4ir.Program.add_node prog
          (P4ir.Builder.cond ~name:"c" ~field:P4ir.Field.Ipv4_ttl ~op:P4ir.Program.Eq
             ~arg:0L ~on_true:None ~on_false:None)
      in
      ignore (P4ir.Program.update_table prog id Fun.id))

let test_enumerate_paths_limit () =
  (* A ladder of n conditionals has 2^n paths; the limit must trip. *)
  let rec ladder prog next n =
    if n = 0 then (prog, next)
    else
      let t1 = simple_table ~name:(Printf.sprintf "la%d" n) () in
      let t2 = simple_table ~name:(Printf.sprintf "lb%d" n) () in
      let prog, a = P4ir.Program.add_node prog (P4ir.Program.Table (t1, P4ir.Program.Uniform next)) in
      let prog, b = P4ir.Program.add_node prog (P4ir.Program.Table (t2, P4ir.Program.Uniform next)) in
      let prog, c =
        P4ir.Program.add_node prog
          (P4ir.Builder.cond ~name:(Printf.sprintf "c%d" n) ~field:P4ir.Field.Ipv4_ttl
             ~op:P4ir.Program.Eq ~arg:(Int64.of_int n) ~on_true:(Some a) ~on_false:(Some b))
      in
      ladder prog (Some c) (n - 1)
  in
  let prog, root = ladder (P4ir.Program.empty "ladder") None 12 in
  let prog = P4ir.Program.with_root prog root in
  check_int "4096 paths enumerable" 4096 (List.length (P4ir.Program.enumerate_paths prog));
  Alcotest.check_raises "limit trips"
    (Invalid_argument "Program.enumerate_paths: too many paths") (fun () ->
      ignore (P4ir.Program.enumerate_paths ~limit:1000 prog))

let test_eval_cond_operators () =
  let mk op = { P4ir.Program.cond_name = "c"; field = P4ir.Field.Tcp_dport; op;
                arg = 10L; on_true = None; on_false = None } in
  check_bool "eq" true (P4ir.Program.eval_cond (mk P4ir.Program.Eq) 10L);
  check_bool "neq" true (P4ir.Program.eval_cond (mk P4ir.Program.Neq) 11L);
  check_bool "lt" true (P4ir.Program.eval_cond (mk P4ir.Program.Lt) 9L);
  check_bool "gt" false (P4ir.Program.eval_cond (mk P4ir.Program.Gt) 9L);
  check_bool "le boundary" true (P4ir.Program.eval_cond (mk P4ir.Program.Le) 10L);
  check_bool "ge boundary" true (P4ir.Program.eval_cond (mk P4ir.Program.Ge) 10L);
  (* Unsigned comparison: -1 is the largest value. *)
  check_bool "unsigned" true (P4ir.Program.eval_cond (mk P4ir.Program.Gt) Int64.minus_one)

(* --- DOT export --- *)

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let test_dot_program () =
  let prog, _, _, _, _ = branching_program () in
  let dot = P4ir.Dot.program prog in
  check_bool "has digraph" true (contains dot "digraph");
  check_bool "names tables" true (contains dot "t0" && contains dot "t2");
  check_bool "labels branches" true (contains dot "[label=\"T\"]");
  check_bool "has sink" true (contains dot "sink");
  let annotated = P4ir.Dot.program ~reach:(fun _ -> Some 0.25) prog in
  check_bool "reach annotations" true (contains annotated "p=0.25")

let test_dot_dependencies () =
  let w = table_writing ~name:"w" (P4ir.Field.Meta 1) in
  let m = table_matching ~name:"m" (P4ir.Field.Meta 1) in
  let prog = P4ir.Program.linear "d" [ w; m ] in
  let dot = P4ir.Dot.dependencies prog in
  check_bool "edge with kind" true (contains dot "\"w\" -> \"m\"" && contains dot "match")

let () =
  Alcotest.run "p4ir"
    [ ( "value",
        [ Alcotest.test_case "truncate" `Quick test_truncate;
          Alcotest.test_case "prefix_mask" `Quick test_prefix_mask;
          Alcotest.test_case "in_range" `Quick test_in_range ] );
      ( "field",
        [ Alcotest.test_case "roundtrip" `Quick test_field_roundtrip;
          Alcotest.test_case "width" `Quick test_field_width;
          Alcotest.test_case "bad name" `Quick test_field_bad_name ] );
      ( "pattern",
        [ Alcotest.test_case "matches" `Quick test_pattern_matches;
          Alcotest.test_case "specificity" `Quick test_pattern_specificity;
          Alcotest.test_case "wildcards" `Quick test_wildcards ] );
      ( "action",
        [ Alcotest.test_case "read/write sets" `Quick test_action_sets;
          Alcotest.test_case "concat truncates at drop" `Quick test_action_concat_drop ] );
      ( "table",
        [ Alcotest.test_case "validation" `Quick test_table_validation;
          Alcotest.test_case "lookup priority" `Quick test_table_lookup_priority;
          Alcotest.test_case "m values" `Quick test_table_m_values ] );
      ( "program",
        [ Alcotest.test_case "linear structure" `Quick test_linear_structure;
          Alcotest.test_case "cycle detection" `Quick test_validate_catches_cycle;
          Alcotest.test_case "dup names" `Quick test_validate_catches_dup_names;
          Alcotest.test_case "redirect" `Quick test_redirect_and_predecessors;
          Alcotest.test_case "paths" `Quick test_paths;
          Alcotest.test_case "topological order" `Quick test_topological_order_branching;
          Alcotest.test_case "api errors" `Quick test_program_api_errors;
          Alcotest.test_case "path limit" `Quick test_enumerate_paths_limit;
          Alcotest.test_case "conditional operators" `Quick test_eval_cond_operators ] );
      ( "deps",
        [ Alcotest.test_case "dependencies" `Quick test_deps ] );
      ( "json",
        [ Alcotest.test_case "parse" `Quick test_json_parse;
          Alcotest.test_case "string escapes" `Quick test_json_string_escapes;
          Alcotest.test_case "roundtrip linear" `Quick test_serialize_roundtrip_linear;
          Alcotest.test_case "roundtrip branching" `Quick test_serialize_roundtrip_branching;
          Alcotest.test_case "roles preserved" `Quick test_serialize_preserves_roles ] );
      ( "dot",
        [ Alcotest.test_case "program export" `Quick test_dot_program;
          Alcotest.test_case "dependency export" `Quick test_dot_dependencies ] ) ]
