let exact_key f = Table.key f Match_kind.Exact
let lpm_key f = Table.key f Match_kind.Lpm
let ternary_key f = Table.key f Match_kind.Ternary

let forward_action ?(extra_prims = 0) name =
  let extras = List.init extra_prims (fun i -> Action.Set_field (Field.Meta (8 + i), 1L)) in
  Action.make name (Action.Forward 1 :: extras)

let acl_table ~name ~keys () =
  Table.make ~max_entries:1024 ~name ~keys
    ~actions:[ Action.nop "allow"; Action.make "deny" [ Action.Drop ] ]
    ~default_action:"allow" ()

let exact_chain ?(actions_per_table = 2) ?(extra_prims = 0) ~prefix ~n ~key_of () =
  List.init n (fun i ->
      let actions =
        List.init actions_per_table (fun j ->
            forward_action ~extra_prims (Printf.sprintf "act%d" j))
      in
      Table.make
        ~name:(Printf.sprintf "%s_%d" prefix i)
        ~keys:[ exact_key (key_of i) ]
        ~actions ~default_action:"act0" ())

let cond ~name ~field ~op ~arg ~on_true ~on_false =
  Program.Cond
    { Program.cond_name = name; field; op; arg; on_true; on_false }

let chain_into prog tabs ~exit =
  match tabs with
  | [] -> invalid_arg "Builder.chain_into: empty chain"
  | _ ->
    let prog, rev_ids =
      List.fold_left
        (fun (prog, acc) tab ->
          let prog, id = Program.add_node prog (Program.Table (tab, Program.Uniform exit)) in
          (prog, id :: acc))
        (prog, []) tabs
    in
    let ids = List.rev rev_ids in
    let rec link prog = function
      | a :: (b :: _ as rest) ->
        let prog =
          match Program.find_exn prog a with
          | Program.Table (tab, Program.Uniform _) ->
            Program.set_node prog a (Program.Table (tab, Program.Uniform (Some b)))
          | node -> Program.set_node prog a node
        in
        link prog rest
      | _ -> prog
    in
    (link prog ids, List.hd ids)
