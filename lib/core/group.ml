type t = {
  branch : P4ir.Program.node_id;
  members : Pipelet.t list;
  common_exit : P4ir.Program.next;
}

type evaluated = {
  group : t;
  cache : P4ir.Table.t;
  gain : float;
  mem_delta : int;
  update_delta : float;
}

let single_pred prog (p : Pipelet.t) branch =
  match P4ir.Program.predecessors prog p.entry with
  | [ pred ] -> pred = branch
  | _ -> false

let detect prog ~candidates =
  let find_member entry =
    List.find_opt (fun (p : Pipelet.t) -> p.entry = entry && not p.is_switch_case) candidates
  in
  List.filter_map
    (fun (id, (c : P4ir.Program.cond)) ->
      match (c.on_true, c.on_false) with
      | Some t_entry, Some f_entry -> (
        match (find_member t_entry, find_member f_entry) with
        | Some pt, Some pf
          when pt.exit = pf.exit && single_pred prog pt id && single_pred prog pf id
               && pt.entry <> pf.entry ->
          Some { branch = id; members = [ pt; pf ]; common_exit = pt.exit }
        | _ -> None)
      | _ -> None)
    (P4ir.Program.conds prog)

let member_outcomes (c : P4ir.Program.cond) (g : t) =
  List.map
    (fun (p : Pipelet.t) ->
      let outcome = if c.on_true = Some p.entry then "true" else "false" in
      (outcome, p))
    g.members

let cond_of prog id =
  match P4ir.Program.find_exn prog id with
  | P4ir.Program.Cond c -> c
  | _ -> invalid_arg "Group: branch node is not a conditional"

let build_cache ?(capacity = 4096) ~name prog g =
  let c = cond_of prog g.branch in
  let member_tabs = List.map (fun p -> Pipelet.tables prog p) g.members in
  if not (List.for_all Cache.cacheable member_tabs) then None
  else begin
    let total_actions =
      List.fold_left (fun acc tabs -> acc + Cache.num_sequences tabs) 0 member_tabs
    in
    if total_actions > Cache.max_fused_actions then None
    else begin
      let key_fields =
        c.field
        :: List.concat_map (fun tabs -> Cache.live_in_fields tabs) member_tabs
        |> List.sort_uniq P4ir.Field.compare
      in
      let keys =
        List.map (fun f -> P4ir.Table.key f P4ir.Match_kind.Exact) key_fields
      in
      let actions =
        List.concat_map
          (fun (outcome, p) ->
            Cache.fused_actions_of
              ~name_pairs_prefix:[ (c.cond_name, outcome) ]
              (Pipelet.tables prog p))
          (member_outcomes c g)
      in
      let covered =
        c.cond_name
        :: List.concat_map
             (fun tabs -> List.map (fun (t : P4ir.Table.t) -> t.name) tabs)
             member_tabs
      in
      let miss = P4ir.Action.nop "miss" in
      Some
        (P4ir.Table.make ~name ~keys
           ~actions:(actions @ [ miss ])
           ~default_action:"miss" ~max_entries:capacity
           ~role:
             (P4ir.Table.Cache
                { P4ir.Table.cached_tables = covered;
                  capacity;
                  (* the fill rate of every generated cache
                     (Candidate.cache_fill_rate) *)
                  insert_limit = 1000.;
                  auto_insert = true })
           ())
    end
  end

(* Build a standalone program of the group region (branch + members),
   optionally fronted by the cache, all exiting to the sink. *)
let region_program ?cache prog g =
  let c = cond_of prog g.branch in
  let mini = P4ir.Program.empty "__group_region" in
  let mini, arm_entries =
    List.fold_left
      (fun (mini, acc) (p : Pipelet.t) ->
        let tabs = List.map (fun t -> Transform.Plain t) (Pipelet.tables prog p) in
        let mini, entry =
          List.fold_left
            (fun (mini, next) el ->
              match el with
              | Transform.Plain tab ->
                let mini, id =
                  P4ir.Program.add_node mini
                    (P4ir.Program.Table (tab, P4ir.Program.Uniform next))
                in
                (mini, Some id)
              | _ -> (mini, next))
            (mini, None) (List.rev tabs)
        in
        (mini, (p.entry, entry) :: acc))
      (mini, []) g.members
  in
  let arm p = List.assoc p arm_entries in
  let on_true =
    match c.on_true with Some e -> arm e | None -> None
  in
  let on_false =
    match c.on_false with Some e -> arm e | None -> None
  in
  let mini, branch_id =
    P4ir.Program.add_node mini (P4ir.Program.Cond { c with on_true; on_false })
  in
  match cache with
  | None -> P4ir.Program.with_root mini (Some branch_id)
  | Some (cache_tab : P4ir.Table.t) ->
    let branches =
      List.map
        (fun (a : P4ir.Action.t) ->
          if String.equal a.name cache_tab.default_action then (a.name, Some branch_id)
          else (a.name, None))
        cache_tab.actions
    in
    let mini, cache_id =
      P4ir.Program.add_node mini
        (P4ir.Program.Table (cache_tab, P4ir.Program.Per_action branches))
    in
    P4ir.Program.with_root mini (Some cache_id)

let group_cache_stats target prof prog g (cache : P4ir.Table.t) =
  ignore target;
  let c = cond_of prog g.branch in
  let member_tabs = List.concat_map (fun p -> Pipelet.tables prog p) g.members in
  let hit_rate =
    Profile.cache_hit_estimate prof
      ~table_names:(List.map (fun (t : P4ir.Table.t) -> t.name) member_tabs)
  in
  let part_prob (owner, label) =
    if String.equal owner c.cond_name then
      let p = Profile.true_prob prof ~cond_name:c.cond_name in
      if String.equal label "true" then p else 1. -. p
    else
      match
        List.find_opt (fun (t : P4ir.Table.t) -> String.equal t.name owner) member_tabs
      with
      | Some tab -> Profile.action_prob prof ~table:tab ~action:label
      | None -> 1.
  in
  let action_probs =
    List.map
      (fun (a : P4ir.Action.t) ->
        if String.equal a.name cache.default_action then (a.name, 1. -. hit_rate)
        else
          let parts = Profile.Counter_map.split_fused a.name in
          ( a.name,
            hit_rate *. List.fold_left (fun acc part -> acc *. part_prob part) 1.0 parts ))
      cache.actions
  in
  let update_rate =
    match cache.role with P4ir.Table.Cache m -> m.insert_limit | _ -> 0.
  in
  { Profile.action_probs; update_rate; locality = -1. }

let evaluate target prof prog g ~cache =
  let before = region_program prog g in
  let after = region_program ~cache prog g in
  let prof_after =
    Profile.set_table cache.P4ir.Table.name (group_cache_stats target prof prog g cache) prof
  in
  let l_before = Costmodel.Cost.expected_latency target prof before in
  let l_after = Costmodel.Cost.expected_latency target prof_after after in
  let reach =
    try List.assoc g.branch (Costmodel.Cost.reach_probs prof prog) with Not_found -> 0.
  in
  { group = g;
    cache;
    gain = (l_before -. l_after) *. reach;
    mem_delta = Costmodel.Resource.table_memory target cache;
    update_delta =
      (match cache.role with P4ir.Table.Cache m -> m.insert_limit | _ -> 0.) }

let apply prog g ~cache =
  let branches =
    List.map
      (fun (a : P4ir.Action.t) ->
        if String.equal a.name cache.P4ir.Table.default_action then
          (a.name, Some g.branch)
        else (a.name, g.common_exit))
      cache.P4ir.Table.actions
  in
  let prog, cache_id =
    P4ir.Program.add_node prog (P4ir.Program.Table (cache, P4ir.Program.Per_action branches))
  in
  let prog = P4ir.Program.redirect prog ~old_target:g.branch ~new_target:(Some cache_id) in
  (* The redirect also rewrote the cache's own miss edge; point it back. *)
  let prog =
    P4ir.Program.set_node prog cache_id
      (P4ir.Program.Table (cache, P4ir.Program.Per_action branches))
  in
  P4ir.Program.validate_exn prog;
  prog
