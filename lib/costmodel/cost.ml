type core = Asic | Cpu

type placement = P4ir.Program.node_id -> core

let all_asic : placement = fun _ -> Asic

let action_cost (target : Target.t) prof (tab : P4ir.Table.t) =
  List.fold_left
    (fun acc (a : P4ir.Action.t) ->
      let p = Profile.action_prob prof ~table:tab ~action:a.name in
      acc +. (p *. float_of_int (P4ir.Action.num_primitives a) *. target.l_act))
    0. tab.actions

let core_factor (target : Target.t) = function
  | Asic -> 1.0
  | Cpu -> target.cpu_slowdown

let node_cost ?(placement = all_asic) (target : Target.t) prof prog id =
  let base =
    match P4ir.Program.find_exn prog id with
    | P4ir.Program.Table (tab, _) ->
      Target.table_match_cost target tab +. action_cost target prof tab
    | P4ir.Program.Cond _ -> target.l_cond
  in
  base *. core_factor target (placement id)

(* Probability that each outgoing edge of [id] is traversed, given the
   packet reached [id] with probability 1. Dropping actions emit no edge. *)
let local_out_probs prof prog id =
  match P4ir.Program.find_exn prog id with
  | P4ir.Program.Cond c ->
    let p = Profile.true_prob prof ~cond_name:c.cond_name in
    [ (c.on_true, p); (c.on_false, 1. -. p) ]
  | P4ir.Program.Table (tab, nxt) ->
    let surviving_prob_of a =
      if P4ir.Action.is_dropping a then 0.
      else Profile.action_prob prof ~table:tab ~action:a.P4ir.Action.name
    in
    (match nxt with
     | P4ir.Program.Uniform next ->
       let keep =
         List.fold_left (fun acc a -> acc +. surviving_prob_of a) 0. tab.actions
       in
       [ (next, keep) ]
     | P4ir.Program.Per_action branches ->
       List.map
         (fun (aname, next) ->
           let a = P4ir.Table.find_action_exn tab aname in
           (next, surviving_prob_of a))
         branches)

let reach_probs prof prog =
  let order = P4ir.Program.topological_order prog in
  let probs = Hashtbl.create 16 in
  (match P4ir.Program.root prog with
   | Some r -> Hashtbl.replace probs r 1.0
   | None -> ());
  List.iter
    (fun id ->
      let p = match Hashtbl.find_opt probs id with Some p -> p | None -> 0. in
      if p > 0. then
        List.iter
          (fun (next, q) ->
            match next with
            | Some dst ->
              let cur = match Hashtbl.find_opt probs dst with Some c -> c | None -> 0. in
              Hashtbl.replace probs dst (cur +. (p *. q))
            | None -> ())
          (local_out_probs prof prog id))
    order;
  List.map
    (fun id -> (id, match Hashtbl.find_opt probs id with Some p -> p | None -> 0.))
    order

let edge_probs prof prog =
  let reach = reach_probs prof prog in
  List.concat_map
    (fun (id, p) ->
      List.map (fun (next, q) -> ((id, next), p *. q)) (local_out_probs prof prog id))
    reach

let migration_cost ~placement (target : Target.t) prof prog =
  let edges = edge_probs prof prog in
  let crossing =
    List.fold_left
      (fun acc ((src, next), p) ->
        let src_core = placement src in
        let crossing =
          match next with
          | Some dst -> placement dst <> src_core
          | None -> src_core = Cpu (* back to the wire via the ASIC side *)
        in
        if crossing then acc +. p else acc)
      0. edges
  in
  let entry =
    match P4ir.Program.root prog with
    | Some r when placement r = Cpu -> 1.0
    | _ -> 0.
  in
  (crossing +. entry) *. target.migration_latency

let expected_latency ?(placement = all_asic) (target : Target.t) prof prog =
  let reach = reach_probs prof prog in
  let node_sum =
    List.fold_left
      (fun acc (id, p) -> acc +. (p *. node_cost ~placement target prof prog id))
      0. reach
  in
  target.l_fixed +. node_sum +. migration_cost ~placement target prof prog

let expected_latency_via_paths ?(placement = all_asic) target prof prog =
  (* Eq. 1, but enumerate_paths only yields sink-terminated paths while
     dropped packets leave the graph early. We therefore expand each
     sink path into its drop-truncated prefixes with their own masses. *)
  let rec walk id_opt mass acc_latency total =
    match id_opt with
    | None -> total +. (mass *. acc_latency)
    | Some id ->
      let cost = node_cost ~placement target prof prog id in
      let acc_latency = acc_latency +. cost in
      let outs = local_out_probs prof prog id in
      let out_mass = List.fold_left (fun a (_, q) -> a +. q) 0. outs in
      let dropped = Float.max 0. (1. -. out_mass) in
      let total = total +. (mass *. dropped *. acc_latency) in
      List.fold_left
        (fun total (next, q) ->
          if q <= 0. then total
          else
            let extra =
              match next with
              | Some dst when placement dst <> placement id -> target.migration_latency
              | None when placement id = Cpu -> target.migration_latency
              | _ -> 0.
            in
            walk next (mass *. q) (acc_latency +. extra) total)
        total outs
  in
  let entry_cost =
    match P4ir.Program.root prog with
    | Some r when placement r = Cpu -> target.migration_latency
    | _ -> 0.
  in
  target.l_fixed +. entry_cost +. walk (P4ir.Program.root prog) 1.0 0. 0.

let expected_throughput_gbps target prof prog =
  let latency = expected_latency target prof prog in
  Target.throughput_gbps target ~latency
