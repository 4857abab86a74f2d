module Program = P4ir.Program
module Table = P4ir.Table

type case = Gen.case = {
  program : Program.t;
  profile : Profile.t;
  packets : Gen.flow list;
}

type check = case -> Oracle.divergence option

let fails check case = check case <> None

let take n xs = List.filteri (fun i _ -> i < n) xs
let drop_nth i xs = List.filteri (fun j _ -> j <> i) xs

(* Successors a removed node's predecessors could be rewired to: both
   arms of a branch, and each distinct per-action target of a
   switch-case table (default first, the likeliest behaviour-preserving
   bypass). *)
let bypass_targets prog id =
  match Program.find_exn prog id with
  | Program.Table (_, Program.Uniform n) -> [ n ]
  | Program.Table (tab, Program.Per_action branches) ->
    let default =
      match List.assoc_opt tab.Table.default_action branches with
      | Some n -> n
      | None -> None
    in
    default :: List.map snd branches
  | Program.Cond c -> [ c.on_false; c.on_true ]

let without_node prog id =
  bypass_targets prog id
  |> List.sort_uniq compare
  |> List.filter_map (fun target ->
         if target = Some id then None
         else begin
           let p = Program.redirect prog ~old_target:id ~new_target:target in
           let p = Program.remove_node p id in
           let p = Program.gc p in
           match Program.validate p with Ok () -> Some p | Error _ -> None
         end)

let try_nodes check case =
  List.find_map
    (fun id ->
      List.find_map
        (fun p ->
          let candidate = { case with program = p } in
          if fails check candidate then Some candidate else None)
        (without_node case.program id))
    (Program.node_ids case.program)

let try_entries check case =
  List.find_map
    (fun (id, (tab : Table.t)) ->
      let n = List.length tab.entries in
      let rec at i =
        if i >= n then None
        else begin
          let p =
            Program.update_table case.program id (fun t ->
                { t with Table.entries = drop_nth i t.entries })
          in
          let candidate = { case with program = p } in
          if fails check candidate then Some candidate else at (i + 1)
        end
      in
      at 0)
    (Program.tables case.program)

let try_packets check case =
  let n = List.length case.packets in
  let rec at i =
    if i >= n then None
    else begin
      let candidate = { case with packets = drop_nth i case.packets } in
      if fails check candidate then Some candidate else at (i + 1)
    end
  in
  at 0

let step check case =
  match try_nodes check case with
  | Some c -> Some c
  | None -> (
    match try_entries check case with
    | Some c -> Some c
    | None -> try_packets check case)

(* Bounds the number of successful reductions. *)
let max_steps = 500

let shrink check case0 =
  match check case0 with
  | None -> case0
  | Some d ->
    (* Everything after the diverging packet is noise; cut it first so
       the per-candidate replays below stay cheap. *)
    let case =
      if d.Oracle.packet_index >= 0 && d.Oracle.packet_index + 1 < List.length case0.packets
      then begin
        let truncated =
          { case0 with packets = take (d.Oracle.packet_index + 1) case0.packets }
        in
        if fails check truncated then truncated else case0
      end
      else case0
    in
    let steps = ref 0 in
    let rec go case =
      if !steps >= max_steps then case
      else
        match step check case with
        | Some reduced ->
          incr steps;
          go reduced
        | None -> case
    in
    go case
