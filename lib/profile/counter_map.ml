let pair_sep = ';'
let field_sep = ':'

let fuse pairs =
  String.concat (String.make 1 pair_sep)
    (List.map (fun (t, a) -> t ^ String.make 1 field_sep ^ a) pairs)

let split_fused name =
  let parts = String.split_on_char pair_sep name in
  let parse part =
    match String.index_opt part field_sep with
    | Some i ->
      Some (String.sub part 0 i, String.sub part (i + 1) (String.length part - i - 1))
    | None -> None
  in
  let parsed = List.map parse parts in
  if List.for_all Option.is_some parsed then List.filter_map Fun.id parsed else []

let fold_back ~optimized counters =
  let result = Counter.create () in
  let tables = P4ir.Program.tables optimized in
  let pass_through owner =
    List.iter
      (fun ((k : Counter.key), v) ->
        if String.equal k.owner owner then
          Counter.incr ~by:v result ~owner:k.owner ~label:k.label)
      (Counter.dump counters)
  in
  List.iter
    (fun (_, (tab : P4ir.Table.t)) ->
      match tab.role with
      | P4ir.Table.Regular -> pass_through tab.name
      | P4ir.Table.Navigation | P4ir.Table.Migration -> ()
      | P4ir.Table.Cache _ | P4ir.Table.Merged _ ->
        List.iter
          (fun (a : P4ir.Action.t) ->
            let count = Counter.get counters ~owner:tab.name ~label:a.name in
            if Int64.compare count 0L > 0 then
              List.iter
                (fun (owner, label) -> Counter.incr ~by:count result ~owner ~label)
                (split_fused a.name))
          tab.actions)
    tables;
  (* Conditionals keep their own names across rewrites. *)
  List.iter
    (fun (_, (c : P4ir.Program.cond)) ->
      List.iter
        (fun label ->
          let v = Counter.get counters ~owner:c.cond_name ~label in
          if Int64.compare v 0L > 0 then
            Counter.incr ~by:v result ~owner:c.cond_name ~label)
        [ "true"; "false" ])
    (P4ir.Program.conds optimized);
  result
