type change =
  | Added of string
  | Removed of string
  | Reshaped of string
  | Entries_changed of string

let table_map prog =
  List.fold_left
    (fun acc (_, (t : P4ir.Table.t)) -> (t.name, t) :: acc)
    []
    (P4ir.Program.tables prog)

let diff ~old_program ~new_program =
  let old_tabs = table_map old_program in
  let new_tabs = table_map new_program in
  let removed =
    List.filter_map
      (fun (name, _) ->
        if List.mem_assoc name new_tabs then None else Some (Removed name))
      old_tabs
  in
  let added_or_changed =
    List.filter_map
      (fun (name, (nt : P4ir.Table.t)) ->
        match List.assoc_opt name old_tabs with
        | None -> Some (Added name)
        | Some ot ->
          if ot.P4ir.Table.keys <> nt.keys || ot.actions <> nt.actions || ot.role <> nt.role
          then Some (Reshaped name)
          else if ot.entries <> nt.entries then Some (Entries_changed name)
          else None)
      new_tabs
  in
  List.rev removed @ List.rev added_or_changed

(* Three significant digits: enough that a genuinely shifted profile
   re-evaluates, coarse enough that counter noise between windows does
   not defeat the warm cache. *)
let bucket = Printf.sprintf "%.3g"

let pipelet_signature prof (hot : Pipeleon.Hotspot.hot) (tables : P4ir.Table.t list) =
  let buf = Buffer.create 128 in
  Buffer.add_string buf (bucket hot.reach_prob);
  Buffer.add_char buf '|';
  Buffer.add_string buf (bucket (Profile.default_cache_hit prof));
  List.iter
    (fun (t : P4ir.Table.t) ->
      Buffer.add_char buf '|';
      Buffer.add_string buf t.name;
      Buffer.add_char buf ':';
      Buffer.add_string buf (string_of_int (List.length t.entries));
      Buffer.add_char buf ':';
      Buffer.add_string buf (string_of_int t.max_entries);
      Buffer.add_char buf ':';
      Buffer.add_string buf (string_of_int (Hashtbl.hash t.keys));
      Buffer.add_char buf ':';
      Buffer.add_string buf (string_of_int (Hashtbl.hash t.actions));
      match Profile.table_stats prof t.name with
      | None -> Buffer.add_string buf ":?"
      | Some st ->
        Buffer.add_char buf ':';
        Buffer.add_string buf (bucket st.update_rate);
        Buffer.add_char buf ':';
        Buffer.add_string buf (bucket st.locality);
        List.iter
          (fun (a, p) ->
            Buffer.add_char buf ',';
            Buffer.add_string buf a;
            Buffer.add_char buf '=';
            Buffer.add_string buf (bucket p))
          st.action_probs)
    tables;
  Buffer.contents buf
