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
