type op =
  | Direct of { table : string; insert : bool; entry : P4ir.Table.entry }
  | Rebuild of { table : string; entries : P4ir.Table.entry list }
  | Invalidate of string

let covering_caches optimized tname =
  List.filter_map
    (fun (_, (tab : P4ir.Table.t)) ->
      match tab.role with
      | P4ir.Table.Cache meta when List.mem tname meta.cached_tables -> Some tab
      | _ -> None)
    (P4ir.Program.tables optimized)

let covering_merges optimized tname =
  List.filter_map
    (fun (_, (tab : P4ir.Table.t)) ->
      match tab.role with
      | P4ir.Table.Merged names when List.mem tname names -> Some (tab, names)
      | _ -> None)
    (P4ir.Program.tables optimized)

let originals_of original names =
  List.map
    (fun n ->
      match P4ir.Program.find_table original n with
      | Some (_, tab) -> tab
      | None -> invalid_arg ("Api_map: merged source table missing: " ^ n))
    names

let map_update ~original ~optimized ~table entry ~insert =
  if P4ir.Program.find_table original table = None then
    invalid_arg ("Api_map: unknown original table " ^ table);
  let direct =
    match P4ir.Program.find_table optimized table with
    | Some _ -> [ Direct { table; insert; entry } ]
    | None -> []
  in
  let rebuilds =
    List.map
      (fun ((merged : P4ir.Table.t), names) ->
        let tabs = originals_of original names in
        let rebuilt =
          match merged.role with
          | P4ir.Table.Merged _ -> Merge.build_ternary ~name:merged.name tabs
          | _ -> merged
        in
        Rebuild { table = merged.name; entries = rebuilt.P4ir.Table.entries })
      (covering_merges optimized table)
  in
  let fallback_rebuilds =
    (* Exact-merge lookaside caches (auto_insert = false) hold
       precomputed cross products: recompute them as well. *)
    List.filter_map
      (fun (cache : P4ir.Table.t) ->
        match cache.role with
        | P4ir.Table.Cache meta when not meta.auto_insert ->
          let tabs = originals_of original meta.cached_tables in
          if Merge.mergeable tabs && Merge.fallback_compatible tabs then
            let rebuilt = Merge.build_fallback ~name:cache.name tabs in
            Some (Rebuild { table = cache.name; entries = rebuilt.P4ir.Table.entries })
          else None
        | _ -> None)
      (covering_caches optimized table)
  in
  let invalidations =
    List.filter_map
      (fun (cache : P4ir.Table.t) ->
        match cache.role with
        | P4ir.Table.Cache meta when meta.auto_insert -> Some (Invalidate cache.name)
        | _ -> None)
      (covering_caches optimized table)
  in
  direct @ rebuilds @ fallback_rebuilds @ invalidations

let map_insert ~original ~optimized ~table entry =
  map_update ~original ~optimized ~table entry ~insert:true

let map_delete ~original ~optimized ~table entry =
  map_update ~original ~optimized ~table entry ~insert:false
