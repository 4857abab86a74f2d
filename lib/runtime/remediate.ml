type action =
  | Evict_cache of { cache : string; originals : string list }
  | Split_merge of { merged : string; originals : string list }
  | Shed of { table : string }

let find_table prog name =
  match
    List.find_opt
      (fun (_, (tab : P4ir.Table.t)) -> String.equal tab.name name)
      (P4ir.Program.tables prog)
  with
  | Some (_, tab) -> Some tab
  | None -> None

let plan ~deployed issues =
  List.filter_map
    (fun (issue : Monitor.issue) ->
      match issue with
      | Monitor.Low_hit_rate { cache; _ } -> (
        match find_table deployed cache with
        | Some { P4ir.Table.role = P4ir.Table.Cache meta; _ } ->
          Some (Evict_cache { cache; originals = meta.cached_tables })
        | _ -> None)
      | Monitor.Merged_blowup { merged; _ } -> (
        match find_table deployed merged with
        | Some { P4ir.Table.role = P4ir.Table.Merged sources; _ } ->
          Some (Split_merge { merged; originals = sources })
        | _ -> None)
      | Monitor.Update_storm { table; _ } -> (
        match find_table deployed table with
        | Some { P4ir.Table.role = P4ir.Table.Merged sources; _ } ->
          Some (Split_merge { merged = table; originals = sources })
        | Some _ -> Some (Shed { table })
        | None -> None))
    issues

let exclusions_of_action = function
  | Evict_cache { originals; _ } ->
    List.map (fun name -> (name, Pipeleon.Candidate.Cache_seg)) originals
  | Split_merge { originals; _ } ->
    List.concat_map
      (fun name ->
        [ (name, Pipeleon.Candidate.Merge_ternary_seg);
          (name, Pipeleon.Candidate.Merge_fallback_seg) ])
      originals
  | Shed { table } ->
    [ (table, Pipeleon.Candidate.Cache_seg);
      (table, Pipeleon.Candidate.Merge_ternary_seg);
      (table, Pipeleon.Candidate.Merge_fallback_seg) ]

let sheds actions =
  List.exists (function Shed _ -> true | _ -> false) actions

(* Blacklist: exclusion -> expiry tick. *)

type blacklist = (Pipeleon.Search.exclusion, int) Hashtbl.t

let create_blacklist () : blacklist = Hashtbl.create 16

let ban (bl : blacklist) ~now ~ttl exclusion =
  let expiry = now + ttl in
  match Hashtbl.find_opt bl exclusion with
  | Some existing when existing >= expiry -> ()
  | _ -> Hashtbl.replace bl exclusion expiry

let prune (bl : blacklist) ~now =
  let expired =
    Hashtbl.fold (fun k expiry acc -> if expiry <= now then k :: acc else acc) bl []
  in
  List.iter (Hashtbl.remove bl) expired

let kind_rank = function
  | Pipeleon.Candidate.Cache_seg -> 0
  | Pipeleon.Candidate.Merge_ternary_seg -> 1
  | Pipeleon.Candidate.Merge_fallback_seg -> 2

let active (bl : blacklist) ~now =
  prune bl ~now;
  Hashtbl.fold (fun k _ acc -> k :: acc) bl []
  |> List.sort (fun (n1, k1) (n2, k2) ->
         match String.compare n1 n2 with
         | 0 -> compare (kind_rank k1) (kind_rank k2)
         | c -> c)

let banned (bl : blacklist) ~now exclusion =
  match Hashtbl.find_opt bl exclusion with
  | Some expiry -> expiry > now
  | None -> false

let backoff ~base ~cap ~failures =
  if failures <= 0 then 0.
  else Float.min cap (base *. Float.pow 2. (float_of_int (failures - 1)))
