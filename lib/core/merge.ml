let max_merged_entries = 4096

module FieldSet = Set.Make (P4ir.Field)

let has_range (tab : P4ir.Table.t) =
  List.exists
    (fun (k : P4ir.Table.key) -> P4ir.Match_kind.equal k.kind P4ir.Match_kind.Range)
    tab.keys

let no_forward_match_dep tabs =
  (* T_i must not write a field any later table reads or matches: the
     merged lookup reads every key simultaneously, on pre-merge values. *)
  let rec go written = function
    | [] -> true
    | (tab : P4ir.Table.t) :: rest ->
      let reads = FieldSet.of_list (P4ir.Table.reads_of tab) in
      if not (FieldSet.is_empty (FieldSet.inter written reads)) then false
      else go (FieldSet.union written (FieldSet.of_list (P4ir.Table.writes_of tab))) rest
  in
  go FieldSet.empty tabs

let entry_estimate tabs =
  List.fold_left
    (fun acc (t : P4ir.Table.t) -> acc * max 1 (P4ir.Table.num_entries t))
    1 tabs

let update_estimate prof tabs =
  let sizes = List.map (fun (t : P4ir.Table.t) -> max 1 (P4ir.Table.num_entries t)) tabs in
  let rates =
    List.map (fun (t : P4ir.Table.t) -> Profile.update_rate prof ~table_name:t.name) tabs
  in
  List.mapi
    (fun i rate ->
      let others =
        List.filteri (fun j _ -> j <> i) sizes |> List.fold_left ( * ) 1
      in
      rate *. float_of_int others)
    rates
  |> List.fold_left ( +. ) 0.

let mergeable tabs =
  List.length tabs >= 2
  && (not (List.exists has_range tabs))
  && no_forward_match_dep tabs
  && entry_estimate tabs <= max_merged_entries
  && Cache.num_sequences tabs <= Cache.max_fused_actions

let all_exact (tab : P4ir.Table.t) =
  List.for_all
    (fun (k : P4ir.Table.key) -> P4ir.Match_kind.equal k.kind P4ir.Match_kind.Exact)
    tab.keys

let fallback_compatible tabs = List.for_all all_exact tabs

(* --- pattern combination over the merged key --- *)

let to_ternary width (p : P4ir.Pattern.t) =
  match p with
  | P4ir.Pattern.Exact v ->
    P4ir.Pattern.Ternary (v, P4ir.Value.truncate ~width Int64.minus_one)
  | P4ir.Pattern.Lpm (v, len) ->
    P4ir.Pattern.Ternary (v, P4ir.Value.prefix_mask ~width ~prefix_len:len)
  | P4ir.Pattern.Ternary _ -> p
  | P4ir.Pattern.Range _ -> invalid_arg "Merge: range patterns are not mergeable"

(* Combine two ternary constraints on the same field; None = conflict. *)
let combine_ternary a b =
  match (a, b) with
  | P4ir.Pattern.Ternary (v1, m1), P4ir.Pattern.Ternary (v2, m2) ->
    let overlap = Int64.logand m1 m2 in
    if
      Int64.equal (Int64.logand v1 overlap) (Int64.logand v2 overlap)
    then
      Some
        (P4ir.Pattern.Ternary
           ( Int64.logor (Int64.logand v1 m1) (Int64.logand v2 m2),
             Int64.logor m1 m2 ))
    else None
  | _ -> None

let merged_key_fields tabs =
  List.sort_uniq P4ir.Field.compare
    (List.concat_map
       (fun (t : P4ir.Table.t) -> List.map (fun (k : P4ir.Table.key) -> k.field) t.keys)
       tabs)

(* One "pick" per covered table: either a concrete entry or a miss. *)
type pick = Hit of P4ir.Table.entry | Miss

let picks_per_table ~with_miss (tab : P4ir.Table.t) =
  let hits = List.map (fun e -> Hit e) tab.entries in
  if with_miss then Miss :: hits else hits

let rec cross = function
  | [] -> [ [] ]
  | choices :: rest ->
    let tails = cross rest in
    List.concat_map (fun c -> List.map (fun t -> c :: t) tails) choices

let action_of_pick (tab : P4ir.Table.t) = function
  | Hit e -> e.P4ir.Table.action
  | Miss -> tab.default_action

(* Fold one table's pick into the per-field constraint map. *)
let fold_constraints fields (tab : P4ir.Table.t) pick constraints =
  match pick with
  | Miss -> Some constraints
  | Hit e ->
    List.fold_left2
      (fun acc (k : P4ir.Table.key) p ->
        match acc with
        | None -> None
        | Some cs ->
          let width = P4ir.Field.width k.field in
          let tern = to_ternary width p in
          let idx =
            match List.find_index (P4ir.Field.equal k.field) fields with
            | Some i -> i
            | None -> invalid_arg "Merge: key field missing from merged key"
          in
          (match List.nth cs idx with
           | None -> Some (List.mapi (fun i c -> if i = idx then Some tern else c) cs)
           | Some existing -> (
             match combine_ternary existing tern with
             | Some combined ->
               Some (List.mapi (fun i c -> if i = idx then Some combined else c) cs)
             | None -> None)))
      (Some constraints) tab.keys e.patterns

let fused_name tabs picks =
  Profile.Counter_map.fuse
    (List.map2 (fun (t : P4ir.Table.t) p -> (t.name, action_of_pick t p)) tabs picks)

let fused_action tabs picks =
  let names = List.map2 action_of_pick tabs picks in
  let actions = List.map2 P4ir.Table.find_action_exn tabs names in
  let name = fused_name tabs picks in
  match actions with
  | [] -> invalid_arg "Merge.fused_action: no tables"
  | first :: rest ->
    List.fold_left (fun acc a -> P4ir.Action.concat name acc a) (P4ir.Action.rename name first) rest

let all_fused_actions tabs ~with_miss =
  let combos = cross (List.map (picks_per_table ~with_miss) tabs) in
  List.fold_left
    (fun acc picks ->
      let a = fused_action tabs picks in
      if List.exists (fun (b : P4ir.Action.t) -> String.equal b.name a.name) acc then acc
      else a :: acc)
    [] combos
  |> List.rev

(* Rank of each entry within its table's own resolution order (priority,
   then specificity, then insertion order): among co-matching entries the
   winner ranks highest; a miss ranks 0. Keyed by physical identity —
   picks hold the very entry values from [tab.entries]. *)
let entry_ranks (tab : P4ir.Table.t) =
  let spec (e : P4ir.Table.entry) =
    List.fold_left (fun acc p -> acc + P4ir.Pattern.specificity p) 0 e.patterns
  in
  let indexed = List.mapi (fun i e -> (i, e)) tab.entries in
  let cmp (ia, (a : P4ir.Table.entry)) (ib, (b : P4ir.Table.entry)) =
    match compare b.priority a.priority with
    | 0 -> ( match compare (spec b) (spec a) with 0 -> compare ia ib | c -> c)
    | c -> c
  in
  let sorted = List.sort cmp indexed in
  let n = List.length sorted in
  List.mapi (fun pos (_, e) -> (e, n - pos)) sorted

(* Distinct pick combinations can materialize the same pattern row (an
   exact hit forces the other table's looser overlapping row to the same
   values); only the highest-priority one is ever reachable, so emit
   just that. *)
let dedup_rows entries =
  List.rev
    (List.fold_left
       (fun acc (e : P4ir.Table.entry) ->
         match
           List.partition (fun (o : P4ir.Table.entry) -> o.patterns = e.patterns) acc
         with
         | [], _ -> e :: acc
         | [ old ], rest -> (if old.priority >= e.priority then old else e) :: rest
         | _ :: _ :: _, _ -> assert false)
       [] entries)

let build_entries tabs fields combos ~pattern_of_constraint =
  let ranked =
    List.map (fun (t : P4ir.Table.t) -> (entry_ranks t, List.length t.entries)) tabs
  in
  (* The merged priority encodes the per-table ranks lexicographically
     (earlier table = more significant digit), so the merged lookup
     resolves overlapping rows exactly as the sequential lookups did.
     Counting hits alone would tie two overlapping entries of a single
     original and leave the winner to the engine's tie-break. *)
  let priority_of picks =
    List.fold_left2
      (fun acc (ranks, size) pick ->
        let r = match pick with Miss -> 0 | Hit e -> List.assq e ranks in
        (acc * (size + 1)) + r)
      0 ranked picks
  in
  List.filter_map
    (fun picks ->
      if List.for_all (fun p -> p = Miss) picks then None
      else
        let init = List.map (fun _ -> None) fields in
        let constraints =
          List.fold_left2
            (fun acc tab pick ->
              match acc with None -> None | Some cs -> fold_constraints fields tab pick cs)
            (Some init) tabs picks
        in
        match constraints with
        | None -> None  (* conflicting constraints: unsatisfiable combo *)
        | Some cs ->
          let patterns = List.map2 pattern_of_constraint fields cs in
          Some (P4ir.Table.entry ~priority:(priority_of picks) patterns (fused_name tabs picks)))
    combos
  |> dedup_rows

let build_ternary ~name tabs =
  if not (mergeable tabs) then invalid_arg ("Merge.build_ternary: not mergeable: " ^ name);
  let fields = merged_key_fields tabs in
  let keys = List.map (fun f -> P4ir.Table.key f P4ir.Match_kind.Ternary) fields in
  let combos = cross (List.map (picks_per_table ~with_miss:true) tabs) in
  let entries =
    build_entries tabs fields combos ~pattern_of_constraint:(fun _field c ->
        match c with
        | Some tern -> tern
        | None -> P4ir.Pattern.wildcard P4ir.Match_kind.Ternary)
  in
  let actions = all_fused_actions tabs ~with_miss:true in
  let default = fused_name tabs (List.map (fun _ -> Miss) tabs) in
  P4ir.Table.make ~name ~keys ~actions ~default_action:default ~entries
    ~max_entries:(max 16 (List.length entries))
    ~role:(P4ir.Table.Merged (List.map (fun (t : P4ir.Table.t) -> t.name) tabs))
    ()

let build_fallback ~name tabs =
  if not (mergeable tabs) then invalid_arg ("Merge.build_fallback: not mergeable: " ^ name);
  if not (fallback_compatible tabs) then
    invalid_arg ("Merge.build_fallback: needs all-exact keys: " ^ name);
  let fields = merged_key_fields tabs in
  let keys = List.map (fun f -> P4ir.Table.key f P4ir.Match_kind.Exact) fields in
  let combos = cross (List.map (picks_per_table ~with_miss:false) tabs) in
  let entries =
    build_entries tabs fields combos ~pattern_of_constraint:(fun field c ->
        match c with
        | Some (P4ir.Pattern.Ternary (v, _)) -> P4ir.Pattern.Exact v
        | Some p -> p
        | None ->
          (* A merged key field not constrained by any hit entry: cannot
             represent in an exact key. *)
          invalid_arg
            (Printf.sprintf "Merge.build_fallback: field %s unconstrained"
               (P4ir.Field.to_string field)))
  in
  let actions = all_fused_actions tabs ~with_miss:false in
  let miss = P4ir.Action.nop "miss" in
  let capacity = max 16 (List.length entries) in
  P4ir.Table.make ~name ~keys
    ~actions:(actions @ [ miss ])
    ~default_action:"miss" ~entries ~max_entries:capacity
    ~role:
      (P4ir.Table.Cache
         { P4ir.Table.cached_tables = List.map (fun (t : P4ir.Table.t) -> t.name) tabs;
           capacity;
           insert_limit = 0.;
           auto_insert = false })
    ()
