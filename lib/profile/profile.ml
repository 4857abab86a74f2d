module Counter = Counter
module Counter_map = Counter_map
module SMap = Map.Make (String)

type table_stats = {
  action_probs : (string * float) list;
  update_rate : float;
  locality : float;
}

type cond_stats = { true_prob : float }

type t = {
  tables : table_stats SMap.t;
  conds : cond_stats SMap.t;
  default_hit : float;
}

let empty = { tables = SMap.empty; conds = SMap.empty; default_hit = 0.9 }

let default_cache_hit t = t.default_hit
let with_default_cache_hit h t = { t with default_hit = h }

let set_table name stats t = { t with tables = SMap.add name stats t.tables }
let set_cond name stats t = { t with conds = SMap.add name stats t.conds }
let table_stats t name = SMap.find_opt name t.tables
let cond_stats t name = SMap.find_opt name t.conds

let action_prob t ~(table : P4ir.Table.t) ~action =
  match SMap.find_opt table.P4ir.Table.name t.tables with
  | Some stats -> (
    match List.assoc_opt action stats.action_probs with
    | Some p -> p
    | None -> 0.)
  | None ->
    let n = List.length table.P4ir.Table.actions in
    if n = 0 then 0. else 1. /. float_of_int n

let drop_prob t (table : P4ir.Table.t) =
  List.fold_left
    (fun acc (a : P4ir.Action.t) ->
      if P4ir.Action.is_dropping a then acc +. action_prob t ~table ~action:a.name
      else acc)
    0. table.P4ir.Table.actions

let true_prob t ~cond_name =
  match SMap.find_opt cond_name t.conds with Some s -> s.true_prob | None -> 0.5

let update_rate t ~table_name =
  match SMap.find_opt table_name t.tables with Some s -> s.update_rate | None -> 0.

let locality t ~table_name =
  match SMap.find_opt table_name t.tables with
  | Some s when s.locality >= 0. -> Some s.locality
  | _ -> None

let cache_hit_estimate t ~table_names =
  let localities = List.filter_map (fun n -> locality t ~table_name:n) table_names in
  match localities with
  | [] -> t.default_hit
  | l -> List.fold_left min 1. l

let uniform prog =
  let t = ref empty in
  List.iter
    (fun (_, (tab : P4ir.Table.t)) ->
      let n = List.length tab.actions in
      let p = if n = 0 then 0. else 1. /. float_of_int n in
      let stats =
        { action_probs = List.map (fun (a : P4ir.Action.t) -> (a.name, p)) tab.actions;
          update_rate = 0.;
          locality = -1. }
      in
      t := set_table tab.name stats !t)
    (P4ir.Program.tables prog);
  List.iter
    (fun (_, (c : P4ir.Program.cond)) ->
      t := set_cond c.cond_name { true_prob = 0.5 } !t)
    (P4ir.Program.conds prog);
  !t

let of_counters ?(window = 1.0) prog counters =
  let t = ref empty in
  let cache_hit_rates = ref SMap.empty in
  (* First pass: per-table action probabilities and update rates. *)
  List.iter
    (fun (_, (tab : P4ir.Table.t)) ->
      let name = tab.name in
      let counts =
        List.map
          (fun (a : P4ir.Action.t) ->
            (a.name, Int64.to_float (Counter.get counters ~owner:name ~label:a.name)))
          tab.actions
      in
      let total = List.fold_left (fun acc (_, c) -> acc +. c) 0. counts in
      let action_probs =
        if total <= 0. then
          let n = List.length tab.actions in
          List.map (fun (a, _) -> (a, if n = 0 then 0. else 1. /. float_of_int n)) counts
        else List.map (fun (a, c) -> (a, c /. total)) counts
      in
      let updates = Counter.get counters ~owner:name ~label:"update" in
      let update_rate = Int64.to_float updates /. window in
      (match tab.role with
       | P4ir.Table.Cache meta when total > 0. ->
         (* Hit = any non-default action fired. *)
         let miss =
           match List.assoc_opt tab.default_action action_probs with
           | Some p -> p
           | None -> 0.
         in
         let hit = 1. -. miss in
         List.iter
           (fun orig ->
             cache_hit_rates :=
               SMap.add orig hit !cache_hit_rates)
           meta.cached_tables
       | _ -> ());
      t := set_table name { action_probs; update_rate; locality = -1. } !t)
    (P4ir.Program.tables prog);
  (* Second pass: fill observed locality back into covered tables. *)
  SMap.iter
    (fun orig hit ->
      match SMap.find_opt orig (!t).tables with
      | Some stats -> t := set_table orig { stats with locality = hit } !t
      | None ->
        t :=
          set_table orig { action_probs = []; update_rate = 0.; locality = hit } !t)
    !cache_hit_rates;
  List.iter
    (fun (_, (c : P4ir.Program.cond)) ->
      let tr = Int64.to_float (Counter.get counters ~owner:c.cond_name ~label:"true") in
      let fa = Int64.to_float (Counter.get counters ~owner:c.cond_name ~label:"false") in
      let total = tr +. fa in
      let true_prob = if total <= 0. then 0.5 else tr /. total in
      t := set_cond c.cond_name { true_prob } !t)
    (P4ir.Program.conds prog);
  !t

let pp fmt t =
  Format.fprintf fmt "@[<v>";
  SMap.iter
    (fun name stats ->
      Format.fprintf fmt "table %s: upd=%.1f/s loc=%.2f probs=[%s]@," name
        stats.update_rate stats.locality
        (String.concat "; "
           (List.map (fun (a, p) -> Printf.sprintf "%s:%.3f" a p) stats.action_probs)))
    t.tables;
  SMap.iter
    (fun name s -> Format.fprintf fmt "cond %s: P(true)=%.3f@," name s.true_prob)
    t.conds;
  Format.fprintf fmt "@]"
