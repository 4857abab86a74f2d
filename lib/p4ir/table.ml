type key = { field : Field.t; kind : Match_kind.t }

type entry = { patterns : Pattern.t list; action : string; priority : int }

type cache_meta = {
  cached_tables : string list;
  capacity : int;
  insert_limit : float;
  auto_insert : bool;
}

type role =
  | Regular
  | Cache of cache_meta
  | Merged of string list
  | Navigation
  | Migration

type t = {
  name : string;
  keys : key list;
  actions : Action.t list;
  default_action : string;
  entries : entry list;
  max_entries : int;
  role : role;
}

let key field kind = { field; kind }

let find_action t name =
  List.find_opt (fun (a : Action.t) -> String.equal a.name name) t.actions

let find_action_exn t name =
  match find_action t name with
  | Some a -> a
  | None -> invalid_arg (Printf.sprintf "Table %s: unknown action %s" t.name name)

let entry ?(priority = 0) patterns action = { patterns; action; priority }

let check_entry t e =
  if List.length e.patterns <> List.length t.keys then
    invalid_arg
      (Printf.sprintf "Table %s: entry has %d patterns for %d keys" t.name
         (List.length e.patterns) (List.length t.keys));
  List.iter2
    (fun k p ->
      (* Exact keys admit only exact patterns; complex keys admit their own
         kind (wildcards included). *)
      let pk = Pattern.kind p in
      if not (Match_kind.equal pk k.kind) then
        invalid_arg
          (Printf.sprintf "Table %s: %s pattern given for %s key on %s" t.name
             (Match_kind.to_string pk) (Match_kind.to_string k.kind)
             (Field.to_string k.field)))
    t.keys e.patterns;
  if find_action t e.action = None then
    invalid_arg (Printf.sprintf "Table %s: entry uses unknown action %s" t.name e.action)

let make ?(entries = []) ?(max_entries = 1024) ?(role = Regular) ~name ~keys
    ~actions ~default_action () =
  let t = { name; keys; actions; default_action; entries = []; max_entries; role } in
  if find_action t default_action = None then
    invalid_arg (Printf.sprintf "Table %s: unknown default action %s" name default_action);
  List.iter (check_entry t) entries;
  { t with entries }

let add_entry t e =
  check_entry t e;
  { t with entries = t.entries @ [ e ] }

let num_entries t = List.length t.entries

let match_kinds t =
  List.sort_uniq Match_kind.compare (List.map (fun k -> k.kind) t.keys)

let effective_kind t =
  let kinds = match_kinds t in
  if List.mem Match_kind.Ternary kinds then Match_kind.Ternary
  else if List.mem Match_kind.Range kinds then Match_kind.Range
  else if List.mem Match_kind.Lpm kinds then Match_kind.Lpm
  else Match_kind.Exact

let distinct_shapes ~shape t =
  let shapes = List.map (fun e -> List.map shape e.patterns) t.entries in
  max 1 (List.length (List.sort_uniq compare shapes))

let distinct_lpm_lengths t =
  distinct_shapes t ~shape:(function
    | Pattern.Lpm (_, len) -> len
    | Pattern.Exact _ -> -1
    | Pattern.Ternary (_, m) -> Int64.to_int (Int64.logand m 0xFFFFL) (* rare mix *)
    | Pattern.Range _ -> -2)

let distinct_ternary_masks t =
  distinct_shapes t ~shape:(function
    | Pattern.Ternary (_, mask) -> mask
    | Pattern.Exact _ -> -1L
    | Pattern.Lpm (_, len) -> Int64.of_int len
    | Pattern.Range _ -> -2L)

let dedup fields = List.sort_uniq Field.compare fields

let reads_of t =
  dedup
    (List.map (fun k -> k.field) t.keys
    @ List.concat_map Action.reads_of t.actions)

let writes_of t = dedup (List.concat_map Action.writes_of t.actions)

let entry_matches t read e =
  List.for_all2
    (fun k p -> Pattern.matches ~width:(Field.width k.field) p (read k.field))
    t.keys e.patterns

let entry_specificity e =
  List.fold_left (fun acc p -> acc + Pattern.specificity p) 0 e.patterns

let lookup t read =
  let candidates = List.filter (entry_matches t read) t.entries in
  match candidates with
  | [] -> None
  | _ ->
    (* Highest priority wins; ties broken by total pattern specificity,
       then by insertion order (stable sort keeps earlier entries first). *)
    let cmp a b =
      match compare b.priority a.priority with
      | 0 -> compare (entry_specificity b) (entry_specificity a)
      | c -> c
    in
    (match List.stable_sort cmp candidates with
     | best :: _ -> Some best
     | [] -> None)

let rename name t = { t with name }

let pp_key fmt k =
  Format.fprintf fmt "%a:%a" Field.pp k.field Match_kind.pp k.kind

let pp fmt t =
  Format.fprintf fmt "@[<v 2>table %s {@ keys = [%a]@ actions = [%a]@ default = %s@ entries = %d@]@ }"
    t.name
    (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f "; ") pp_key)
    t.keys
    (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f "; ")
       (fun f (a : Action.t) -> Format.pp_print_string f a.name))
    t.actions t.default_action (num_entries t)
