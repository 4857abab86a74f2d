module IntMap = Map.Make (Int)

type node_id = int
type next = node_id option

type cmp = Eq | Neq | Lt | Gt | Le | Ge

type cond = {
  cond_name : string;
  field : Field.t;
  op : cmp;
  arg : Value.t;
  on_true : next;
  on_false : next;
}

type table_next = Uniform of next | Per_action of (string * next) list

type node = Table of Table.t * table_next | Cond of cond

type t = {
  prog_name : string;
  nodes : node IntMap.t;
  prog_root : next;
  fresh : int;
}

let empty name = { prog_name = name; nodes = IntMap.empty; prog_root = None; fresh = 0 }
let name t = t.prog_name
let root t = t.prog_root
let with_root t r = { t with prog_root = r }

let add_node t node =
  let id = t.fresh in
  ({ t with nodes = IntMap.add id node t.nodes; fresh = id + 1 }, id)

let set_node t id node =
  if not (IntMap.mem id t.nodes) then
    invalid_arg (Printf.sprintf "Program.set_node: unknown id %d" id);
  { t with nodes = IntMap.add id node t.nodes }

let remove_node t id = { t with nodes = IntMap.remove id t.nodes }

let find t id = IntMap.find_opt id t.nodes

let find_exn t id =
  match find t id with
  | Some n -> n
  | None -> invalid_arg (Printf.sprintf "Program.find_exn: unknown id %d" id)

let node_ids t = List.map fst (IntMap.bindings t.nodes)
let num_nodes t = IntMap.cardinal t.nodes

let table_of t id =
  match find t id with Some (Table (tab, _)) -> Some tab | _ -> None

let find_table t tname =
  IntMap.fold
    (fun id node acc ->
      match (acc, node) with
      | Some _, _ -> acc
      | None, Table (tab, _) when String.equal tab.Table.name tname -> Some (id, tab)
      | None, _ -> None)
    t.nodes None

type edge_label = Cond_true | Cond_false | Action_fired of string

let out_edges t id =
  match find t id with
  | None -> []
  | Some (Table (_, Uniform nxt)) -> [ (None, nxt) ]
  | Some (Table (_, Per_action branches)) ->
    List.map (fun (a, nxt) -> (Some (Action_fired a), nxt)) branches
  | Some (Cond c) -> [ (Some Cond_true, c.on_true); (Some Cond_false, c.on_false) ]

let successors t id =
  out_edges t id
  |> List.filter_map snd
  |> List.sort_uniq compare
  |> List.map Option.some

let eval_cond c v =
  let cmp = Int64.unsigned_compare v c.arg in
  match c.op with
  | Eq -> cmp = 0
  | Neq -> cmp <> 0
  | Lt -> cmp < 0
  | Gt -> cmp > 0
  | Le -> cmp <= 0
  | Ge -> cmp >= 0

let redirect_next ~old_target ~new_target = function
  | Some id when id = old_target -> new_target
  | n -> n

let redirect t ~old_target ~new_target =
  let fix = redirect_next ~old_target ~new_target in
  let nodes =
    IntMap.map
      (function
        | Table (tab, Uniform nxt) -> Table (tab, Uniform (fix nxt))
        | Table (tab, Per_action branches) ->
          Table (tab, Per_action (List.map (fun (a, nxt) -> (a, fix nxt)) branches))
        | Cond c -> Cond { c with on_true = fix c.on_true; on_false = fix c.on_false })
      t.nodes
  in
  { t with nodes; prog_root = fix t.prog_root }

let predecessors t id =
  IntMap.fold
    (fun src _ acc ->
      let points_here =
        List.exists (fun (_, nxt) -> nxt = Some id) (out_edges t src)
      in
      if points_here then src :: acc else acc)
    t.nodes []
  |> List.rev

let topological_order t =
  let indegree = Hashtbl.create 16 in
  IntMap.iter (fun id _ -> Hashtbl.replace indegree id 0) t.nodes;
  IntMap.iter
    (fun src _ ->
      List.iter
        (fun (_, nxt) ->
          match nxt with
          | Some dst when IntMap.mem dst t.nodes ->
            Hashtbl.replace indegree dst (Hashtbl.find indegree dst + 1)
          | _ -> ())
        (out_edges t src))
    t.nodes;
  let queue = Queue.create () in
  Hashtbl.iter (fun id d -> if d = 0 then Queue.add id queue) indegree;
  let order = ref [] in
  let seen = ref 0 in
  while not (Queue.is_empty queue) do
    let id = Queue.pop queue in
    incr seen;
    order := id :: !order;
    List.iter
      (fun (_, nxt) ->
        match nxt with
        | Some dst when IntMap.mem dst t.nodes ->
          let d = Hashtbl.find indegree dst - 1 in
          Hashtbl.replace indegree dst d;
          if d = 0 then Queue.add dst queue
        | _ -> ())
      (out_edges t id)
  done;
  if !seen <> IntMap.cardinal t.nodes then
    invalid_arg "Program.topological_order: graph has a cycle";
  (* Queue-based Kahn over an IntMap visits lowest ids first, but we sort by
     topological rank which the reversed accumulation already encodes. *)
  List.rev !order

let reachable t =
  let visited = Hashtbl.create 16 in
  let order = ref [] in
  let rec visit = function
    | None -> ()
    | Some id ->
      if not (Hashtbl.mem visited id) then begin
        Hashtbl.add visited id ();
        order := id :: !order;
        List.iter (fun (_, nxt) -> visit nxt) (out_edges t id)
      end
  in
  visit t.prog_root;
  List.rev !order

let gc t =
  let live = Hashtbl.create 16 in
  List.iter (fun id -> Hashtbl.replace live id ()) (reachable t);
  { t with
    nodes =
      IntMap.filter (fun id _ -> Hashtbl.mem live id) t.nodes }

let tables t =
  let topo = try topological_order t with Invalid_argument _ -> node_ids t in
  List.filter_map
    (fun id -> match find t id with Some (Table (tab, _)) -> Some (id, tab) | _ -> None)
    topo

let conds t =
  let topo = try topological_order t with Invalid_argument _ -> node_ids t in
  List.filter_map
    (fun id -> match find t id with Some (Cond c) -> Some (id, c) | _ -> None)
    topo

let map_tables t f =
  let nodes =
    IntMap.mapi
      (fun id node ->
        match node with Table (tab, nxt) -> Table (f id tab, nxt) | Cond _ -> node)
      t.nodes
  in
  { t with nodes }

let update_table t id f =
  match find t id with
  | Some (Table (tab, nxt)) -> set_node t id (Table (f tab, nxt))
  | Some (Cond _) -> invalid_arg (Printf.sprintf "update_table: node %d is a branch" id)
  | None -> invalid_arg (Printf.sprintf "update_table: unknown id %d" id)

type path = { path_nodes : node_id list; path_labels : edge_label option list }

let enumerate_paths ?(limit = 100_000) t =
  let count = ref 0 in
  let rec walk nodes labels = function
    | None ->
      incr count;
      if !count > limit then invalid_arg "Program.enumerate_paths: too many paths";
      [ { path_nodes = List.rev nodes; path_labels = List.rev labels } ]
    | Some id ->
      let edges = out_edges t id in
      List.concat_map (fun (label, nxt) -> walk (id :: nodes) (label :: labels) nxt) edges
  in
  walk [] [] t.prog_root

let validate t =
  let ( let* ) r f = Result.bind r f in
  let check cond msg = if cond then Ok () else Error msg in
  let ids_exist =
    IntMap.fold
      (fun src node acc ->
        let* () = acc in
        let targets = List.filter_map snd (out_edges t src) in
        let* () =
          List.fold_left
            (fun acc dst ->
              let* () = acc in
              check (IntMap.mem dst t.nodes)
                (Printf.sprintf "node %d references missing node %d" src dst))
            (Ok ()) targets
        in
        match node with
        | Table (tab, Per_action branches) ->
          let branch_names = List.sort compare (List.map fst branches) in
          let action_names =
            List.sort compare (List.map (fun (a : Action.t) -> a.name) tab.Table.actions)
          in
          check (branch_names = action_names)
            (Printf.sprintf "switch-case table %s branches do not cover its actions"
               tab.Table.name)
        | _ -> Ok ())
      t.nodes (Ok ())
  in
  let* () = ids_exist in
  let* () =
    match t.prog_root with
    | None -> Ok ()
    | Some r -> check (IntMap.mem r t.nodes) "root references a missing node"
  in
  let* () =
    match topological_order t with
    | _ -> Ok ()
    | exception Invalid_argument _ -> Error "graph has a cycle"
  in
  let* () =
    let reach = List.length (reachable t) in
    check (reach = IntMap.cardinal t.nodes)
      (Printf.sprintf "%d of %d nodes unreachable from root"
         (IntMap.cardinal t.nodes - reach) (IntMap.cardinal t.nodes))
  in
  let names = List.map (fun (_, (tab : Table.t)) -> tab.name) (tables t) in
  check (List.length names = List.length (List.sort_uniq compare names))
    "duplicate table names"

let validate_exn t =
  match validate t with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Program.validate: " ^ msg)

let linear pname tabs =
  let prog = empty pname in
  let prog, rev_ids =
    List.fold_left
      (fun (prog, acc) tab ->
        let prog, id = add_node prog (Table (tab, Uniform None)) in
        (prog, id :: acc))
      (prog, []) tabs
  in
  let ids = List.rev rev_ids in
  let rec link prog = function
    | a :: (b :: _ as rest) ->
      let prog =
        match find_exn prog a with
        | Table (tab, Uniform _) -> set_node prog a (Table (tab, Uniform (Some b)))
        | node -> set_node prog a node
      in
      link prog rest
    | _ -> prog
  in
  let prog = link prog ids in
  match ids with [] -> prog | first :: _ -> with_root prog (Some first)

let pp fmt t =
  Format.fprintf fmt "@[<v 2>program %s (root=%s) {@," t.prog_name
    (match t.prog_root with None -> "sink" | Some id -> string_of_int id);
  IntMap.iter
    (fun id node ->
      match node with
      | Table (tab, Uniform nxt) ->
        Format.fprintf fmt "%d: table %s -> %s@," id tab.Table.name
          (match nxt with None -> "sink" | Some n -> string_of_int n)
      | Table (tab, Per_action branches) ->
        Format.fprintf fmt "%d: switch table %s -> {%s}@," id tab.Table.name
          (String.concat "; "
             (List.map
                (fun (a, nxt) ->
                  a ^ ":" ^ match nxt with None -> "sink" | Some n -> string_of_int n)
                branches))
      | Cond c ->
        Format.fprintf fmt "%d: if %s(%a) then %s else %s@," id c.cond_name Field.pp
          c.field
          (match c.on_true with None -> "sink" | Some n -> string_of_int n)
          (match c.on_false with None -> "sink" | Some n -> string_of_int n))
    t.nodes;
  Format.fprintf fmt "}@]"
