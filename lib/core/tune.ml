type value = Int of int | Float of float

type domain = Ints of int list | Floats of float list

type param = {
  key : string;
  doc : string;
  domain : domain;
  default : value;
}

let params =
  [ { key = "candidate.cache_entries";
      doc = "provisioned capacity of generated cache tables";
      domain = Ints [ 512; 1024; 2048; 4096; 8192 ];
      default = Int 4096 };
    { key = "candidate.max_merge_len";
      doc = "max tables folded into one merge segment";
      domain = Ints [ 1; 2; 3 ];
      default = Int 2 };
    { key = "optimizer.max_pipelet_len";
      doc = "pipelet formation length cap";
      domain = Ints [ 4; 6; 8; 10 ];
      default = Int 8 };
    { key = "optimizer.top_k";
      doc = "fraction of hot pipelets searched (1.0 = ESearch)";
      domain = Floats [ 0.1; 0.2; 0.5; 1.0 ];
      default = Float 0.2 } ]

let find_param key = List.find_opt (fun p -> p.key = key) params

let domain_values = function
  | Ints l -> List.map (fun v -> Int v) l
  | Floats l -> List.map (fun v -> Float v) l

let value_equal a b =
  match (a, b) with
  | Int x, Int y -> x = y
  | Float x, Float y -> Float.equal x y
  | _ -> false

let in_domain dom v = List.exists (value_equal v) (domain_values dom)

(* Key-sorted (as {!params} is), total over {!params}. *)
type assignment = (string * value) list

let default_assignment = List.map (fun p -> (p.key, p.default)) params

let to_list a = a

let lookup a key = List.assoc_opt key a

let get a key =
  match lookup a key with
  | Some v -> v
  | None -> invalid_arg (Printf.sprintf "Tune.get: unregistered param %S" key)

let get_int a key =
  match get a key with
  | Int v -> v
  | _ -> invalid_arg (Printf.sprintf "Tune.get_int: %S is not an int" key)

let get_float a key =
  match get a key with
  | Float v -> v
  | Int v -> float_of_int v

let set a key v =
  match find_param key with
  | None -> invalid_arg (Printf.sprintf "Tune.set: unregistered param %S" key)
  | Some p ->
    if not (in_domain p.domain v) then
      invalid_arg (Printf.sprintf "Tune.set: value out of domain for %S" key);
    List.map (fun (k, v0) -> if k = key then (k, v) else (k, v0)) a

let value_to_string = function
  | Int v -> string_of_int v
  | Float v -> Printf.sprintf "%g" v

let fingerprint a =
  String.concat ";"
    (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k (value_to_string v)) a)

let equal a b =
  List.length a = List.length b
  && List.for_all2 (fun (ka, va) (kb, vb) -> ka = kb && value_equal va vb) a b

let candidate_salt a =
  String.concat ";"
    (List.filter_map
       (fun (k, v) ->
         if String.length k >= 10 && String.sub k 0 10 = "candidate." then
           Some (Printf.sprintf "%s=%s" k (value_to_string v))
         else None)
       a)

let apply_candidate a (o : Candidate.options) =
  let o =
    match lookup a "candidate.max_merge_len" with
    | Some (Int v) -> { o with Candidate.max_merge_len = v }
    | _ -> o
  in
  match lookup a "candidate.cache_entries" with
  | Some (Int v) -> { o with Candidate.cache_capacity = v }
  | _ -> o

let apply_optimizer a (c : Optimizer.config) =
  let c = { c with Optimizer.candidate_opts = apply_candidate a c.candidate_opts } in
  let c =
    match lookup a "optimizer.top_k" with
    | Some (Float v) -> { c with Optimizer.top_k = v }
    | Some (Int v) -> { c with Optimizer.top_k = float_of_int v }
    | _ -> c
  in
  match lookup a "optimizer.max_pipelet_len" with
  | Some (Int v) -> { c with Optimizer.max_pipelet_len = v }
  | _ -> c

type objectives = { latency : float; memory : int; update_rate : float }

type point = {
  assignment : assignment;
  objectives : objectives;
  within_budget : bool;
  predicted_gain : float;
}

let dominates a b =
  a.latency <= b.latency && a.memory <= b.memory && a.update_rate <= b.update_rate
  && (a.latency < b.latency || a.memory < b.memory || a.update_rate < b.update_rate)

let pareto points =
  (* dedup by fingerprint first so identical assignments cannot shadow
     each other, then keep the non-dominated subset in first-seen order *)
  let seen = Hashtbl.create 16 in
  let uniq =
    List.filter
      (fun p ->
        let fp = fingerprint p.assignment in
        if Hashtbl.mem seen fp then false
        else begin
          Hashtbl.add seen fp ();
          true
        end)
      points
  in
  List.filter
    (fun p ->
      not
        (List.exists
           (fun q -> q != p && dominates q.objectives p.objectives)
           uniq))
    uniq

type explore_stats = {
  evaluated : int;
  front_size : int;
  cache_hits : int;
  cache_misses : int;
  explore_seconds : float;
}

type exploration = {
  front : point list;
  chosen : point;
  start_point : point;
  stats : explore_stats;
}

(* Plan-only evaluation of one assignment: run the per-pipelet search
   and the global knapsack under the assignment's options, but realize
   nothing. Latency is the program's expected latency minus the plan's
   predicted gain; memory / update rate add the plan's deltas to the
   program's own consumption — the same accounting the knapsack
   budgets. Group caching is skipped (it materializes tables). *)
let evaluate_point ?warm ~(config : Optimizer.config) target prof prog ~base asg =
  let base_latency, base_mem, base_upd = base in
  let cfg = apply_optimizer asg config in
  let pipelets = Pipelet.form ~max_len:cfg.Optimizer.max_pipelet_len prog in
  let hots = Hotspot.rank target prof prog pipelets in
  let top = Hotspot.top_k ~fraction:cfg.Optimizer.top_k hots in
  let cache = Option.map (fun (w : Optimizer.warm) -> w.warm_cache) warm in
  let signature =
    Option.map
      (fun (w : Optimizer.warm) hot tabs ->
        w.Optimizer.warm_signature prof hot tabs ^ "|tune:" ^ candidate_salt asg)
      warm
  in
  let candidates =
    Search.local_optimize ~opts:cfg.Optimizer.candidate_opts ?cache ?signature target
      prof prog top
  in
  let headroom_mem = max 0 (cfg.Optimizer.budget.memory_bytes - base_mem) in
  let headroom_upd = Float.max 0. (cfg.Optimizer.budget.updates_per_sec -. base_upd) in
  let plan =
    Search.global_optimize ~use_greedy:cfg.Optimizer.use_greedy_global ~headroom_mem
      ~headroom_upd candidates
  in
  let mem =
    base_mem
    + List.fold_left
        (fun acc (_, (e : Candidate.evaluated)) -> acc + e.mem_delta)
        0 plan.Search.choices
  in
  let upd =
    base_upd
    +. List.fold_left
         (fun acc (_, (e : Candidate.evaluated)) -> acc +. e.update_delta)
         0. plan.Search.choices
  in
  { assignment = asg;
    objectives =
      { latency = base_latency -. plan.Search.predicted_gain;
        memory = mem;
        update_rate = upd };
    within_budget = Costmodel.Resource.within cfg.Optimizer.budget ~memory:mem ~updates:upd;
    predicted_gain = plan.Search.predicted_gain }

let neighbors ~radius a =
  List.concat_map
    (fun p ->
      let dom = domain_values p.domain in
      let n = List.length dom in
      let cur = get a p.key in
      let idx =
        let rec find i = function
          | [] -> 0
          | v :: tl -> if value_equal v cur then i else find (i + 1) tl
        in
        find 0 dom
      in
      List.concat_map
        (fun d ->
          List.filter_map
            (fun i ->
              if i >= 0 && i < n && i <> idx then Some (set a p.key (List.nth dom i))
              else None)
            [ idx - d; idx + d ])
        (List.init radius (fun i -> i + 1)))
    params

let point_order a b =
  let c = compare a.objectives.latency b.objectives.latency in
  if c <> 0 then c
  else
    let c = compare a.objectives.memory b.objectives.memory in
    if c <> 0 then c
    else
      let c = compare a.objectives.update_rate b.objectives.update_rate in
      if c <> 0 then c
      else compare (fingerprint a.assignment) (fingerprint b.assignment)

let explore ?(budget = 32) ?(radius = 1) ?warm ?(config = Optimizer.default_config) target prof
    prog =
  let start = default_assignment in
  let t0 = Sys.time () in
  let base =
    ( Costmodel.Cost.expected_latency target prof prog,
      Costmodel.Resource.program_memory target prog,
      Costmodel.Resource.program_update_rate prof prog )
  in
  let cache = Option.map (fun (w : Optimizer.warm) -> w.warm_cache) warm in
  let hits0, misses0 =
    match cache with Some c -> Search.cache_stats c | None -> (0, 0)
  in
  let seen = Hashtbl.create 64 in
  Hashtbl.add seen (fingerprint start) ();
  (* Deterministic breadth-first sweep: evaluate the head of the queue,
     enqueue its unseen single-param neighbors (key order, nearest
     first), stop at [budget] evaluations. *)
  let rec sweep acc queue n =
    match queue with
    | [] -> List.rev acc
    | _ when n >= budget -> List.rev acc
    | a :: rest ->
      let p = evaluate_point ?warm ~config target prof prog ~base a in
      let fresh =
        List.filter
          (fun nb ->
            let fp = fingerprint nb in
            if Hashtbl.mem seen fp then false
            else begin
              Hashtbl.add seen fp ();
              true
            end)
          (neighbors ~radius a)
      in
      sweep (p :: acc) (rest @ fresh) (n + 1)
  in
  let points = sweep [] [ start ] 0 in
  let start_point =
    match points with
    | p :: _ -> p (* the start assignment is always evaluated first *)
    | [] -> assert false
  in
  let front = pareto points in
  let feasible = List.filter (fun p -> p.within_budget) points in
  let pool = if feasible = [] then points else feasible in
  let chosen =
    match List.sort point_order pool with p :: _ -> p | [] -> assert false
  in
  let hits1, misses1 =
    match cache with Some c -> Search.cache_stats c | None -> (0, 0)
  in
  let stats =
    { evaluated = List.length points;
      front_size = List.length front;
      cache_hits = hits1 - hits0;
      cache_misses = misses1 - misses0;
      explore_seconds = Sys.time () -. t0 }
  in
  { front; chosen; start_point; stats }

let describe { front; chosen; start_point = _; stats } =
  let buf = Buffer.create 256 in
  List.iter
    (fun p ->
      Buffer.add_string buf
        (Printf.sprintf "%c lat=%.4f mem=%d upd=%.1f gain=%.4f%s %s\n"
           (if equal p.assignment chosen.assignment then '*' else ' ')
           p.objectives.latency p.objectives.memory p.objectives.update_rate
           p.predicted_gain
           (if p.within_budget then "" else " over-budget")
           (fingerprint p.assignment)))
    front;
  Buffer.add_string buf
    (Printf.sprintf "chosen: lat=%.4f mem=%d upd=%.1f %s\n" chosen.objectives.latency
       chosen.objectives.memory chosen.objectives.update_rate
       (fingerprint chosen.assignment));
  Buffer.add_string buf
    (Printf.sprintf "evaluated=%d front=%d cache hits=%d misses=%d time=%.3fs\n"
       stats.evaluated stats.front_size stats.cache_hits stats.cache_misses
       stats.explore_seconds);
  Buffer.contents buf
