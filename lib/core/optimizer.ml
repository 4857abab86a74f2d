type config = {
  top_k : float;
  budget : Costmodel.Resource.budget;
  candidate_opts : Candidate.options;
  max_pipelet_len : int;
  enable_groups : bool;
  use_greedy_global : bool;
}

let default_config =
  { top_k = 0.2;
    budget = Costmodel.Resource.default_budget;
    candidate_opts = Candidate.default_options;
    max_pipelet_len = 8;
    enable_groups = true;
    use_greedy_global = false }

type warm = {
  warm_cache : Search.eval_cache;
  warm_signature : Profile.t -> Hotspot.hot -> P4ir.Table.t list -> string;
}

type result = {
  program : P4ir.Program.t;
  plan : Search.plan;
  pipelets_total : int;
  pipelets_considered : int;
  cache_hits : int;
  cache_misses : int;
  search_seconds : float;
  elapsed_seconds : float;
}

let optimize ?(config = default_config) ?(generation = 0) ?warm ?(exclusions = [])
    ?telemetry target prof prog =
  let t0 = Sys.time () in
  let pipelets = Pipelet.form ~max_len:config.max_pipelet_len prog in
  let hots = Hotspot.rank target prof prog pipelets in
  let top = Hotspot.top_k ~fraction:config.top_k hots in
  let name_prefix = Printf.sprintf "__g%d" generation in
  let cache = Option.map (fun w -> w.warm_cache) warm in
  let signature = Option.map (fun w -> w.warm_signature prof) warm in
  let cache_before =
    match cache with Some c -> Search.cache_stats c | None -> (0, 0)
  in
  let candidates =
    Search.local_optimize ~opts:config.candidate_opts ~name_prefix ?cache ?signature
      ~exclusions target prof prog top
  in
  let cache_hits, cache_misses =
    match cache with
    | Some c ->
      let hits, misses = Search.cache_stats c in
      (hits - fst cache_before, misses - snd cache_before)
    | None -> (0, 0)
  in
  let headroom_mem =
    max 0 (config.budget.memory_bytes - Costmodel.Resource.program_memory target prog)
  in
  let headroom_upd =
    Float.max 0.
      (config.budget.updates_per_sec -. Costmodel.Resource.program_update_rate prof prog)
  in
  let plan =
    Search.global_optimize ~use_greedy:config.use_greedy_global ~budget:config.budget
      ~headroom_mem ~headroom_upd candidates
  in
  let plan =
    if config.enable_groups then
      Search.with_groups ~opts:config.candidate_opts ~name_prefix target prof prog
        ~candidates:(List.map (fun (h : Hotspot.hot) -> h.pipelet) top)
        ~chosen:plan
    else plan
  in
  let t_search = Sys.time () -. t0 in
  (* Apply upstream pipelets first: a pipelet's recorded exit may be the
     entry of a downstream chosen pipelet, which disappears when that
     pipelet is itself rewritten. *)
  let topo_index =
    let order = P4ir.Program.topological_order prog in
    let tbl = Hashtbl.create 64 in
    List.iteri (fun i id -> if not (Hashtbl.mem tbl id) then Hashtbl.add tbl id i) order;
    fun id -> match Hashtbl.find_opt tbl id with Some i -> i | None -> max_int
  in
  let ordered_choices =
    List.stable_sort
      (fun ((a : Hotspot.hot), _) ((b : Hotspot.hot), _) ->
        compare (topo_index a.pipelet.Pipelet.entry) (topo_index b.pipelet.Pipelet.entry))
      plan.choices
  in
  (* Group caches go in before the per-pipelet rewrites: a group's
     recorded [common_exit] is the entry of the pipelet just past the
     join, and that node disappears when the pipelet is itself rewritten.
     Group application only adds a node and redirects edges, so every id
     the pipelet rewrites rely on stays valid, and each later rewrite's
     redirect fixes up the cache's hit edges in turn. *)
  let optimized, group_applied =
    List.fold_left
      (fun (prog, applied) (ge : Group.evaluated) ->
        match Group.apply prog ge.group ~cache:ge.cache with
        | prog -> (prog, ge :: applied)
        | exception Invalid_argument _ -> (prog, applied))
      (prog, []) plan.group_choices
  in
  (* Materialize only the chosen combinations. Realization can still
     fail on pathological entry sets the analytic guards admitted; such a
     choice is simply skipped. *)
  let optimized, applied =
    List.fold_left
      (fun (prog, applied) ((hot : Hotspot.hot), (e : Candidate.evaluated)) ->
        let originals = Pipelet.tables prog hot.pipelet in
        let prefix = Printf.sprintf "%s_p%d" name_prefix hot.pipelet.Pipelet.entry in
        match
          Candidate.realize ~opts:config.candidate_opts ~name_prefix:prefix originals
            e.combo
        with
        | Some elements -> (
          match Transform.apply prog hot.pipelet elements with
          | prog -> (prog, (hot, e) :: applied)
          | exception Invalid_argument _ -> (prog, applied))
        | None | (exception Invalid_argument _) -> (prog, applied))
      (optimized, []) ordered_choices
  in
  let plan =
    { plan with
      Search.choices = List.rev applied;
      group_choices = List.rev group_applied }
  in
  (match telemetry with
   | Some tel when Telemetry.enabled tel ->
     let m = Telemetry.metrics tel in
     Telemetry.Metrics.inc (Telemetry.Metrics.counter m "optimizer.runs");
     Telemetry.Metrics.inc ~by:plan.Search.candidates_examined
       (Telemetry.Metrics.counter m "optimizer.candidates_examined");
     Telemetry.Metrics.inc ~by:cache_hits
       (Telemetry.Metrics.counter m "optimizer.cache.hit");
     Telemetry.Metrics.inc ~by:cache_misses
       (Telemetry.Metrics.counter m "optimizer.cache.miss");
     Telemetry.Metrics.set
       (Telemetry.Metrics.gauge m "optimizer.predicted_gain")
       plan.Search.predicted_gain;
     Telemetry.Histogram.record
       (Telemetry.Metrics.histogram m "optimizer.search_seconds")
       t_search;
     (match plan.Search.solver_stats with
      | Some (s : Knapsack.stats) ->
        Telemetry.Metrics.inc ~by:s.options_before
          (Telemetry.Metrics.counter m "optimizer.knapsack.options_before");
        Telemetry.Metrics.inc ~by:s.options_after
          (Telemetry.Metrics.counter m "optimizer.knapsack.options_after");
        Telemetry.Metrics.inc ~by:s.dp_cells
          (Telemetry.Metrics.counter m "optimizer.knapsack.dp_cells")
      | None -> ())
   | _ -> ());
  { program = optimized;
    plan;
    pipelets_total = List.length pipelets;
    pipelets_considered = List.length top;
    cache_hits;
    cache_misses;
    search_seconds = t_search;
    elapsed_seconds = Sys.time () -. t0 }

let describe r =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "pipelets=%d considered=%d gain=%.3f time=%.3fs\n" r.pipelets_total
       r.pipelets_considered r.plan.Search.predicted_gain r.elapsed_seconds);
  (match r.plan.Search.solver_stats with
   | Some (s : Knapsack.stats) ->
     Buffer.add_string buf
       (Printf.sprintf "  knapsack: options=%d pruned-to=%d dp-cells=%d\n"
          s.options_before s.options_after s.dp_cells)
   | None -> ());
  if r.cache_hits + r.cache_misses > 0 then
    Buffer.add_string buf
      (Printf.sprintf "  warm-cache: hits=%d misses=%d (%.0f%% hit rate)\n" r.cache_hits
         r.cache_misses
         (100. *. float_of_int r.cache_hits
         /. float_of_int (r.cache_hits + r.cache_misses)));
  List.iter
    (fun ((hot : Hotspot.hot), (e : Candidate.evaluated)) ->
      let kind_of = function
        | Candidate.Cache_seg -> "cache"
        | Candidate.Merge_ternary_seg -> "merge"
        | Candidate.Merge_fallback_seg -> "merge-fallback"
      in
      let segs =
        String.concat ","
          (List.map
             (fun (s : Candidate.seg) ->
               Printf.sprintf "%s[%d..%d]" (kind_of s.kind) s.pos (s.pos + s.len - 1))
             e.combo.Candidate.segs)
      in
      let reordered = e.combo.Candidate.order <> List.init (List.length e.combo.Candidate.order) Fun.id in
      Buffer.add_string buf
        (Printf.sprintf "  pipelet@%d: gain=%.3f mem=%+d upd=%+.1f %s%s\n"
           hot.pipelet.Pipelet.entry e.gain e.mem_delta e.update_delta
           (if segs = "" then "reorder-only" else segs)
           (if reordered then " (reordered)" else "")))
    r.plan.Search.choices;
  List.iter
    (fun (ge : Group.evaluated) ->
      Buffer.add_string buf
        (Printf.sprintf "  group@%d: cache=%s gain=%.3f\n" ge.group.Group.branch
           ge.cache.P4ir.Table.name ge.gain))
    r.plan.Search.group_choices;
  Buffer.contents buf
