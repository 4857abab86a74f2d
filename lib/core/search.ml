type pipelet_candidates = {
  hot : Hotspot.hot;
  evaluated : Candidate.evaluated list;
}

type plan = {
  choices : (Hotspot.hot * Candidate.evaluated) list;
  group_choices : Group.evaluated list;
  predicted_gain : float;
  candidates_examined : int;
  solver_stats : Knapsack.stats option;
}

(* The warm cache may be shared across controllers living on different
   domains (a fleet's NICs running the same program warm-start each
   other), so every table access holds the mutex. Contention is cold-path
   only: probes happen once per pipelet per optimization round, never per
   packet. Values are safe to share unboxed — evaluation is pure, and by
   the signature contract two entries under the same key are identical.

   Probes are single-flight: the first prober of a key marks it
   [Pending] and evaluates; a concurrent prober of the same key waits
   for that result and counts a hit. So however the domains interleave,
   each key costs one miss, and the hit/miss counts match a one-domain
   run. *)
type slot = Ready of Candidate.evaluated list | Pending

type eval_cache = {
  tbl : (string, slot) Hashtbl.t;
  lock : Mutex.t;
  filled : Condition.t;
  mutable hits : int;
  mutable misses : int;
}

let create_cache () =
  { tbl = Hashtbl.create 64;
    lock = Mutex.create ();
    filled = Condition.create ();
    hits = 0;
    misses = 0 }

let cache_stats c = Mutex.protect c.lock (fun () -> (c.hits, c.misses))

(* Bound the warm cache; a controller that sees endlessly-churning
   profiles would otherwise grow it without limit. A reset also drops
   [Pending] marks; their waiters then probe afresh. *)
let cache_capacity = 8192

let cache_store c key evaluated =
  Mutex.protect c.lock (fun () ->
      if Hashtbl.length c.tbl >= cache_capacity then Hashtbl.reset c.tbl;
      Hashtbl.replace c.tbl key (Ready evaluated);
      Condition.broadcast c.filled)

(* Give up a [Pending] mark without a result (the evaluation raised). *)
let cache_abandon c key =
  Mutex.protect c.lock (fun () ->
      (match Hashtbl.find_opt c.tbl key with
       | Some Pending -> Hashtbl.remove c.tbl key
       | Some (Ready _) | None -> ());
      Condition.broadcast c.filled)

type exclusion = string * Candidate.seg_kind

let kind_tag = function
  | Candidate.Cache_seg -> "c"
  | Candidate.Merge_ternary_seg -> "m"
  | Candidate.Merge_fallback_seg -> "f"

(* The exclusions that can affect this pipelet, rendered canonically.
   Appended to the warm-cache key so evaluations computed under one
   blacklist are never replayed under another; exclusions on unrelated
   tables leave the key — and thus the cached evaluations — untouched. *)
let exclusion_key exclusions (originals : P4ir.Table.t list) =
  match exclusions with
  | [] -> ""
  | _ ->
    let relevant =
      List.filter
        (fun (name, _) ->
          List.exists (fun (t : P4ir.Table.t) -> String.equal t.name name) originals)
        exclusions
    in
    if relevant = [] then ""
    else
      let rendered =
        List.sort_uniq compare
          (List.map (fun (name, kind) -> name ^ ":" ^ kind_tag kind) relevant)
      in
      "|x=" ^ String.concat ";" rendered

let combo_allowed exclusions (originals : P4ir.Table.t list) (combo : Candidate.combo) =
  match exclusions with
  | [] -> true
  | _ ->
    let names = Array.of_list (List.map (fun (t : P4ir.Table.t) -> t.name) originals) in
    let order = Array.of_list combo.order in
    not
      (List.exists
         (fun (s : Candidate.seg) ->
           let banned i =
             let name = names.(order.(i)) in
             List.exists
               (fun (n, k) -> k = s.kind && String.equal n name)
               exclusions
           in
           let rec any i = i < s.pos + s.len && (banned i || any (i + 1)) in
           any s.pos)
         combo.segs)

let evaluate_pipelet ?opts ?(exclusions = []) target prof ~reach_prob originals =
  let combos = Candidate.enumerate ?opts prof originals in
  let combos = List.filter (combo_allowed exclusions originals) combos in
  (* Analytic evaluation only: materializing candidate tables (cross
     products!) happens once, for the chosen combination. *)
  let ctx = Candidate.context ?opts target prof ~reach_prob originals in
  List.filter_map
    (fun combo ->
      match Candidate.evaluate_analytic ctx combo with
      | Some e when e.Candidate.gain > 0. -> Some e
      | _ -> None)
    combos

(* [None] is a miss that leaves [k] marked [Pending]: the caller must
   [cache_store] or [cache_abandon] it. *)
let cache_probe cache key =
  match (cache, key) with
  | Some c, Some k ->
    Mutex.protect c.lock (fun () ->
        let rec probe () =
          match Hashtbl.find_opt c.tbl k with
          | Some (Ready ev) ->
            c.hits <- c.hits + 1;
            Some ev
          | Some Pending ->
            Condition.wait c.filled c.lock;
            probe ()
          | None ->
            c.misses <- c.misses + 1;
            Hashtbl.replace c.tbl k Pending;
            None
        in
        probe ())
  | _ -> None

let local_optimize ?opts ?cache ?signature ?(exclusions = []) target prof prog hots =
  List.map
    (fun (hot : Hotspot.hot) ->
      let originals = Pipelet.tables prog hot.pipelet in
      let key =
        Option.map
          (fun sign -> sign hot originals ^ exclusion_key exclusions originals)
          signature
      in
      let evaluated =
        match cache_probe cache key with
        | Some ev -> ev
        | None -> (
          let evaluate () =
            evaluate_pipelet ?opts ~exclusions target prof ~reach_prob:hot.reach_prob
              originals
          in
          match (cache, key) with
          | Some c, Some k -> (
            match evaluate () with
            | ev ->
              cache_store c k ev;
              ev
            | exception e ->
              cache_abandon c k;
              raise e)
          | _ -> evaluate ())
      in
      { hot; evaluated })
    hots

let global_optimize ?(use_greedy = false) ~headroom_mem ~headroom_upd candidates =
  let groups =
    List.map
      (fun pc ->
        List.mapi
          (fun i (e : Candidate.evaluated) ->
            { Knapsack.gain = e.gain; mem = e.mem_delta; upd = e.update_delta; tag = i })
          pc.evaluated)
      candidates
  in
  let solution, solver_stats =
    if use_greedy then
      (Knapsack.greedy ~groups ~mem_budget:headroom_mem ~upd_budget:headroom_upd, None)
    else
      let sol, stats =
        Knapsack.solve_stats ~groups ~mem_budget:headroom_mem ~upd_budget:headroom_upd ()
      in
      (sol, Some stats)
  in
  let arr = Array.of_list candidates in
  let ev_arrays = Array.map (fun pc -> Array.of_list pc.evaluated) arr in
  let choices =
    List.filter_map
      (fun (gi, tag) ->
        if gi >= 0 && gi < Array.length arr && tag >= 0 && tag < Array.length ev_arrays.(gi)
        then Some (arr.(gi).hot, ev_arrays.(gi).(tag))
        else None)
      solution.Knapsack.picks
  in
  { choices;
    group_choices = [];
    predicted_gain = solution.Knapsack.total_gain;
    candidates_examined =
      List.fold_left (fun acc pc -> acc + List.length pc.evaluated) 0 candidates;
    solver_stats }

let with_groups ?opts ?(name_prefix = "__opt") target prof prog ~candidates ~chosen =
  let cache_opts = match opts with Some o -> o | None -> Candidate.default_options in
  let groups = Group.detect prog ~candidates in
  let counter = ref 0 in
  (* A group cache competes with its members' individual choices: adopt
     it only when it beats their combined gain, and drop those choices
     (the group cache covers the members end to end). *)
  let choices = ref chosen.choices in
  let group_choices =
    List.filter_map
      (fun g ->
        incr counter;
        let name = Printf.sprintf "%s_group%d_%d" name_prefix g.Group.branch !counter in
        match
          Group.build_cache ~capacity:cache_opts.Candidate.cache_capacity ~name prog g
        with
        | None -> None
        | Some cache ->
          let e = Group.evaluate target prof prog g ~cache in
          let member_set = Hashtbl.create 16 in
          List.iter
            (fun (p : Pipelet.t) -> Hashtbl.replace member_set p.Pipelet.entry ())
            g.Group.members;
          let member_choices, others =
            List.partition
              (fun ((hot : Hotspot.hot), _) ->
                Hashtbl.mem member_set hot.pipelet.Pipelet.entry)
              !choices
          in
          let member_gain =
            List.fold_left
              (fun acc (_, (ev : Candidate.evaluated)) -> acc +. ev.gain)
              0. member_choices
          in
          if e.Group.gain > member_gain && e.Group.gain > 0. then begin
            choices := others;
            Some e
          end
          else None)
      groups
  in
  { chosen with
    choices = !choices;
    group_choices;
    predicted_gain =
      List.fold_left
        (fun acc (_, (ev : Candidate.evaluated)) -> acc +. ev.gain)
        0. !choices
      +. List.fold_left (fun acc (e : Group.evaluated) -> acc +. e.gain) 0. group_choices }
