type seg_kind = Cache_seg | Merge_ternary_seg | Merge_fallback_seg

type seg = { pos : int; len : int; kind : seg_kind }

type combo = { order : int list; segs : seg list }

type options = {
  max_enumerate_order : int;
  max_merge_len : int;
  max_cache_len : int;
  max_combos : int;
  cache_capacity : int;
  cache_insert_limit : float;
}

let default_options =
  { max_enumerate_order = 5;
    max_merge_len = 2;
    max_cache_len = 4;
    max_combos = 4096;
    cache_capacity = 4096;
    cache_insert_limit = 1000. }

type evaluated = {
  combo : combo;
  gain : float;
  latency_before : float;
  latency_after : float;
  mem_delta : int;
  update_delta : float;
}

let identity_combo n = { order = List.init n Fun.id; segs = [] }

(* Segmentations: walk positions left to right; at each position either
   leave the table plain or open a segment of one of the kinds. [go pos]
   is a pure function of the position, so it is memoized — the naive
   recursion re-derives [go (pos + len)] once per (len, kind) parent and
   goes exponential in the pipelet length. *)
let segmentations_uncached ~opts n =
  let memo = Array.make (max 1 n) None in
  let rec go pos =
    if pos >= n then [ [] ]
    else
      match memo.(pos) with
      | Some r -> r
      | None ->
        let plain = go (pos + 1) in
        let with_segments =
          List.concat_map
            (fun len ->
              if pos + len > n then []
              else
                let kinds =
                  (if len <= opts.max_cache_len then [ Cache_seg ] else [])
                  @ (if len >= 2 && len <= opts.max_merge_len then
                       [ Merge_ternary_seg; Merge_fallback_seg ]
                     else [])
                in
                List.concat_map
                  (fun kind ->
                    List.map (fun rest -> { pos; len; kind } :: rest) (go (pos + len)))
                  kinds)
            (List.init (max opts.max_cache_len opts.max_merge_len) (fun i -> i + 1))
        in
        let r = plain @ with_segments in
        memo.(pos) <- Some r;
        r
  in
  (* Drop the all-plain segmentation; it is the reorder-only combo. *)
  List.filter (fun segs -> segs <> []) (go 0) @ [ [] ]

(* The result depends only on (n, max_cache_len, max_merge_len), and the
   same pipelet lengths recur across pipelets and re-optimization epochs,
   so keep a process-wide cache. Mutex-guarded: [Fleet.tick_all] runs
   controller ticks, and so their searches, on several domains. *)
let seg_cache : (int * int * int, seg list list) Hashtbl.t = Hashtbl.create 16
let seg_cache_mutex = Mutex.create ()

let segmentations ~opts n =
  let key = (n, opts.max_cache_len, opts.max_merge_len) in
  Mutex.protect seg_cache_mutex (fun () ->
      match Hashtbl.find_opt seg_cache key with
      | Some segs -> segs
      | None ->
        let segs = segmentations_uncached ~opts n in
        Hashtbl.replace seg_cache key segs;
        segs)


let enumerate ?(opts = default_options) prof tabs =
  let n = List.length tabs in
  if n = 0 then []
  else begin
    let orders = Reorder.candidate_orders ~max_enumerate:opts.max_enumerate_order tabs in
    let greedy = Reorder.greedy_drop_order prof tabs in
    let orders = if List.mem greedy orders then orders else orders @ [ greedy ] in
    let segs = segmentations ~opts n in
    let identity = identity_combo n in
    (* Budget the candidate cap across orders, and keep each order's
       reorder-only combo unconditionally — otherwise a long pipelet's
       segmentations crowd out reordering entirely. *)
    let per_order = max 1 (opts.max_combos / max 1 (List.length orders)) in
    let combos =
      List.concat_map
        (fun order ->
          let with_segs =
            List.filter (fun s -> s <> []) segs
            |> Stdx.Listx.take (per_order - 1)
            |> List.map (fun segs -> { order; segs })
          in
          { order; segs = [] } :: with_segs)
        orders
      |> List.filter (fun c -> c <> identity)
    in
    Stdx.Listx.take opts.max_combos combos
  end

let slice xs pos len =
  List.filteri (fun i _ -> i >= pos && i < pos + len) xs

let realize ?(opts = default_options) ~name_prefix tabs combo =
  match Reorder.apply_order tabs combo.order with
  | exception Invalid_argument _ -> None
  | ordered ->
    if not (Reorder.order_valid (Array.of_list tabs) combo.order) then None
    else begin
      let n = List.length ordered in
      let covered = Array.make n None in
      List.iter
        (fun seg ->
          for i = seg.pos to seg.pos + seg.len - 1 do
            if i < n then covered.(i) <- Some seg
          done)
        combo.segs;
      let counter = ref 0 in
      let fresh kind_tag =
        incr counter;
        Printf.sprintf "%s_%s%d" name_prefix kind_tag !counter
      in
      let rec build pos acc =
        if pos >= n then Some (List.rev acc)
        else
          match covered.(pos) with
          | None -> build (pos + 1) (Transform.Plain (List.nth ordered pos) :: acc)
          | Some seg when seg.pos <> pos -> build (pos + 1) acc (* interior *)
          | Some seg -> (
            let originals = slice ordered seg.pos seg.len in
            match seg.kind with
            | Cache_seg ->
              if not (Cache.cacheable originals) then None
              else begin
                let cache =
                  Cache.build ~capacity:opts.cache_capacity
                    ~insert_limit:opts.cache_insert_limit ~name:(fresh "cache")
                    originals
                in
                build (pos + seg.len) (Transform.Cached { cache; originals } :: acc)
              end
            | Merge_ternary_seg ->
              if not (Merge.mergeable originals) then None
              else (
                match Merge.build_ternary ~name:(fresh "merged") originals with
                | merged ->
                  build (pos + seg.len)
                    (Transform.Merged_plain { merged; originals } :: acc)
                | exception Invalid_argument _ -> None)
            | Merge_fallback_seg ->
              if not (Merge.mergeable originals && Merge.fallback_compatible originals)
              then None
              else (
                match Merge.build_fallback ~name:(fresh "mergedx") originals with
                | merged ->
                  build (pos + seg.len)
                    (Transform.Merged_fallback { merged; originals } :: acc)
                | exception Invalid_argument _ -> None))
      in
      build 0 []
    end

(* --- synthetic profile entries for new tables --- *)

let product_prob prof originals parts =
  (* P(fused) = prod over (table, action) components; [parts] may cover a
     drop-truncated prefix or (for group caches) a subset of originals. *)
  List.fold_left
    (fun acc (tname, aname) ->
      match
        List.find_opt (fun (t : P4ir.Table.t) -> String.equal t.name tname) originals
      with
      | Some tab -> acc *. Profile.action_prob prof ~table:tab ~action:aname
      | None -> acc)
    1.0 parts

let stats_for_cache prof (cache : P4ir.Table.t) originals ~scale ~miss_prob ~update_rate =
  (* Auto-insert caches: realizable fused sequences have total product
     mass 1, so each is scaled by the hit rate and the default keeps the
     miss mass. Fallback merges: hit-only products already sum to the
     joint hit probability, so [scale] is 1. *)
  let action_probs =
    List.map
      (fun (a : P4ir.Action.t) ->
        if String.equal a.name cache.default_action then (a.name, miss_prob)
        else
          let parts = Profile.Counter_map.split_fused a.name in
          (a.name, scale *. product_prob prof originals parts))
      cache.actions
  in
  { Profile.action_probs; update_rate; locality = -1. }

let stats_for_merged prof (merged : P4ir.Table.t) originals ~update_rate =
  let action_probs =
    List.map
      (fun (a : P4ir.Action.t) ->
        let parts = Profile.Counter_map.split_fused a.name in
        (a.name, product_prob prof originals parts))
      merged.actions
  in
  { Profile.action_probs; update_rate; locality = -1. }

let extend_profile prof elements =
  List.fold_left
    (fun prof element ->
      match element with
      | Transform.Plain _ -> prof
      | Transform.Cached { cache; originals } ->
        let base_hit =
          Profile.cache_hit_estimate prof
            ~table_names:(List.map (fun (t : P4ir.Table.t) -> t.name) originals)
        in
        (* Entry updates to any covered table invalidate the cache
           (§3.2.2); between invalidations it must re-warm, so the
           effective hit rate collapses as the covered update rate grows.
           [warmup] is the approximate re-warm time in seconds. *)
        let warmup = 0.5 in
        let covered_updates =
          List.fold_left
            (fun acc (t : P4ir.Table.t) ->
              acc +. Profile.update_rate prof ~table_name:t.name)
            0. originals
        in
        let hit_rate = base_hit /. (1. +. (covered_updates *. warmup)) in
        let update_rate =
          match cache.role with
          | P4ir.Table.Cache meta -> meta.insert_limit
          | _ -> 0.
        in
        Profile.set_table cache.name
          (stats_for_cache prof cache originals ~scale:hit_rate
             ~miss_prob:(1. -. hit_rate) ~update_rate)
          prof
      | Transform.Merged_plain { merged; originals } ->
        Profile.set_table merged.name
          (stats_for_merged prof merged originals
             ~update_rate:(Merge.update_estimate prof originals))
          prof
      | Transform.Merged_fallback { merged; originals } ->
        (* Joint hit probability: every covered table must hit. *)
        let hit_rate =
          List.fold_left
            (fun acc (tab : P4ir.Table.t) ->
              acc
              *. (1. -. Profile.action_prob prof ~table:tab ~action:tab.default_action))
            1.0 originals
        in
        Profile.set_table merged.name
          (stats_for_cache prof merged originals ~scale:1.0
             ~miss_prob:(1. -. hit_rate)
             ~update_rate:(Merge.update_estimate prof originals))
          prof)
    prof elements

let element_update_rate prof element =
  let sum_originals originals =
    List.fold_left
      (fun acc (t : P4ir.Table.t) -> acc +. Profile.update_rate prof ~table_name:t.name)
      0. originals
  in
  match element with
  | Transform.Plain t -> Profile.update_rate prof ~table_name:t.P4ir.Table.name
  | Transform.Cached { cache; originals } ->
    let fill_rate =
      match cache.role with P4ir.Table.Cache m -> m.insert_limit | _ -> 0.
    in
    fill_rate +. sum_originals originals
  | Transform.Merged_plain { originals; _ } -> Merge.update_estimate prof originals
  | Transform.Merged_fallback { originals; _ } ->
    Merge.update_estimate prof originals +. sum_originals originals

let evaluate target prof ~reach_prob ~originals combo elements =
  let before = Transform.chain_program "__before" (List.map (fun t -> Transform.Plain t) originals) in
  let after = Transform.chain_program "__after" elements in
  let prof_after = extend_profile prof elements in
  let latency_before = Costmodel.Cost.expected_latency target prof before in
  let latency_after = Costmodel.Cost.expected_latency target prof_after after in
  let mem tabs = List.fold_left (fun acc t -> acc + Costmodel.Resource.table_memory target t) 0 tabs in
  let mem_before = mem originals in
  let mem_after = mem (List.concat_map Transform.element_tables elements) in
  let upd_before =
    List.fold_left
      (fun acc (t : P4ir.Table.t) -> acc +. Profile.update_rate prof ~table_name:t.name)
      0. originals
  in
  let upd_after = List.fold_left (fun acc e -> acc +. element_update_rate prof e) 0. elements in
  { combo;
    gain = (latency_before -. latency_after) *. reach_prob;
    latency_before;
    latency_after;
    mem_delta = mem_after - mem_before;
    update_delta = upd_after -. upd_before }

(* --- analytic (table-free) evaluation: what the local search runs --- *)

let exact_entry_bytes fields =
  List.fold_left (fun acc f -> acc + ((P4ir.Field.width f + 7) / 8)) 8 fields

let merged_fields tabs =
  List.sort_uniq P4ir.Field.compare
    (List.concat_map
       (fun (t : P4ir.Table.t) -> List.map (fun (k : P4ir.Table.key) -> k.field) t.keys)
       tabs)

(* Memoized per-table metrics, in the pipelet's original order. *)
type tinfo = {
  t_cost : float;  (* match + expected action cost *)
  t_drop : float;
  t_mem : int;
  t_upd : float;
  t_m : float;
  t_act : float;  (* expected action cost alone *)
  t_entries : int;
  t_miss : float;  (* probability the default action fires *)
}

(* Cost, memory, update-rate, and survival contribution of one segment:
   a pure function of the segment kind and the original tables covered,
   independent of where the segment sits in the reordered pipelet.
   Memoized per context — segmentations across candidate orders share
   almost all of their segments. *)
type seg_info = {
  si_valid : bool;
  si_cost : float;
  si_mem : int;  (* segment memory, plus resident originals for caches *)
  si_upd : float;
  si_survive : float;
}

type ctx = {
  ctx_opts : options;
  ctx_target : Costmodel.Target.t;
  ctx_prof : Profile.t;
  ctx_reach : float;
  ctx_tabs : P4ir.Table.t array;
  ctx_info : tinfo array;
  ctx_latency_before : float;
  ctx_mem_before : int;
  ctx_upd_before : float;
  (* Scratch reused across evaluate_analytic calls (a context is built
     and driven by one search thread; it is not domain-shareable). *)
  ctx_order : int array;
  ctx_covered : int array;
  ctx_seg_memo : (seg_kind * int list, seg_info) Hashtbl.t;
}

let context ?(opts = default_options) target prof ~reach_prob tabs =
  let arr = Array.of_list tabs in
  let info =
    Array.map
      (fun (t : P4ir.Table.t) ->
        let act = Costmodel.Cost.action_cost target prof t in
        { t_cost = Costmodel.Target.table_match_cost target t +. act;
          t_drop = Profile.drop_prob prof t;
          t_mem = Costmodel.Resource.table_memory target t;
          t_upd = Profile.update_rate prof ~table_name:t.name;
          t_m = Costmodel.Target.m_of_table target t;
          t_act = act;
          t_entries = max 1 (P4ir.Table.num_entries t);
          t_miss = Profile.action_prob prof ~table:t ~action:t.default_action })
      arr
  in
  let latency_before, _ =
    Array.fold_left
      (fun (lat, survive) i -> (lat +. (survive *. i.t_cost), survive *. (1. -. i.t_drop)))
      (0., 1.) info
  in
  { ctx_opts = opts;
    ctx_target = target;
    ctx_prof = prof;
    ctx_reach = reach_prob;
    ctx_tabs = arr;
    ctx_info = info;
    ctx_latency_before = latency_before;
    ctx_mem_before = Array.fold_left (fun acc i -> acc + i.t_mem) 0 info;
    ctx_upd_before = Array.fold_left (fun acc i -> acc +. i.t_upd) 0. info;
    ctx_order = Array.make (max 1 (Array.length arr)) 0;
    ctx_covered = Array.make (max 1 (Array.length arr)) (-1);
    ctx_seg_memo = Hashtbl.create 64 }

let cache_hit_with_invalidation ctx originals_info originals =
  let base =
    Profile.cache_hit_estimate ctx.ctx_prof
      ~table_names:(List.map (fun (t : P4ir.Table.t) -> t.name) originals)
  in
  let warmup = 0.5 in
  let updates = List.fold_left (fun acc i -> acc +. i.t_upd) 0. originals_info in
  base /. (1. +. (updates *. warmup))

(* Expected cost of running the original segment on a cache miss, plus
   the survival factor through it. *)
let segment_chain originals_info =
  List.fold_left
    (fun (lat, survive) i -> (lat +. (survive *. i.t_cost), survive *. (1. -. i.t_drop)))
    (0., 1.) originals_info

let seg_valid ctx kind len originals =
  match kind with
  | Cache_seg -> len <= ctx.ctx_opts.max_cache_len && Cache.cacheable originals
  | Merge_ternary_seg -> len <= ctx.ctx_opts.max_merge_len && Merge.mergeable originals
  | Merge_fallback_seg ->
    len <= ctx.ctx_opts.max_merge_len
    && Merge.mergeable originals
    && Merge.fallback_compatible originals

(* Cost, memory, update-rate, and survival contribution of one segment. *)
let seg_metrics ctx kind originals originals_info =
  let target = ctx.ctx_target in
  let opts = ctx.ctx_opts in
  let act_sum = List.fold_left (fun acc i -> acc +. i.t_act) 0. originals_info in
  let upd_sum = List.fold_left (fun acc i -> acc +. i.t_upd) 0. originals_info in
  let entry_estimate = List.fold_left (fun acc i -> acc * i.t_entries) 1 originals_info in
  let miss_cost, survive_factor = segment_chain originals_info in
  match kind with
  | Cache_seg ->
    let h = cache_hit_with_invalidation ctx originals_info originals in
    let cost =
      target.Costmodel.Target.l_mat
      +. (h *. act_sum)
      +. ((1. -. h) *. miss_cost)
    in
    let mem = opts.cache_capacity * exact_entry_bytes (Cache.live_in_fields originals) in
    (cost, mem, opts.cache_insert_limit +. upd_sum, survive_factor)
  | Merge_ternary_seg ->
    (* Distinct mask combinations of the merged ternary table: each
       original contributes its own shapes plus a wildcard miss row
       (Fig. 6), multiplied; minus one for the all-miss combination,
       which is the merged default action rather than an entry. *)
    let m =
      Float.max 1.
        (List.fold_left (fun acc i -> acc *. (i.t_m +. 1.)) 1. originals_info -. 1.)
    in
    let cost = (m *. target.Costmodel.Target.l_mat) +. act_sum in
    let mem =
      int_of_float
        (ceil
           (float_of_int (entry_estimate * 2 * exact_entry_bytes (merged_fields originals))
            *. m))
    in
    (cost, mem, Merge.update_estimate ctx.ctx_prof originals, survive_factor)
  | Merge_fallback_seg ->
    let h = List.fold_left (fun acc i -> acc *. (1. -. i.t_miss)) 1. originals_info in
    let cost =
      target.Costmodel.Target.l_mat +. (h *. act_sum) +. ((1. -. h) *. miss_cost)
    in
    let mem = entry_estimate * exact_entry_bytes (merged_fields originals) in
    (cost, mem, Merge.update_estimate ctx.ctx_prof originals +. upd_sum, survive_factor)

(* Memoized per-segment evaluation, keyed by (kind, covered original
   table indices). Validity, cost, memory and update rate are position-
   independent, so segments shared across candidate orders (the common
   case: segmentations are enumerated per order) are computed once. *)
let seg_info_of ctx kind idxs =
  match Hashtbl.find_opt ctx.ctx_seg_memo (kind, idxs) with
  | Some si -> si
  | None ->
    let originals = List.map (fun i -> ctx.ctx_tabs.(i)) idxs in
    let originals_info = List.map (fun i -> ctx.ctx_info.(i)) idxs in
    let len = List.length idxs in
    let si =
      if not (seg_valid ctx kind len originals) then
        { si_valid = false; si_cost = 0.; si_mem = 0; si_upd = 0.; si_survive = 1. }
      else begin
        let cost, seg_mem, seg_upd, survive_factor =
          seg_metrics ctx kind originals originals_info
        in
        (* Caches and fallback merges keep the originals resident. *)
        let resident =
          match kind with
          | Cache_seg | Merge_fallback_seg ->
            List.fold_left (fun acc (i : tinfo) -> acc + i.t_mem) 0 originals_info
          | Merge_ternary_seg -> 0
        in
        { si_valid = true;
          si_cost = cost;
          si_mem = seg_mem + resident;
          si_upd = seg_upd;
          si_survive = survive_factor }
      end
    in
    Hashtbl.replace ctx.ctx_seg_memo (kind, idxs) si;
    si

let evaluate_analytic ctx combo =
  let n = Array.length ctx.ctx_tabs in
  if not (Reorder.order_valid ctx.ctx_tabs combo.order) then None
  else begin
    (* order_valid guarantees a permutation of 0..n-1, so the scratch
       arrays are filled completely. *)
    let order = ctx.ctx_order in
    List.iteri (fun i v -> order.(i) <- v) combo.order;
    let covered = ctx.ctx_covered in
    Array.fill covered 0 n (-1);
    let segs = Array.of_list combo.segs in
    let bad = ref false in
    Array.iteri
      (fun s seg ->
        if seg.pos < 0 || seg.pos + seg.len > n then bad := true
        else
          for i = seg.pos to seg.pos + seg.len - 1 do
            if covered.(i) >= 0 then bad := true;
            covered.(i) <- s
          done)
      segs;
    if !bad then None
    else begin
      let rec idxs_of pos len = if len = 0 then [] else order.(pos) :: idxs_of (pos + 1) (len - 1) in
      let infos =
        Array.map (fun seg -> seg_info_of ctx seg.kind (idxs_of seg.pos seg.len)) segs
      in
      if not (Array.for_all (fun si -> si.si_valid) infos) then None
      else begin
        let latency = ref 0. in
        let survive = ref 1.0 in
        let mem = ref 0 in
        let upd = ref 0. in
        let i = ref 0 in
        while !i < n do
          let s = covered.(!i) in
          if s < 0 then begin
            let info = ctx.ctx_info.(order.(!i)) in
            latency := !latency +. (!survive *. info.t_cost);
            mem := !mem + info.t_mem;
            upd := !upd +. info.t_upd;
            survive := !survive *. (1. -. info.t_drop);
            incr i
          end
          else if segs.(s).pos <> !i then incr i (* zero-length seg marker *)
          else begin
            let si = infos.(s) in
            latency := !latency +. (!survive *. si.si_cost);
            mem := !mem + si.si_mem;
            upd := !upd +. si.si_upd;
            survive := !survive *. si.si_survive;
            i := segs.(s).pos + segs.(s).len
          end
        done;
        Some
          { combo;
            gain = (ctx.ctx_latency_before -. !latency) *. ctx.ctx_reach;
            latency_before = ctx.ctx_latency_before;
            latency_after = !latency;
            mem_delta = !mem - ctx.ctx_mem_before;
            update_delta = !upd -. ctx.ctx_upd_before }
      end
    end
  end

let best_of evaluated =
  List.fold_left
    (fun best e ->
      match best with
      | Some (b : evaluated) when b.gain >= e.gain -> best
      | _ -> if e.gain > 0. then Some e else best)
    None evaluated
