type option_item = { gain : float; mem : int; upd : float; tag : int }

type solution = { total_gain : float; picks : (int * int) list }

type stats = { options_before : int; options_after : int; dp_cells : int }

let solve_stats ?(mem_buckets = 64) ?(upd_buckets = 32) ?(prune = true) ~groups
    ~mem_budget ~upd_budget () =
  let nm = max 1 mem_buckets in
  let nu = max 1 upd_buckets in
  let mem_unit = Float.max 1. (float_of_int mem_budget /. float_of_int nm) in
  let upd_unit = Float.max 1e-9 (upd_budget /. float_of_int nu) in
  let bucket_mem m = int_of_float (ceil (float_of_int (max 0 m) /. mem_unit)) in
  let bucket_upd u = int_of_float (ceil (Float.max 0. u /. upd_unit)) in
  let options_before = List.fold_left (fun acc g -> acc + List.length g) 0 groups in
  (* Pre-bucket each option once and drop the ones the DP could never
     pick: non-positive gain, or a bucketed cost beyond a whole budget.
     With [prune], also drop options dominated within their group:
     B dominates A when B is no worse in gain and both costs, and is
     either strictly better in one dimension or earlier in the list
     (the latter removes exact duplicates while keeping the first).
     Since the DP layer value is monotone in remaining budget, a
     dominator's candidate value is >= the dominated option's at every
     cell, so the optimal total gain is preserved bit-for-bit. *)
  let kept_groups =
    List.map
      (fun options ->
        let usable =
          List.filter_map
            (fun o ->
              if o.gain <= 0. then None
              else
                let cm = bucket_mem o.mem in
                let cu = bucket_upd o.upd in
                if cm > nm || cu > nu then None else Some (o, cm, cu))
            options
        in
        if not prune then usable
        else
          let arr = Array.of_list usable in
          (* Quadratic in the group size, and the hottest loop of a
             search over large groups: scan directly and stop at the
             first dominator rather than call a closure per pair. *)
          let dominated i (a, acm, acu) =
            let rec scan j =
              j < Array.length arr
              && ((j <> i
                   &&
                   let b, bcm, bcu = arr.(j) in
                   b.gain >= a.gain && bcm <= acm && bcu <= acu
                   && (b.gain > a.gain || bcm < acm || bcu < acu || j < i))
                  || scan (j + 1))
            in
            scan 0
          in
          List.filteri (fun i o -> not (dominated i o)) usable)
      groups
  in
  let options_after = List.fold_left (fun acc g -> acc + List.length g) 0 kept_groups in
  (* dp.(m).(u) = best gain using at most m memory units and u update
     units; picks tracked alongside. Each layer reads only the previous
     groups' layer, so each group contributes at most one option. The
     computed region grows with the cumulative per-group max cost: any
     cell beyond the caps equals the cap cell (no pick set can cost
     more), so reads clamp instead of materializing the full grid. *)
  let mcap = ref 0 in
  let ucap = ref 0 in
  let dp = ref (Array.make_matrix 1 1 0.) in
  let picks = ref (Array.make_matrix 1 1 ([] : (int * int) list)) in
  let dp_cells = ref 0 in
  List.iteri
    (fun gi kept ->
      match kept with
      | [] -> () (* empty layer: dp unchanged, skip the copy entirely *)
      | _ ->
        let gmax_cm = List.fold_left (fun a (_, cm, _) -> max a cm) 0 kept in
        let gmax_cu = List.fold_left (fun a (_, _, cu) -> max a cu) 0 kept in
        let mcap' = min nm (!mcap + gmax_cm) in
        let ucap' = min nu (!ucap + gmax_cu) in
        let pm = !mcap and pu = !ucap in
        let prev_dp = !dp and prev_picks = !picks in
        let next_dp =
          Array.init (mcap' + 1) (fun m ->
              Array.init (ucap' + 1) (fun u -> prev_dp.(min m pm).(min u pu)))
        in
        let next_picks =
          Array.init (mcap' + 1) (fun m ->
              Array.init (ucap' + 1) (fun u -> prev_picks.(min m pm).(min u pu)))
        in
        dp_cells := !dp_cells + ((mcap' + 1) * (ucap' + 1));
        List.iter
          (fun (o, cm, cu) ->
            for m = cm to mcap' do
              for u = cu to ucap' do
                let candidate = prev_dp.(min (m - cm) pm).(min (u - cu) pu) +. o.gain in
                if candidate > next_dp.(m).(u) then begin
                  next_dp.(m).(u) <- candidate;
                  next_picks.(m).(u) <-
                    (gi, o.tag) :: prev_picks.(min (m - cm) pm).(min (u - cu) pu)
                end
              done
            done;
            dp_cells := !dp_cells + ((mcap' - cm + 1) * (ucap' - cu + 1)))
          kept;
        dp := next_dp;
        picks := next_picks;
        mcap := mcap';
        ucap := ucap')
    kept_groups;
  let fm = min nm !mcap and fu = min nu !ucap in
  ( { total_gain = (!dp).(fm).(fu); picks = List.rev (!picks).(fm).(fu) },
    { options_before; options_after; dp_cells = !dp_cells } )

let solve ?mem_buckets ?upd_buckets ~groups ~mem_budget ~upd_budget () =
  fst (solve_stats ?mem_buckets ?upd_buckets ~groups ~mem_budget ~upd_budget ())

let greedy ~groups ~mem_budget ~upd_budget =
  (* Per group keep the best-density option, then take groups in density
     order while budgets last. *)
  let density o =
    let mem_frac = float_of_int (max 0 o.mem) /. Float.max 1. (float_of_int mem_budget) in
    let upd_frac = Float.max 0. o.upd /. Float.max 1e-9 upd_budget in
    o.gain /. Float.max 1e-9 (mem_frac +. upd_frac)
  in
  let best_per_group =
    List.mapi
      (fun gi options ->
        let best =
          List.fold_left
            (fun acc o ->
              if o.gain <= 0. then acc
              else
                match acc with
                | Some b when density b >= density o -> acc
                | _ -> Some o)
            None options
        in
        (gi, best))
      groups
    |> List.filter_map (fun (gi, o) -> Option.map (fun o -> (gi, o)) o)
  in
  let sorted =
    List.stable_sort (fun (_, a) (_, b) -> compare (density b) (density a)) best_per_group
  in
  let _, _, gain, picks =
    List.fold_left
      (fun (mem_left, upd_left, gain, picks) (gi, o) ->
        if o.mem <= mem_left && o.upd <= upd_left then
          (mem_left - max 0 o.mem, upd_left -. Float.max 0. o.upd, gain +. o.gain,
           (gi, o.tag) :: picks)
        else (mem_left, upd_left, gain, picks))
      (mem_budget, upd_budget, 0., [])
      sorted
  in
  { total_gain = gain; picks = List.rev picks }
