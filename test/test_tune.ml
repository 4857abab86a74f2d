(* Tests for the tunable-parameter registry and offline design-space
   exploration (Pipeleon.Tune):
   - registry sanity (key order, defaults in domain, validation);
   - warm-cache salting: candidate params separate evaluations,
     optimizer params share them;
   - qcheck: no Pareto-front point dominates another, and a singleton
     search space returns the start (default) assignment bit-identically;
   - exploration dominates-or-matches the default and is deterministic;
   - a second sweep over a warm cache is all hits and picks the same
     front and point;
   - optim-equiv stays clean under per-case tuned configs. *)

module Tune = Pipeleon.Tune

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let target = Costmodel.Target.bluefield2

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let fields = [| P4ir.Field.Ipv4_src; P4ir.Field.Ipv4_dst; P4ir.Field.Tcp_sport; P4ir.Field.Tcp_dport |]

let mk_table i =
  P4ir.Table.make
    ~name:(Printf.sprintf "t%d" i)
    ~keys:[ P4ir.Builder.exact_key fields.(i mod Array.length fields) ]
    ~actions:[ P4ir.Builder.forward_action "act"; P4ir.Action.nop "def" ]
    ~default_action:"def"
    ~entries:
      (List.init 3 (fun j -> P4ir.Table.entry [ P4ir.Pattern.Exact (Int64.of_int j) ] "act"))
    ()

let program n = P4ir.Program.linear "tune" (List.init n mk_table)

(* [describe] without its last line, the sweep stats (which carry the
   wall-clock time). *)
let front_and_chosen ex =
  let d = Tune.describe ex in
  String.sub d 0 (String.rindex_from d (String.length d - 2) '\n' + 1)

let warm () =
  { Pipeleon.Optimizer.warm_cache = Pipeleon.Search.create_cache ();
    warm_signature = Runtime.Incremental.pipelet_signature }

(* --- registry --- *)

let find_param key = List.find (fun (p : Tune.param) -> p.Tune.key = key) Tune.params

(* Every param at its registered default. *)
let registry_defaults =
  List.map (fun (p : Tune.param) -> (p.Tune.key, p.Tune.default)) Tune.params

(* An explore sweep starts from the registry defaults. *)
let default_assignment =
  let prog = program 2 in
  (Tune.explore ~budget:1 target (Profile.uniform prog) prog).Tune.start_point.Tune.assignment

(* Distinct synthetic assignments: [i mod 20] picks the cache size and
   pipelet length, [i / 20] one of five (merge length, top-k) pairs, so
   [i] in 0..99 gives 100 distinct assignments. *)
let nth_dom key i =
  match (find_param key).Tune.domain with
  | Tune.Ints l -> Tune.Int (List.nth l (i mod List.length l))
  | Tune.Floats l -> Tune.Float (List.nth l (i mod List.length l))

let varied_assignment i =
  let asg = default_assignment in
  let asg = Tune.set asg "candidate.cache_entries" (nth_dom "candidate.cache_entries" i) in
  let asg =
    Tune.set asg "optimizer.max_pipelet_len" (nth_dom "optimizer.max_pipelet_len" (i / 5))
  in
  let asg =
    Tune.set asg "candidate.max_merge_len" (nth_dom "candidate.max_merge_len" (i / 20))
  in
  Tune.set asg "optimizer.top_k" (nth_dom "optimizer.top_k" (i / 60))

let test_registry () =
  let keys = List.map (fun (p : Tune.param) -> p.Tune.key) Tune.params in
  check_bool "keys sorted and unique" true
    (List.sort_uniq compare keys = keys);
  List.iter
    (fun (p : Tune.param) ->
      check_bool (p.Tune.key ^ " default in domain") true
        (match (p.Tune.domain, p.Tune.default) with
         | Tune.Ints l, Tune.Int v -> List.mem v l
         | Tune.Floats l, Tune.Float v -> List.mem v l
         | _ -> false))
    Tune.params;
  check_bool "explore starts from the registry defaults" true
    (Tune.to_list default_assignment = registry_defaults);
  check_int "100 distinct varied assignments" 100
    (List.length
       (List.sort_uniq compare
          (List.init 100 (fun i -> Tune.to_list (varied_assignment i)))))

let test_set_validates () =
  let asg = default_assignment in
  let asg = Tune.set asg "candidate.cache_entries" (Tune.Int 512) in
  check_int "set/get round trip" 512 (Tune.get_int asg "candidate.cache_entries");
  check_bool "out-of-domain value rejected" true
    (match Tune.set asg "candidate.cache_entries" (Tune.Int 999) with
     | _ -> false
     | exception Invalid_argument _ -> true);
  check_bool "unregistered key rejected" true
    (match Tune.set asg "no.such.key" (Tune.Int 1) with
     | _ -> false
     | exception Invalid_argument _ -> true);
  check_bool "default untouched by set" true
    (Tune.get_int default_assignment "candidate.cache_entries" = 4096)

(* A one-pipelet program: every top-k fraction searches that pipelet.
   A sweep evaluates the start (the defaults) and then its neighbours in
   key order — two moves each of candidate.cache_entries,
   candidate.max_merge_len, optimizer.max_pipelet_len and
   optimizer.top_k — so growing the budget on one warm cache adds one
   assignment at a time. *)
let test_candidate_salt () =
  let prog = program 6 in
  let prof = Profile.uniform prog in
  let w = warm () in
  let sweep budget = Tune.explore ~budget ~warm:w target prof prog in
  let first = sweep 1 in
  check_bool "first sweep misses" true (first.Tune.stats.Tune.cache_misses > 0);
  check_bool "candidate params do" true ((sweep 3).Tune.stats.Tune.cache_misses > 0);
  ignore (sweep 7);
  check_int "optimizer params do not change the salt" 0
    (sweep 9).Tune.stats.Tune.cache_misses;
  check_string "equal assignments, equal descriptions" (front_and_chosen first)
    (front_and_chosen (sweep 1))

(* --- Pareto front (qcheck) --- *)

(* Sweeps of varied radius and budget over varied pipeline lengths. *)
let test_pareto_no_dominated =
  qtest ~count:20 "pareto front has no dominated points"
    QCheck2.Gen.(triple (int_range 1 2) (int_range 2 10) (int_range 2 12))
    (fun (radius, n, budget) ->
      let prog = program n in
      let ex = Tune.explore ~budget ~radius target (Profile.uniform prog) prog in
      let front = ex.Tune.front in
      let key p = Tune.to_list p.Tune.assignment in
      (* Front points are distinct assignments... *)
      List.length (List.sort_uniq compare (List.map key front)) = List.length front
      && ex.Tune.stats.Tune.front_size = List.length front
      && ex.Tune.stats.Tune.evaluated <= budget
      (* ...and none dominates another. *)
      && List.for_all
           (fun p ->
             List.for_all
               (fun q -> p == q || not (Tune.dominates p.Tune.objectives q.Tune.objectives))
               front)
           front)


let test_singleton_returns_start =
  qtest ~count:15 "singleton search space returns start bit-identically"
    QCheck2.Gen.(pair bool (int_range 2 8))
    (fun (budget_one, n) ->
      let prog = program n in
      let prof = Profile.uniform prog in
      let ex =
        if budget_one then Tune.explore ~budget:1 target prof prog
        else Tune.explore ~radius:0 target prof prog
      in
      List.length ex.Tune.front = 1
      && Tune.to_list ex.Tune.chosen.Tune.assignment = registry_defaults
      && Tune.equal ex.Tune.start_point.Tune.assignment ex.Tune.chosen.Tune.assignment)

let test_radius_zero_singleton () =
  let prog = program 6 in
  let prof = Profile.uniform prog in
  let ex = Tune.explore ~radius:0 target prof prog in
  check_int "radius 0: front is the default alone" 1 (List.length ex.Tune.front);
  check_bool "chosen = default" true
    (Tune.to_list ex.Tune.chosen.Tune.assignment = registry_defaults)

(* --- exploration --- *)

let test_explore_dominates_or_matches () =
  let prog = program 10 in
  let prof = Profile.uniform prog in
  let ex = Tune.explore ~budget:16 ~radius:1 target prof prog in
  let chosen = ex.Tune.chosen and start = ex.Tune.start_point in
  check_bool "chosen latency <= default latency" true
    (chosen.Tune.objectives.Tune.latency <= start.Tune.objectives.Tune.latency +. 1e-9);
  check_bool "evaluated within budget" true
    (ex.Tune.stats.Tune.evaluated >= 1 && ex.Tune.stats.Tune.evaluated <= 16);
  check_int "front_size mirrors the front" (List.length ex.Tune.front)
    ex.Tune.stats.Tune.front_size

let test_explore_deterministic () =
  let prog = program 10 in
  let prof = Profile.uniform prog in
  let sweep () = front_and_chosen (Tune.explore ~budget:12 ~radius:1 target prof prog) in
  check_string "same chosen and front twice" (sweep ()) (sweep ())

let test_warm_reexplore_all_hits () =
  (* Each assignment's evaluations are keyed by its candidate salt, so a
     second sweep over the same warm cache replays every evaluation:
     zero misses, and the same front and chosen point byte for byte. *)
  let prog = program 10 in
  let prof = Profile.uniform prog in
  let warm = warm () in
  let sweep () = Tune.explore ~budget:8 ~radius:1 ~warm target prof prog in
  let first = sweep () in
  let second = sweep () in
  check_bool "first sweep misses" true (first.Tune.stats.Tune.cache_misses > 0);
  check_int "second sweep misses" 0 second.Tune.stats.Tune.cache_misses;
  check_string "same front and chosen point" (front_and_chosen first)
    (front_and_chosen second)

let test_optim_equiv_autotune () =
  let r =
    Fuzz.Driver.run ~autotune:true ~n_packets:32 Fuzz.Driver.Optim_equiv ~seed:7 ~budget:20
  in
  Alcotest.(check int) "optim-equiv under tuned configs clean" 0
    (List.length r.Fuzz.Driver.findings)

let () =
  Alcotest.run "tune"
    [ ( "registry",
        [ Alcotest.test_case "shape" `Quick test_registry;
          Alcotest.test_case "set validates" `Quick test_set_validates;
          Alcotest.test_case "candidate salt" `Quick test_candidate_salt ] );
      ( "pareto",
        [ test_pareto_no_dominated; test_singleton_returns_start;
          Alcotest.test_case "radius zero" `Quick test_radius_zero_singleton ] );
      ( "explore",
        [ Alcotest.test_case "dominates or matches" `Quick test_explore_dominates_or_matches;
          Alcotest.test_case "deterministic" `Quick test_explore_deterministic;
          Alcotest.test_case "warm re-explore all hits" `Quick
            test_warm_reexplore_all_hits ] );
      ( "oracles",
        [ Alcotest.test_case "optim-equiv tuned" `Slow test_optim_equiv_autotune ] ) ]
