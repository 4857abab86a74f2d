(* Tests for the traffic library and the stdx utilities it builds on. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

(* --- Prng --- *)

let test_prng_deterministic () =
  let a = Stdx.Prng.create 42L and b = Stdx.Prng.create 42L in
  let seq rng = List.init 10 (fun _ -> Stdx.Prng.next64 rng) in
  check_bool "same seed, same stream" true (seq a = seq b);
  let c = Stdx.Prng.create 43L in
  check_bool "different seed differs" false (seq (Stdx.Prng.create 42L) = seq c)

let test_prng_ranges () =
  let rng = Stdx.Prng.create 7L in
  for _ = 1 to 1000 do
    let f = Stdx.Prng.float rng in
    if f < 0. || f >= 1. then Alcotest.fail "float out of range";
    let i = Stdx.Prng.int rng 10 in
    if i < 0 || i >= 10 then Alcotest.fail "int out of range"
  done

(* --- Stats --- *)

let test_stats_basics () =
  check_float "mean" 2.5 (Stdx.Stats.mean [ 1.; 2.; 3.; 4. ]);
  check_float "median" 2.5 (Stdx.Stats.median [ 1.; 2.; 3.; 4. ]);
  check_float "p0" 1. (Stdx.Stats.percentile 0. [ 3.; 1.; 2. ]);
  check_float "p100" 3. (Stdx.Stats.percentile 100. [ 3.; 1.; 2. ]);
  check_float "p50 interpolated" 2. (Stdx.Stats.percentile 50. [ 3.; 1.; 2. ])

let test_stats_regression () =
  let points = List.map (fun x -> (x, (3. *. x) +. 2.)) [ 1.; 2.; 5.; 9. ] in
  let slope, intercept = Stdx.Stats.linear_regression points in
  check_float "slope" 3. slope;
  check_float "intercept" 2. intercept;
  check_float "r2 perfect" 1. (Stdx.Stats.r_squared points ~slope ~intercept)

let test_stats_entropy () =
  check_float "uniform 4 = 2 bits" 2. (Stdx.Stats.entropy [ 0.25; 0.25; 0.25; 0.25 ]);
  check_float "point mass = 0" 0. (Stdx.Stats.entropy [ 1.; 0.; 0. ]);
  (* Normalization happens internally. *)
  check_float "unnormalized uniform" 1. (Stdx.Stats.entropy [ 10.; 10. ])

(* --- Zipf --- *)

let test_zipf_skew () =
  let z = Traffic.Zipf.create ~n:100 ~s:1.2 in
  let rng = Stdx.Prng.create 3L in
  let counts = Array.make 100 0 in
  for _ = 1 to 20_000 do
    let i = Traffic.Zipf.sample z rng in
    counts.(i) <- counts.(i) + 1
  done;
  check_bool "rank 0 most popular" true (counts.(0) > counts.(10));
  check_bool "long tail present" true (Array.exists (fun c -> c > 0) (Array.sub counts 50 50));
  let total = Array.fold_left ( +. ) 0. (Array.init 100 (Traffic.Zipf.probability z)) in
  check_float "probabilities sum to 1" 1.0 total

let test_zipf_uniform () =
  let z = Traffic.Zipf.create ~n:10 ~s:0. in
  check_float "uniform mass" 0.1 (Traffic.Zipf.probability z 5)

(* --- Workload --- *)

let flow_fields = [ P4ir.Field.Ipv4_src; P4ir.Field.Ipv4_dst ]

let test_random_flows_distinct () =
  let rng = Stdx.Prng.create 5L in
  let flows = Traffic.Workload.random_flows rng ~n:200 ~fields:flow_fields in
  check_int "count" 200 (Array.length flows);
  let keys =
    Array.to_list flows
    |> List.map (fun f -> List.map snd f)
    |> List.sort_uniq compare
  in
  check_bool "flows mostly distinct" true (List.length keys > 190)

let test_of_flows_projects_population () =
  let rng = Stdx.Prng.create 5L in
  let flows = Traffic.Workload.random_flows rng ~n:4 ~fields:flow_fields in
  let source = Traffic.Workload.of_flows rng flows in
  for _ = 1 to 50 do
    let pkt = source () in
    let v = Nicsim.Packet.get pkt P4ir.Field.Ipv4_src in
    let known =
      Array.exists
        (fun f -> match List.assoc_opt P4ir.Field.Ipv4_src f with Some x -> Int64.equal x v | None -> false)
        flows
    in
    if not known then Alcotest.fail "packet from unknown flow"
  done

let test_mark_fraction_rate () =
  let rng = Stdx.Prng.create 5L in
  let base () = Nicsim.Packet.of_fields [ (P4ir.Field.Tcp_dport, 80L) ] in
  let source =
    Traffic.Workload.mark_fraction rng ~rate:0.3 ~field:P4ir.Field.Tcp_dport ~value:666L base
  in
  let marked = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    if Int64.equal (Nicsim.Packet.get (source ()) P4ir.Field.Tcp_dport) 666L then incr marked
  done;
  let rate = float_of_int !marked /. float_of_int n in
  check_bool "within 3% of target" true (Float.abs (rate -. 0.3) < 0.03)

let test_zipf_source_locality () =
  let rng = Stdx.Prng.create 13L in
  let flows = Traffic.Workload.random_flows rng ~n:1000 ~fields:flow_fields in
  let source = Traffic.Workload.of_flows ~zipf_s:1.3 rng flows in
  (* Count distinct flow keys in a short run: strong locality means far
     fewer distinct keys than packets. *)
  let seen = Hashtbl.create 64 in
  for _ = 1 to 2000 do
    let pkt = source () in
    Hashtbl.replace seen (List.map (Nicsim.Packet.get pkt) flow_fields) ()
  done;
  check_bool "zipfian concentration" true (Hashtbl.length seen < 500)

(* --- Trace --- *)

let test_trace_record_replay () =
  let rng = Stdx.Prng.create 21L in
  let flows = Traffic.Workload.random_flows rng ~n:16 ~fields:flow_fields in
  let source = Traffic.Workload.of_flows rng flows in
  let trace = Traffic.Trace.record ~fields:flow_fields ~n:50 source in
  check_int "length" 50 (Traffic.Trace.length trace);
  (* Replaying twice yields identical packet sequences. *)
  let replay1 = Traffic.Trace.replay trace in
  let replay2 = Traffic.Trace.replay trace in
  for _ = 1 to 120 do
    (* 120 > 50: looping replay *)
    let a = replay1 () and b = replay2 () in
    List.iter
      (fun f ->
        if not (Int64.equal (Nicsim.Packet.get a f) (Nicsim.Packet.get b f)) then
          Alcotest.fail "replays diverge")
      flow_fields
  done

let test_trace_roundtrip () =
  let rng = Stdx.Prng.create 22L in
  let flows = Traffic.Workload.random_flows rng ~n:8 ~fields:flow_fields in
  let source = Traffic.Workload.of_flows rng flows in
  let trace = Traffic.Trace.record ~fields:flow_fields ~n:20 source in
  let text = Traffic.Trace.to_string trace in
  let trace2 = Traffic.Trace.of_string text in
  check_int "same length" 20 (Traffic.Trace.length trace2);
  check_bool "same fields" true (Traffic.Trace.fields trace2 = flow_fields);
  for i = 0 to 19 do
    let a = Traffic.Trace.nth trace i and b = Traffic.Trace.nth trace2 i in
    List.iter
      (fun f ->
        if not (Int64.equal (Nicsim.Packet.get a f) (Nicsim.Packet.get b f)) then
          Alcotest.fail "roundtrip diverges")
      flow_fields
  done;
  check_bool "bad input rejected" true
    (try ignore (Traffic.Trace.of_string "nosuch.field\n1\n"); false
     with Invalid_argument _ -> true)

let test_trace_no_loop () =
  let source () = Nicsim.Packet.of_fields [ (P4ir.Field.Ipv4_src, 1L) ] in
  let trace = Traffic.Trace.record ~fields:[ P4ir.Field.Ipv4_src ] ~n:3 source in
  let replay = Traffic.Trace.replay ~loop:false trace in
  ignore (replay ());
  ignore (replay ());
  ignore (replay ());
  check_bool "exhausts" true
    (try ignore (replay ()); false with Invalid_argument _ -> true)

let () =
  Alcotest.run "traffic"
    [ ( "prng",
        [ Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "ranges" `Quick test_prng_ranges ] );
      ( "stats",
        [ Alcotest.test_case "basics" `Quick test_stats_basics;
          Alcotest.test_case "regression" `Quick test_stats_regression;
          Alcotest.test_case "entropy" `Quick test_stats_entropy ] );
      ( "zipf",
        [ Alcotest.test_case "skew" `Quick test_zipf_skew;
          Alcotest.test_case "uniform" `Quick test_zipf_uniform ] );
      ( "workload",
        [ Alcotest.test_case "random flows" `Quick test_random_flows_distinct;
          Alcotest.test_case "population projection" `Quick test_of_flows_projects_population;
          Alcotest.test_case "mark fraction" `Quick test_mark_fraction_rate;
          Alcotest.test_case "zipf locality" `Quick test_zipf_source_locality ] );
      ( "trace",
        [ Alcotest.test_case "record/replay" `Quick test_trace_record_replay;
          Alcotest.test_case "text roundtrip" `Quick test_trace_roundtrip;
          Alcotest.test_case "no-loop exhaustion" `Quick test_trace_no_loop ] ) ]
