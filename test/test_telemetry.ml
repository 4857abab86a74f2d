(* Tests for the telemetry subsystem: histogram bucketing and quantile
   error bounds, lossless merges (the property that makes fleet rollups
   exact), the metrics registry, the trace ring, the sink facade,
   and the nicsim integration (driver-independent metrics, observe-only
   stats, deterministic trace sampling). *)

module H = Telemetry.Histogram
module M = Telemetry.Metrics
module Tr = Telemetry.Trace

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* --- histogram --- *)

let test_hist_empty () =
  let h = H.create () in
  check_int "count" 0 (H.count h);
  check_bool "mean nan" true (Float.is_nan (H.mean h));
  check_bool "quantile nan" true (Float.is_nan (H.quantile h 0.5))

let test_hist_single_sample_exact () =
  (* A single sample is reproduced exactly: the bucket upper bound is
     clamped to the recorded maximum. *)
  let h = H.create () in
  H.record h 17.3;
  check_bool "p50 exact" true (Float.equal (H.quantile h 0.5) 17.3);
  check_bool "p100 exact" true (Float.equal (H.quantile h 1.0) 17.3);
  check_bool "min" true (Float.equal (H.min_value h) 17.3);
  check_bool "max" true (Float.equal (H.max_value h) 17.3)

let test_hist_zero_bucket () =
  let h = H.create () in
  H.record h 0.;
  H.record h (-3.);
  H.record h Float.nan;
  check_int "all landed" 3 (H.count h);
  check_bool "quantile reports zero" true (Float.equal (H.quantile h 0.9) 0.)

(* Positive floats across many octaves, well inside the representable
   range (octaves 2^-64 .. 2^64). *)
let gen_pos =
  QCheck2.Gen.(
    map2
      (fun m e -> Float.ldexp (1. +. m) e)
      (float_bound_inclusive 0.999) (int_range (-40) 40))

let prop_bucket_bounds =
  qtest ~count:500 "bucket bounds hold" gen_pos (fun v ->
      let h = H.create () in
      H.record h v;
      match H.nonzero_buckets h with
      | [ (lo, hi, 1) ] ->
        lo <= v && v < hi && hi <= lo *. (1. +. H.relative_error h) *. (1. +. 1e-12)
      | _ -> false)

let gen_samples =
  QCheck2.Gen.(list_size (int_range 1 300) gen_pos)

let prop_quantile_error_bound =
  qtest ~count:200 "quantile within relative error" gen_samples (fun vs ->
      let h = H.create () in
      List.iter (H.record h) vs;
      let sorted = List.sort Float.compare vs in
      let n = List.length vs in
      List.for_all
        (fun q ->
          let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int n))) in
          let exact = List.nth sorted (rank - 1) in
          let est = H.quantile h q in
          est >= exact *. (1. -. 1e-12)
          && est <= exact *. (1. +. H.relative_error h +. 1e-9))
        [ 0.5; 0.9; 0.99; 1.0 ])

(* The property behind exact merged quantiles: recording a sample list
   across k shard histograms and merging is indistinguishable — bucket
   by bucket, and therefore quantile by quantile — from recording into
   one histogram, whatever the split. *)
let gen_sharded =
  QCheck2.Gen.(
    pair (list_size (int_range 0 300) gen_pos) (int_range 1 8))

let prop_merge_equals_single =
  qtest ~count:200 "merged shards == single histogram" gen_sharded (fun (vs, k) ->
      let whole = H.create () in
      List.iter (H.record whole) vs;
      let shards = Array.init k (fun _ -> H.create ()) in
      List.iteri (fun i v -> H.record shards.(i mod k) v) vs;
      let merged = H.create () in
      Array.iter (fun s -> H.merge_into ~dst:merged ~src:s) shards;
      let same_float a b =
        (Float.is_nan a && Float.is_nan b) || Float.equal a b
      in
      H.bucket_counts merged = H.bucket_counts whole
      && H.count merged = H.count whole
      && same_float (H.min_value merged) (H.min_value whole)
      && same_float (H.max_value merged) (H.max_value whole)
      && List.for_all
           (fun q -> same_float (H.quantile merged q) (H.quantile whole q))
           [ 0.; 0.5; 0.9; 0.99; 0.999; 1. ]
      (* Sums are added in a different order, so only approximately equal. *)
      && (H.count whole = 0
         || Float.abs (H.sum merged -. H.sum whole)
            <= 1e-9 *. Float.max 1. (Float.abs (H.sum whole))))

let test_hist_merge_sub_bits_mismatch () =
  let a = H.create ~sub_bits:5 () and b = H.create ~sub_bits:6 () in
  Alcotest.check_raises "mismatch rejected"
    (Invalid_argument "Histogram.merge_into: sub_bits mismatch") (fun () ->
      H.merge_into ~dst:a ~src:b)

(* --- metrics registry --- *)

let test_metrics_basic () =
  let m = M.create () in
  let c = M.counter m "a.count" in
  M.inc c;
  M.inc ~by:4 c;
  (* Registration is idempotent: same name, same underlying cell. *)
  M.inc (M.counter m "a.count");
  check_bool "counter value" true (M.find_counter m "a.count" = Some 6);
  let g = M.gauge m "b.gauge" in
  M.set g 2.5;
  M.set g 3.5;
  check_bool "gauge keeps latest" true (M.find_gauge m "b.gauge" = Some 3.5);
  let h = M.histogram m "c.hist" in
  H.record h 10.;
  check_bool "histogram registered" true
    (match M.find_histogram m "c.hist" with Some h -> H.count h = 1 | None -> false);
  Alcotest.(check (list string)) "names sorted" [ "a.count"; "b.gauge"; "c.hist" ] (M.names m)

let test_metrics_kind_mismatch () =
  let m = M.create () in
  ignore (M.counter m "x");
  check_bool "re-registering as a different kind raises" true
    (try
       ignore (M.gauge m "x");
       false
     with Invalid_argument _ -> true)

let test_metrics_merge () =
  let dst = M.create () and src = M.create () in
  M.inc ~by:2 (M.counter dst "shared");
  M.inc ~by:3 (M.counter src "shared");
  M.inc ~by:5 (M.counter src "only.src");
  M.set (M.gauge src "g") 7.;
  H.record (M.histogram dst "h") 1.;
  H.record (M.histogram src "h") 2.;
  M.merge_into ~dst ~src;
  check_bool "counters add" true (M.find_counter dst "shared" = Some 5);
  check_bool "missing metrics registered on the fly" true
    (M.find_counter dst "only.src" = Some 5);
  check_bool "gauge adopted" true (M.find_gauge dst "g" = Some 7.);
  check_bool "histograms merge" true
    (match M.find_histogram dst "h" with Some h -> H.count h = 2 | None -> false)

let test_metrics_prometheus_sanitized () =
  let m = M.create () in
  M.inc (M.counter m "nicsim.table.t-0.hit");
  let text = M.to_prometheus m in
  let contains s sub =
    let n = String.length s and k = String.length sub in
    let rec go i = i + k <= n && (String.sub s i k = sub || go (i + 1)) in
    go 0
  in
  check_bool "dots and dashes sanitized" true (contains text "nicsim_table_t_0_hit")

(* --- trace ring --- *)

let span i =
  { Tr.name = Printf.sprintf "s%d" i; cat = "test"; ts = float_of_int i;
    dur = 1.; tid = i; args = [] }

let test_trace_ring_overwrite () =
  let t = Tr.create ~capacity:4 () in
  for i = 0 to 5 do Tr.add t (span i) done;
  check_int "length capped" 4 (Tr.length t);
  check_int "dropped" 2 (Tr.dropped t);
  Alcotest.(check (list string)) "oldest-first survivors" [ "s2"; "s3"; "s4"; "s5" ]
    (List.map (fun (s : Tr.span) -> s.Tr.name) (Tr.spans t));
  Tr.clear t;
  check_int "clear resets length" 0 (Tr.length t);
  check_int "clear resets dropped" 0 (Tr.dropped t)

let test_trace_chrome_json () =
  let t = Tr.create ~capacity:8 () in
  Tr.add t { (span 0) with args = [ ("result", "hit") ] };
  let json = P4ir.Json.to_string (Tr.to_chrome_json ~process_name:"proc" t) in
  let contains sub =
    let n = String.length json and k = String.length sub in
    let rec go i = i + k <= n && (String.sub json i k = sub || go (i + 1)) in
    go 0
  in
  check_bool "traceEvents present" true (contains "\"traceEvents\"");
  check_bool "complete event" true (contains "\"X\"");
  check_bool "span name" true (contains "\"s0\"");
  check_bool "args surface" true (contains "\"hit\"");
  check_bool "process metadata" true (contains "process_name")

(* --- sink facade --- *)

let test_null_sink () =
  check_bool "disabled" false (Telemetry.enabled Telemetry.null);
  check_bool "no ring" true (Telemetry.trace Telemetry.null = None);
  check_bool "never samples" false (Telemetry.should_trace Telemetry.null ~seq:0);
  check_bool "fork stays disabled" false (Telemetry.enabled (Telemetry.fork Telemetry.null));
  (* add_span must be a harmless no-op. *)
  Telemetry.add_span Telemetry.null (span 0)

let test_should_trace_cadence () =
  let tel = Telemetry.create ~trace_capacity:16 ~trace_sample_every:5 () in
  check_bool "seq 0" true (Telemetry.should_trace tel ~seq:0);
  check_bool "seq 5" true (Telemetry.should_trace tel ~seq:5);
  check_bool "seq 1" false (Telemetry.should_trace tel ~seq:1);
  check_bool "seq 4" false (Telemetry.should_trace tel ~seq:4);
  (* Metrics-only sinks never sample. *)
  check_bool "no ring, no sampling" false
    (Telemetry.should_trace (Telemetry.create ()) ~seq:0)

let test_fork_merge () =
  let parent = Telemetry.create ~trace_capacity:16 () in
  M.inc ~by:2 (M.counter (Telemetry.metrics parent) "n");
  let shard = Telemetry.fork parent in
  check_bool "fork enabled" true (Telemetry.enabled shard);
  check_bool "fork carries no ring" true (Telemetry.trace shard = None);
  check_bool "fork registry is fresh" true
    (M.find_counter (Telemetry.metrics shard) "n" = None);
  M.inc ~by:3 (M.counter (Telemetry.metrics shard) "n");
  M.merge_into ~dst:(Telemetry.metrics parent) ~src:(Telemetry.metrics shard);
  check_bool "merge folds the shard back" true
    (M.find_counter (Telemetry.metrics parent) "n" = Some 5)

(* --- nicsim integration --- *)

let target = Costmodel.Target.bluefield2

let mk_table name field =
  P4ir.Table.make ~name
    ~keys:[ P4ir.Builder.exact_key field ]
    ~actions:[ P4ir.Builder.forward_action "act"; P4ir.Action.nop "def" ]
    ~default_action:"def"
    ~entries:
      (List.init 3 (fun j -> P4ir.Table.entry [ P4ir.Pattern.Exact (Int64.of_int j) ] "act"))
    ()

let program () =
  P4ir.Program.linear "tel"
    [ mk_table "t0" P4ir.Field.Ipv4_src; mk_table "t1" P4ir.Field.Ipv4_dst ]

let source seed =
  let rng = Stdx.Prng.create seed in
  let flows =
    Traffic.Workload.random_flows rng ~n:64
      ~fields:[ P4ir.Field.Ipv4_src; P4ir.Field.Ipv4_dst ]
  in
  Traffic.Workload.of_flows rng flows

let run_with_sink driver =
  let tel = Telemetry.create () in
  let sim = Nicsim.Sim.create ~telemetry:tel target (program ()) in
  ignore (driver sim (source 9L));
  Telemetry.metrics tel

let metrics_equal name ma mb =
  Alcotest.(check (list string)) (name ^ ": same metric names") (M.names ma) (M.names mb);
  List.iter
    (fun n ->
      (match (M.find_counter ma n, M.find_counter mb n) with
      | Some a, Some b -> check_int (Printf.sprintf "%s: counter %s" name n) a b
      | None, None -> ()
      | _ -> Alcotest.failf "%s: counter %s present on one side only" name n);
      (match (M.find_gauge ma n, M.find_gauge mb n) with
      | Some a, Some b ->
        check_bool (Printf.sprintf "%s: gauge %s" name n) true (Float.equal a b)
      | None, None -> ()
      | _ -> Alcotest.failf "%s: gauge %s present on one side only" name n);
      match (M.find_histogram ma n, M.find_histogram mb n) with
      | Some a, Some b ->
        check_bool (Printf.sprintf "%s: histogram %s buckets" name n) true
          (H.bucket_counts a = H.bucket_counts b)
      | None, None -> ()
      | _ -> Alcotest.failf "%s: histogram %s present on one side only" name n)
    (M.names ma)

let test_sim_metrics_driver_independent () =
  (* The reference interpreter and the compiled walk must land the exact
     same counters and histogram buckets: the walk only changes
     dispatch. *)
  let seq = run_with_sink (fun sim source ->
      Nicsim.Sim.run_window_reference sim ~duration:1.0 ~packets:600 ~source)
  in
  let batched = run_with_sink (fun sim source ->
      Nicsim.Sim.run_window sim ~duration:1.0 ~packets:600 ~source)
  in
  check_bool "packets counted" true (M.find_counter seq "nicsim.packets" = Some 600);
  check_bool "latency histogram filled" true
    (match M.find_histogram seq "nicsim.latency" with
    | Some h -> H.count h = 600
    | None -> false);
  metrics_equal "batched" seq batched

let stats_bits (s : Nicsim.Sim.window_stats) =
  List.map Int64.bits_of_float
    [ s.window_start; s.window_duration; s.avg_latency; s.p99_latency; s.p50_latency;
      s.p90_latency; s.p999_latency; s.throughput_gbps; s.drop_fraction ]

let test_sim_stats_observe_only () =
  (* The sink must not perturb the simulation: stats with a full
     metrics+tracing sink are bit-identical to stats with the null sink. *)
  let run tel =
    let sim = Nicsim.Sim.create ~telemetry:tel target (program ()) in
    Nicsim.Sim.run_window sim ~duration:1.0 ~packets:600 ~source:(source 9L)
  in
  let plain = run Telemetry.null in
  let observed = run (Telemetry.create ~trace_capacity:4096 ~trace_sample_every:7 ()) in
  check_bool "stats bit-identical" true (stats_bits plain = stats_bits observed);
  check_int "sampled packets" plain.Nicsim.Sim.sampled_packets
    observed.Nicsim.Sim.sampled_packets

let test_sim_trace_sampling () =
  let tel = Telemetry.create ~trace_capacity:4096 ~trace_sample_every:7 () in
  let sim = Nicsim.Sim.create ~telemetry:tel target (program ()) in
  ignore (Nicsim.Sim.run_window sim ~duration:1.0 ~packets:100 ~source:(source 9L));
  let ring = Option.get (Telemetry.trace tel) in
  let spans = Tr.spans ring in
  check_bool "spans collected" true (spans <> []);
  check_bool "only sampled sequence numbers" true
    (List.for_all (fun (s : Tr.span) -> s.Tr.tid mod 7 = 0) spans);
  (* Sequence numbers are 1-based, so 100 packets sample seq 7, 14, ...,
     98: 14 packets, one packet-level span each, plus per-node spans. *)
  check_int "one packet span per sampled packet" 14
    (List.length (List.filter (fun (s : Tr.span) -> s.Tr.cat = "packet") spans));
  check_bool "table spans present" true
    (List.exists (fun (s : Tr.span) -> s.Tr.cat = "table") spans)

let () =
  Alcotest.run "telemetry"
    [ ( "histogram",
        [ Alcotest.test_case "empty" `Quick test_hist_empty;
          Alcotest.test_case "single sample exact" `Quick test_hist_single_sample_exact;
          Alcotest.test_case "zero bucket" `Quick test_hist_zero_bucket;
          prop_bucket_bounds;
          prop_quantile_error_bound;
          prop_merge_equals_single;
          Alcotest.test_case "merge mismatch" `Quick test_hist_merge_sub_bits_mismatch ] );
      ( "metrics",
        [ Alcotest.test_case "counters/gauges/histograms" `Quick test_metrics_basic;
          Alcotest.test_case "kind mismatch" `Quick test_metrics_kind_mismatch;
          Alcotest.test_case "merge" `Quick test_metrics_merge;
          Alcotest.test_case "prometheus names" `Quick test_metrics_prometheus_sanitized ] );
      ( "trace",
        [ Alcotest.test_case "ring overwrite" `Quick test_trace_ring_overwrite;
          Alcotest.test_case "chrome json" `Quick test_trace_chrome_json ] );
      ( "sink",
        [ Alcotest.test_case "null" `Quick test_null_sink;
          Alcotest.test_case "sampling cadence" `Quick test_should_trace_cadence;
          Alcotest.test_case "fork and merge" `Quick test_fork_merge ] );
      ( "nicsim",
        [ Alcotest.test_case "driver-independent metrics" `Quick
            test_sim_metrics_driver_independent;
          Alcotest.test_case "observe-only stats" `Quick test_sim_stats_observe_only;
          Alcotest.test_case "trace sampling" `Quick test_sim_trace_sampling ] ) ]
