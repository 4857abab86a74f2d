(* Benchmark harness: regenerates every data table/figure of the paper
   (see DESIGN.md's per-experiment index) and, with [--bechamel], runs a
   Bechamel micro-suite with one Test.make per figure timing the kernel
   behind that experiment.

   Usage:
     main.exe                  run every experiment
     main.exe fig9a fig13      run selected experiments
     main.exe list             list experiment names
     main.exe --scale 0.2 ...  shrink ensembles for a quick pass
     main.exe --bechamel       run the Bechamel micro-suite
     main.exe perf             nicsim fast-path suite -> BENCH_nicsim.json
     main.exe perf --smoke     same, tiny iteration counts (CI)
     main.exe perf --out F     write the JSON artifact to F *)

let target = Costmodel.Target.bluefield2

(* --- Bechamel micro-suite: the kernel behind each figure --- *)

let synth_prog_prof seed =
  let rng = Stdx.Prng.create seed in
  let prog = Experiments.Synth.program rng in
  let prof = Experiments.Synth.profile rng prog in
  (prog, prof)

let bechamel_tests () =
  let open Bechamel in
  let prog, prof = synth_prog_prof 1L in
  let tabs =
    P4ir.Builder.exact_chain ~prefix:"b" ~n:4
      ~key_of:(fun i ->
        [| P4ir.Field.Ipv4_src; P4ir.Field.Ipv4_dst; P4ir.Field.Tcp_sport;
           P4ir.Field.Tcp_dport |].(i mod 4))
      ()
  in
  let chain22 =
    P4ir.Program.linear "b22"
      (P4ir.Builder.exact_chain ~prefix:"c" ~n:22 ~key_of:(fun _ -> P4ir.Field.Ipv4_dst) ())
  in
  let exec = Nicsim.Exec.create (Nicsim.Exec.default_config target) chain22 in
  let pkt = Nicsim.Packet.create () in
  let uniform22 = Profile.uniform chain22 in
  let optimizer_cfg k =
    { Pipeleon.Optimizer.default_config with top_k = k; enable_groups = false }
  in
  [ Test.make ~name:"fig2:reorder-greedy"
      (Staged.stage (fun () -> Pipeleon.Reorder.greedy_drop_order prof tabs));
    Test.make ~name:"fig5:cost-model-eval"
      (Staged.stage (fun () -> Costmodel.Cost.expected_latency target uniform22 chain22));
    Test.make ~name:"fig9a:sim-packet"
      (Staged.stage (fun () -> Nicsim.Exec.run_packet exec ~now:0. pkt));
    Test.make ~name:"fig9c:cache-build"
      (Staged.stage (fun () -> Pipeleon.Cache.build ~name:"bc" tabs));
    Test.make ~name:"fig9d:merge-build"
      (Staged.stage (fun () ->
           Pipeleon.Merge.build_ternary ~name:"bm"
             (List.filteri (fun i _ -> i < 2) tabs)));
    Test.make ~name:"fig10:candidate-enum"
      (Staged.stage (fun () -> Pipeleon.Candidate.enumerate prof tabs));
    Test.make ~name:"fig11:controller-optimize"
      (Staged.stage (fun () ->
           Pipeleon.Optimizer.optimize ~config:(optimizer_cfg 0.3) target prof prog));
    Test.make ~name:"fig12:instrument-analysis"
      (Staged.stage (fun () -> Pipeleon.Instrument.expected_updates_per_packet prof prog));
    Test.make ~name:"fig13:esearch"
      (Staged.stage (fun () ->
           Pipeleon.Optimizer.optimize ~config:(optimizer_cfg 1.0) target prof prog));
    Test.make ~name:"fig14:pipelet-entropy"
      (Staged.stage (fun () -> Experiments.Synth.pipelet_entropy prof prog));
    Test.make ~name:"fig15:group-detect"
      (Staged.stage (fun () ->
           Pipeleon.Group.detect prog ~candidates:(Pipeleon.Pipelet.form prog)));
    Test.make ~name:"fig17:placement-opt"
      (Staged.stage (fun () ->
           Pipeleon.Placement.optimize target prof prog ~require:(fun _ -> Pipeleon.Placement.Any)));
    Test.make ~name:"fig18:reach-probs"
      (Staged.stage (fun () -> Costmodel.Cost.reach_probs prof prog));
    (* Substrate kernels behind every figure's simulation. *)
    (let exact_eng =
       Nicsim.Engine.create
         (P4ir.Table.make ~name:"e"
            ~keys:[ P4ir.Table.key P4ir.Field.Ipv4_dst P4ir.Match_kind.Exact ]
            ~actions:[ P4ir.Action.nop "a" ]
            ~default_action:"a"
            ~entries:
              (List.init 1024 (fun i ->
                   P4ir.Table.entry [ P4ir.Pattern.Exact (Int64.of_int i) ] "a"))
            ())
     in
     let probe = Nicsim.Packet.of_fields [ (P4ir.Field.Ipv4_dst, 512L) ] in
     Test.make ~name:"engine:exact-1k-entries"
       (Staged.stage (fun () -> Nicsim.Engine.probe exact_eng probe)));
    (let tern_eng =
       Nicsim.Engine.create
         (P4ir.Table.make ~name:"t"
            ~keys:[ P4ir.Table.key P4ir.Field.Ipv4_dst P4ir.Match_kind.Ternary ]
            ~actions:[ P4ir.Action.nop "a" ]
            ~default_action:"a"
            ~entries:
              (List.init 100 (fun i ->
                   let mask = [| 0xFFL; 0xFF00L; 0xFFFFL; 0xFF0000L; 0xFFFFFFL |].(i mod 5) in
                   P4ir.Table.entry ~priority:i
                     [ P4ir.Pattern.Ternary (Int64.of_int i, mask) ]
                     "a"))
            ())
     in
     let probe = Nicsim.Packet.of_fields [ (P4ir.Field.Ipv4_dst, 77L) ] in
     Test.make ~name:"engine:ternary-5-masks"
       (Staged.stage (fun () -> Nicsim.Engine.probe tern_eng probe)));
    (let groups =
       List.init 12 (fun g ->
           List.init 5 (fun i ->
               { Pipeleon.Knapsack.gain = float_of_int ((g * 7) + i);
                 mem = 1024 * (i + 1);
                 upd = float_of_int (i * 100);
                 tag = i }))
     in
     Test.make ~name:"search:knapsack-12x5"
       (Staged.stage (fun () ->
            Pipeleon.Knapsack.solve ~groups ~mem_budget:(64 * 1024) ~upd_budget:2000. ())));
    (let tabs =
       P4ir.Builder.exact_chain ~prefix:"k" ~n:3
         ~key_of:(fun i ->
           [| P4ir.Field.Ipv4_src; P4ir.Field.Ipv4_dst; P4ir.Field.Tcp_sport |].(i))
         ()
     in
     let uniform = Profile.uniform (P4ir.Program.linear "k" tabs) in
     let ctx = Pipeleon.Candidate.context target uniform ~reach_prob:1.0 tabs in
     let combo =
       { Pipeleon.Candidate.order = [ 0; 1; 2 ];
         segs = [ { Pipeleon.Candidate.pos = 0; len = 3; kind = Pipeleon.Candidate.Cache_seg } ] }
     in
     Test.make ~name:"search:analytic-eval"
       (Staged.stage (fun () -> Pipeleon.Candidate.evaluate_analytic ctx combo))) ]

let run_bechamel () =
  let open Bechamel in
  let open Toolkit in
  print_endline "Bechamel micro-suite (one Test.make per figure kernel):";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instance = Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:None ()
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      let analyzed = Analyze.all ols instance results in
      Hashtbl.iter
        (fun name ols_result ->
          let ns =
            match Analyze.OLS.estimates ols_result with
            | Some (x :: _) -> x
            | _ -> nan
          in
          Printf.printf "  %-28s %12.1f ns/run\n%!" name ns)
        analyzed)
    (bechamel_tests ())

(* --- CLI --- *)

let run_perf args =
  let rec parse args smoke out =
    match args with
    | [] -> (smoke, out)
    | "--smoke" :: rest -> parse rest true out
    | "--out" :: f :: rest -> parse rest smoke f
    | a :: _ ->
      Printf.eprintf "perf: unknown argument %s\n" a;
      exit 2
  in
  let smoke, out = parse args false "BENCH_nicsim.json" in
  Perf.run ~smoke ~out

let usage () =
  print_endline
    "usage: main.exe [--scale F] [--bechamel] [perf [--smoke] [--out F] | list | all | \
     <experiment>...]";
  print_endline "experiments:";
  List.iter
    (fun (e : Experiments.Registry.entry) ->
      Printf.printf "  %-10s %s\n" e.name e.description)
    Experiments.Registry.all

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  (match args with
   | "perf" :: rest ->
     run_perf rest;
     exit 0
   | _ -> ());
  let rec parse args names bechamel =
    match args with
    | [] -> (List.rev names, bechamel)
    | "--scale" :: v :: rest ->
      (match float_of_string_opt v with
       | Some f when f > 0. -> Experiments.Harness.scale := f
       | _ ->
         prerr_endline "bad --scale value";
         exit 2);
      parse rest names bechamel
    | "--bechamel" :: rest -> parse rest names true
    | "--help" :: _ | "-h" :: _ ->
      usage ();
      exit 0
    | "list" :: _ ->
      usage ();
      exit 0
    | name :: rest -> parse rest (name :: names) bechamel
  in
  let names, bechamel = parse args [] false in
  let t0 = Unix.gettimeofday () in
  if bechamel then run_bechamel ()
  else begin
    let entries =
      match names with
      | [] | [ "all" ] -> Experiments.Registry.all
      | names ->
        List.map
          (fun n ->
            match Experiments.Registry.find n with
            | Some e -> e
            | None ->
              Printf.eprintf "unknown experiment %s (try: list)\n" n;
              exit 2)
          names
    in
    List.iter (fun (e : Experiments.Registry.entry) -> e.run ()) entries
  end;
  Printf.printf "\ntotal wall time: %.1fs\n" (Unix.gettimeofday () -. t0)
