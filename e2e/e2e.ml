(* End-to-end benchmark runner (README.md):

     e2e.exe --workload NAME --seed N --seconds S --trace 0|1

   run from the repository root (fixtures are read from e2e/fixtures,
   span traces written to e2e/_out).

   A run is a sequence of episodes. An episode sets the system up from
   its fixture (load, create, one untimed warm-up round) and then runs
   the workload's fixed number of timed rounds, so every episode of a
   seed replays the same emulated behaviour: the emulated metrics come
   from the first episode, and every later episode must reproduce them
   and its tick reports bit for bit. Episodes repeat until [--seconds]
   have passed. Each wall-clock metric is computed per episode and the
   run reports the best episode (set-up time: the median), because
   other tenants of a shared host only ever add time. With [--trace 1]
   episodes alternate untraced and traced (telemetry sinks on, an
   explicit compile after every deploy, one span per layer per round),
   and the run reports the traced episodes' per-layer ledger instead.

   The last line of standard output is one JSON object,
   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
   Exit code 1 means a check failed, 2 a usage error, 3 that the
   metrics printed disagree with BENCHMARK.json. *)

let fixtures = "e2e/fixtures"
let out_dir = "e2e/_out"
let now_ns () = Int64.to_int (Monotonic_clock.now ())

module Samples = struct
  type t = { mutable data : float array; mutable n : int }

  let create () = { data = Array.make 256 0.; n = 0 }
  let clear s = s.n <- 0

  let add s x =
    if s.n = Array.length s.data then begin
      let d = Array.make (2 * s.n) 0. in
      Array.blit s.data 0 d 0 s.n;
      s.data <- d
    end;
    s.data.(s.n) <- x;
    s.n <- s.n + 1

  let mean s =
    let t = ref 0. in
    for i = 0 to s.n - 1 do
      t := !t +. s.data.(i)
    done;
    if s.n = 0 then 0. else !t /. float_of_int s.n

  (* Nearest rank; 0 for no samples. *)
  let percentile s q =
    if s.n = 0 then 0.
    else begin
      let a = Array.sub s.data 0 s.n in
      Stdx.Fsort.sort a;
      a.(max 0 (min (s.n - 1) (int_of_float (Float.ceil (q *. float_of_int s.n)) - 1)))
    end
end

type metric = { name : string; unit : string; value : float; samples : int }

let m ?(samples = 0) name unit value = { name; unit; value; samples }
let ratio a b = if b = 0. then 0. else a /. b

(* --- accounting --- *)

(* The layers of the round loop, in the order a round runs them. *)
let traffic = 0
and window = 1
and check = 2
and update = 3
and tick = 4
and compile = 5

let layer_names = [| "traffic"; "window"; "check"; "update"; "tick"; "compile" |]

(* Telemetry totals read from the NICs' registries. *)
let tab_hit = 0
and tab_miss = 1
and cache_hit = 2
and cache_miss = 3
and opt_runs = 4
and candidates = 5
and dp_cells = 6
and warm_hit = 7
and warm_miss = 8
and search_s = 9

let tel_totals reg =
  let t = Array.make 10 0. in
  let add i name =
    let v = Option.value ~default:0 (Telemetry.Metrics.find_counter reg name) in
    t.(i) <- t.(i) +. float_of_int v
  in
  List.iter
    (fun name ->
      let starts p = String.starts_with ~prefix:p name in
      let hit = String.ends_with ~suffix:".hit" name in
      let miss = String.ends_with ~suffix:".miss" name in
      if starts "nicsim.table." || starts "nicsim.merged." then begin
        if hit then add tab_hit name else if miss then add tab_miss name
      end
      else if starts "nicsim.cache." then begin
        if hit then add cache_hit name else if miss then add cache_miss name
      end)
    (Telemetry.Metrics.names reg);
  add opt_runs "optimizer.runs";
  add candidates "optimizer.candidates_examined";
  add dp_cells "optimizer.knapsack.dp_cells";
  add warm_hit "optimizer.cache.hit";
  add warm_miss "optimizer.cache.miss";
  (match Telemetry.Metrics.find_histogram reg "optimizer.search_seconds" with
   | Some h -> t.(search_s) <- Telemetry.Histogram.sum h
   | None -> ());
  t

(* Accounting for one kind of episode (untraced or traced). Totals pool
   over the run; the sample buffers hold the current episode's. Times in
   ns unless named otherwise. *)
type acc = {
  layer_ns : int array;
  mutable loop_ns : int;  (* the timed round loops, end to end *)
  mutable rounds : int;
  mutable packets : int;
  mutable updates : int;
  mutable soa_windows : int;
  mutable minor_words : float;  (* allocated during windows *)
  mutable major_collections : int;
  mutable member_ticks : int;
  mutable opt_elapsed_s : float;  (* optimizer CPU time the tick reports carry *)
  tel : float array;  (* telemetry totals over the timed rounds *)
  window_ms : Samples.t;
  tick_ms : Samples.t;
  update_us : Samples.t;
  compile_ms : Samples.t;
  load_ms : Samples.t;
  create_ms : Samples.t;
  warmup_ms : Samples.t;
  live_mb : Samples.t;  (* heap held after each episode *)
  mutable walls : metric list list;  (* each episode's wall-clock metrics *)
}

let new_acc () =
  { layer_ns = Array.make (Array.length layer_names) 0;
    loop_ns = 0;
    rounds = 0;
    packets = 0;
    updates = 0;
    soa_windows = 0;
    minor_words = 0.;
    major_collections = 0;
    member_ticks = 0;
    opt_elapsed_s = 0.;
    tel = Array.make 10 0.;
    window_ms = Samples.create ();
    tick_ms = Samples.create ();
    update_us = Samples.create ();
    compile_ms = Samples.create ();
    load_ms = Samples.create ();
    create_ms = Samples.create ();
    warmup_ms = Samples.create ();
    live_mb = Samples.create ();
    walls = [] }

let busy_ns acc = acc.layer_ns.(window) + acc.layer_ns.(update) + acc.layer_ns.(tick)

(* What one episode emulated: a function of the seed alone. *)
type emu = {
  mutable lat_sum : float;  (* packet-weighted emulated latency *)
  mutable lat_packets : int;
  p99 : Samples.t;  (* exact p99 of each window *)
  mutable downtime : float;
  mutable redeploys : int;
  mutable tables_rebuilt : int;
  mutable digest : string;  (* of every tick report, warm-up included *)
}

let new_emu () =
  { lat_sum = 0.;
    lat_packets = 0;
    p99 = Samples.create ();
    downtime = 0.;
    redeploys = 0;
    tables_rebuilt = 0;
    digest = "" }

let emu_lat_avg e = e.lat_sum /. float_of_int (max 1 e.lat_packets)
let emu_lat_p99 e = Samples.percentile e.p99 0.5

type status = { mutable attempted : int; mutable failed : int }

let status = { attempted = 0; failed = 0 }

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      status.failed <- status.failed + 1;
      if status.failed <= 10 then prerr_endline ("check failed: " ^ msg))
    fmt

(* --- the round loop --- *)

type ctx = {
  w : Workloads.t;
  seed : int;
  domains : int;
  run_start : int;
  spans : Telemetry.Trace.t;
}

let span ctx ~episode ~round name cat t0 t1 =
  Telemetry.Trace.add ctx.spans
    { Telemetry.Trace.name;
      cat;
      ts = float_of_int (t0 - ctx.run_start) /. 1e3;
      dur = float_of_int (t1 - t0) /. 1e3;
      tid = 0;
      args = [ ("episode", string_of_int episode); ("round", string_of_int round) ] }

(* One round; returns the ns spent in explicit compiles. *)
let round ctx (inst : Workloads.instance) emu acc ~episode ~traced ~timed r =
  let t0 = now_ns () in
  inst.generate r;
  let words0 = Gc.minor_words () in
  let t1 = now_ns () in
  let stats = inst.window () in
  let t2 = now_ns () in
  let words1 = Gc.minor_words () in
  let soa = traced && inst.soa_capable () in
  let checked, bad = inst.check () in
  if bad > 0 then fail "round %d: %d of %d sampled packets disagree with Refsim" r bad checked;
  if timed then
    Array.iter
      (fun (s : Nicsim.Sim.window_stats) ->
        emu.lat_sum <- emu.lat_sum +. (s.avg_latency *. float_of_int s.sampled_packets);
        emu.lat_packets <- emu.lat_packets + s.sampled_packets;
        Samples.add emu.p99 s.p99_latency)
      stats;
  let t3 = now_ns () in
  for u = 0 to inst.updates - 1 do
    let a = now_ns () in
    inst.update r u;
    if timed then Samples.add acc.update_us (float_of_int (now_ns () - a) /. 1e3)
  done;
  let t4 = now_ns () in
  let reports = inst.tick () in
  let t5 = now_ns () in
  let deployed = ref false in
  Array.iter
    (fun (rep : Runtime.Controller.tick_report) ->
      emu.digest <- Digest.string (emu.digest ^ Fleet.report_digest rep);
      match rep.deploy with
      | None -> ()
      | Some d when not d.installed ->
        fail "round %d: deploy not installed (%s)" r (Option.value ~default:"?" d.failure)
      | Some d ->
        deployed := true;
        if timed then begin
          emu.redeploys <- emu.redeploys + 1;
          emu.tables_rebuilt <- emu.tables_rebuilt + d.tables_rebuilt;
          emu.downtime <- emu.downtime +. d.downtime_seconds
        end)
    reports;
  status.attempted <-
    status.attempted + Array.length stats + checked + inst.updates + Array.length reports;
  let t6 = now_ns () in
  let compiled = traced && !deployed in
  if compiled then inst.precompile ();
  let t7 = now_ns () in
  if compiled then Samples.add acc.compile_ms (float_of_int (t7 - t6) /. 1e6);
  if timed then begin
    let add l ns = acc.layer_ns.(l) <- acc.layer_ns.(l) + ns in
    add traffic (t1 - t0);
    add window (t2 - t1);
    add check (t3 - t2 + (t6 - t5));
    add update (t4 - t3);
    add tick (t5 - t4);
    if compiled then add compile (t7 - t6);
    acc.rounds <- acc.rounds + 1;
    acc.packets <- acc.packets + inst.packets;
    acc.updates <- acc.updates + inst.updates;
    if soa then acc.soa_windows <- acc.soa_windows + 1;
    acc.minor_words <- acc.minor_words +. (words1 -. words0);
    acc.member_ticks <- acc.member_ticks + Array.length reports;
    Array.iter
      (fun (rep : Runtime.Controller.tick_report) ->
        acc.opt_elapsed_s <- acc.opt_elapsed_s +. rep.search_seconds)
      reports;
    Samples.add acc.window_ms (float_of_int (t2 - t1) /. 1e6);
    Samples.add acc.tick_ms (float_of_int (t5 - t4) /. 1e6);
    if traced then begin
      let s = span ctx ~episode ~round:r in
      s "round" "round" t0 t7;
      Array.iteri
        (fun l (a, b) -> if b > a then s layer_names.(l) "layer" a b)
        [| (t0, t1); (t1, t2); (t2, t3); (t3, t4); (t4, t5); (t6, if compiled then t7 else t6) |]
    end
  end;
  if compiled then t7 - t6 else 0

(* The end-to-end wall-clock metrics of one episode. *)
let episode_walls acc ~setup_s ~busy ~packets =
  let pct s name unit q = m ~samples:s.Samples.n name unit (Samples.percentile s q) in
  [ m "setup_s" "s" setup_s;
    m "loop_pps" "pkt/s" (float_of_int packets /. (float_of_int busy /. 1e9));
    pct acc.window_ms "window_ms_p50" "ms" 0.5;
    pct acc.window_ms "window_ms_p90" "ms" 0.9;
    pct acc.tick_ms "tick_ms_p50" "ms" 0.5;
    pct acc.tick_ms "tick_ms_p90" "ms" 0.9;
    pct acc.update_us "update_us_p50" "us" 0.5;
    pct acc.update_us "update_us_p90" "us" 0.9 ]

let episode ctx ~index ~traced acc =
  let w = ctx.w in
  (* Every episode starts from the same, compacted heap: no garbage of
     the previous episode left to collect. *)
  Gc.compact ();
  let t0 = now_ns () in
  let prog = P4lite.Lower.load_file (Filename.concat fixtures w.fixture) in
  let t1 = now_ns () in
  let inst = w.build ~seed:ctx.seed ~traced ~domains:ctx.domains prog in
  let t2 = now_ns () in
  if traced then begin
    inst.precompile ();
    Samples.add acc.compile_ms (float_of_int (now_ns () - t2) /. 1e6)
  end;
  let t3 = now_ns () in
  let emu = new_emu () in
  let warm_compile = round ctx inst emu acc ~episode:index ~traced ~timed:false 0 in
  (* Traced set-up excludes its explicit compiles (nicsim.compile_ms). *)
  let t4 = now_ns () - warm_compile in
  Samples.add acc.load_ms (float_of_int (t1 - t0) /. 1e6);
  Samples.add acc.create_ms (float_of_int (t2 - t1) /. 1e6);
  Samples.add acc.warmup_ms (float_of_int (t4 - t3) /. 1e6);
  List.iter Samples.clear [ acc.window_ms; acc.tick_ms; acc.update_us ];
  let tel0 = if traced then tel_totals (inst.metrics ()) else [||] in
  let majors0 = (Gc.quick_stat ()).major_collections in
  let busy0 = busy_ns acc and packets0 = acc.packets in
  let l0 = now_ns () in
  for r = 1 to w.rounds do
    ignore (round ctx inst emu acc ~episode:index ~traced ~timed:true r)
  done;
  acc.loop_ns <- acc.loop_ns + (now_ns () - l0);
  acc.major_collections <- acc.major_collections + (Gc.quick_stat ()).major_collections - majors0;
  if traced then
    Array.iteri
      (fun i v -> acc.tel.(i) <- acc.tel.(i) +. v -. tel0.(i))
      (tel_totals (inst.metrics ()));
  (* The heap the system holds on to after its episode: live words after
     a full collection, with the instance still reachable. *)
  Gc.full_major ();
  let live = (Gc.stat ()).live_words in
  ignore (Sys.opaque_identity inst);
  Samples.add acc.live_mb (float_of_int (live * (Sys.word_size / 8)) /. 1048576.);
  acc.walls <-
    episode_walls acc
      ~setup_s:(float_of_int (t4 - t3 + (t2 - t0)) /. 1e9)
      ~busy:(busy_ns acc - busy0) ~packets:(acc.packets - packets0)
    :: acc.walls;
  emu

(* --- metrics --- *)

(* Combine the episodes' wall metrics: the median set-up (sample count:
   episodes), the best episode for everything else (sample count: that
   episode's). *)
let combine walls =
  List.mapi
    (fun i (first : metric) ->
      let xs = List.map (fun ep -> List.nth ep i) walls in
      let by_value = List.sort (fun a b -> compare a.value b.value) xs in
      match first.name with
      | "setup_s" ->
        { (List.nth by_value (List.length xs / 2)) with samples = List.length xs }
      | "loop_pps" -> List.nth by_value (List.length xs - 1)
      | _ -> List.hd by_value)
    (List.hd walls)

(* Host-time p90s are per-layer metrics: on a shared host the slowest
   tenth of calls is where other tenants' bursts land, so across runs
   they spread wider than any usable bound. *)
let is_p90 x = String.ends_with ~suffix:"_p90" x.name

let end_to_end acc emu =
  List.filter (fun x -> not (is_p90 x)) (combine acc.walls)
  @ [ m ~samples:emu.lat_packets "emu_lat_avg" "lat_units" (emu_lat_avg emu);
      m ~samples:emu.p99.n "emu_lat_p99" "lat_units" (emu_lat_p99 emu);
      m ~samples:acc.live_mb.n "heap_live_mb" "MB" (Samples.percentile acc.live_mb 0.5) ]

let per_layer ~plain acc emu =
  let f = float_of_int in
  let t = acc.tel in
  let runs = t.(opt_runs) in
  let loop = f acc.loop_ns in
  let layer_pct l =
    m ("ledger." ^ layer_names.(l) ^ "_pct") "%" (100. *. ratio (f acc.layer_ns.(l)) loop)
  in
  (* Each traced episode against the untraced one just before it, so
     slow drift in the host's speed cancels; the median pair. *)
  let overhead =
    let pps a =
      List.rev_map (fun ep -> (List.find (fun x -> x.name = "loop_pps") ep).value) a.walls
    in
    let rec pairs a b =
      match (a, b) with x :: a, y :: b -> ((x /. y) -. 1.) :: pairs a b | _ -> []
    in
    let r = List.sort compare (pairs (pps plain) (pps acc)) in
    if r = [] then 0. else List.nth r (List.length r / 2)
  in
  List.filter is_p90 (combine plain.walls)
  @ [ m "p4lite.load_ms" "ms" (Samples.percentile acc.load_ms 0.5);
      m "setup.create_ms" "ms" (Samples.percentile acc.create_ms 0.5);
      m "setup.warmup_ms" "ms" (Samples.percentile acc.warmup_ms 0.5);
      m "traffic.gen_ns_per_pkt" "ns" (ratio (f acc.layer_ns.(traffic)) (f acc.packets));
      m "nicsim.window_ns_per_pkt" "ns" (ratio (f acc.layer_ns.(window)) (f acc.packets));
      m "nicsim.soa_window_share" "ratio" (ratio (f acc.soa_windows) (f acc.rounds));
      m "host.minor_words_per_pkt" "words" (ratio acc.minor_words (f acc.packets));
      m ~samples:acc.compile_ms.n "nicsim.compile_ms" "ms" (Samples.mean acc.compile_ms);
      m "nicsim.table_hit_ratio" "ratio" (ratio t.(tab_hit) (t.(tab_hit) +. t.(tab_miss)));
      m "nicsim.cache_hit_ratio" "ratio" (ratio t.(cache_hit) (t.(cache_hit) +. t.(cache_miss)));
      m "core.search_cpu_ms" "cpu_ms" (1e3 *. ratio t.(search_s) runs);
      m "core.realize_cpu_ms" "cpu_ms" (1e3 *. ratio (acc.opt_elapsed_s -. t.(search_s)) runs);
      m "core.candidates_examined" "count" (ratio t.(candidates) runs);
      m "core.knapsack_dp_cells" "count" (ratio t.(dp_cells) runs);
      m "core.warm_hit_ratio" "ratio" (ratio t.(warm_hit) (t.(warm_hit) +. t.(warm_miss)));
      m "runtime.tick_self_ms" "ms"
        (ratio ((f acc.layer_ns.(tick) /. 1e6) -. (acc.opt_elapsed_s *. 1e3)) (f acc.member_ticks));
      m "runtime.update_us" "us" (ratio (f acc.layer_ns.(update) /. 1e3) (f acc.updates));
      m "runtime.redeploys" "count" (f emu.redeploys);
      m "runtime.tables_rebuilt" "count" (f emu.tables_rebuilt);
      m "ledger.loop_ms" "ms" (ratio (loop /. 1e6) (f acc.rounds));
      layer_pct traffic;
      layer_pct window;
      layer_pct check;
      layer_pct update;
      layer_pct tick;
      layer_pct compile;
      m "ledger.unattributed_pct" "%"
        (100. *. ratio (loop -. f (Array.fold_left ( + ) 0 acc.layer_ns)) loop);
      m "telemetry.trace_overhead_pct" "%" (100. *. overhead);
      m "host.major_collections" "count" (ratio (f acc.major_collections) (f acc.rounds));
      m "bench.fail_frac" "ratio" (ratio (f status.failed) (f status.attempted)) ]

(* The metric list BENCHMARK.json declares for this mode, when the file
   is present: the printed metrics must match it name for name and unit
   for unit. *)
let declared ~trace =
  if not (Sys.file_exists "BENCHMARK.json") then None
  else
    let json =
      P4ir.Json.of_string_exn (In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all)
    in
    Some
      (List.map
         (fun e ->
           ( P4ir.Json.get_string (P4ir.Json.member "name" e),
             P4ir.Json.get_string (P4ir.Json.member "unit" e) ))
         (P4ir.Json.to_list (P4ir.Json.member (if trace then "per_layer" else "end_to_end") json)))

let json_result metrics =
  let b = Buffer.create 1024 in
  Printf.bprintf b "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {"
    (status.failed = 0) status.attempted status.failed;
  List.iteri
    (fun i x ->
      Printf.bprintf b "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}"
        (if i = 0 then "" else ", ")
        x.name x.value x.unit)
    metrics;
  Buffer.add_string b "}}";
  Buffer.contents b

let print_ledger acc =
  let loop = float_of_int acc.loop_ns in
  let row name ns =
    Printf.printf "  %-12s %12.3f ms  %9.4f ms/round  %6.2f%%\n" name (ns /. 1e6)
      (ns /. 1e6 /. float_of_int acc.rounds) (100. *. ns /. loop)
  in
  Printf.printf "ledger: %d traced rounds, round loop %.3f ms\n" acc.rounds (loop /. 1e6);
  Array.iteri (fun l name -> row name (float_of_int acc.layer_ns.(l))) layer_names;
  row "unattributed" (loop -. float_of_int (Array.fold_left ( + ) 0 acc.layer_ns))

(* --- command line --- *)

let usage () =
  prerr_endline
    ("usage: e2e.exe --workload "
    ^ String.concat "|" (List.map (fun (w : Workloads.t) -> w.name) Workloads.all)
    ^ " --seed N --seconds S --trace 0|1");
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let int_arg r = Arg.Int (fun n -> r := Some n) in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", int_arg seed, "N input seed");
      ("--seconds", int_arg seconds, "S measurement time");
      ("--trace", int_arg trace, "0|1 per-layer ledger instead of end-to-end metrics") ]
    (fun _ -> usage ())
    "e2e.exe --workload NAME --seed N --seconds S --trace 0|1";
  let w, seed, seconds, trace =
    match (Workloads.find !workload, !seed, !seconds, !trace) with
    | Some w, Some seed, Some s, Some t when s > 0 && (t = 0 || t = 1) -> (w, seed, s, t = 1)
    | _ -> usage ()
  in
  let nproc = Domain.recommended_domain_count () in
  (* A traced run ticks the fleet on one domain: the optimizer's clock is
     process CPU time, which under two busy domains counts both. Reports
     are identical for any domain count. *)
  let domains = if trace then 1 else min 2 nproc in
  Printf.printf
    "host: nproc=%d ocaml=%s flambda=%b profile=%s workload=%s seed=%d seconds=%d trace=%b \
     tick_domains=%d\n"
    nproc Sys.ocaml_version Build_info.flambda Build_info.profile w.name seed seconds trace domains;
  let ctx =
    { w; seed; domains; run_start = now_ns (); spans = Telemetry.Trace.create ~capacity:16384 () }
  in
  let plain = new_acc () and traced = new_acc () in
  let first = ref None and episodes = ref 0 in
  let deadline = ctx.run_start + (seconds * 1_000_000_000) in
  (* Start another episode while at least half of one still fits. *)
  let another () =
    !episodes < 3 || now_ns () + ((now_ns () - ctx.run_start) / (2 * !episodes)) < deadline
  in
  (try
     while another () do
       let is_traced = trace && !episodes mod 2 = 1 in
       let emu =
         episode ctx ~index:!episodes ~traced:is_traced (if is_traced then traced else plain)
       in
       (match !first with
        | None -> first := Some emu
        | Some e ->
          if
            emu_lat_avg e <> emu_lat_avg emu
            || emu_lat_p99 e <> emu_lat_p99 emu
            || e.digest <> emu.digest
          then fail "episode %d did not replay episode 0's emulated behaviour" !episodes);
       incr episodes
     done
   with e -> fail "exception: %s" (Printexc.to_string e));
  let metrics =
    match !first with
    | Some emu when status.failed = 0 ->
      if trace then per_layer ~plain traced emu else end_to_end plain emu
    | _ -> []
  in
  List.iter
    (fun x ->
      Printf.printf "%-30s %16.6f %-9s%s\n" x.name x.value x.unit
        (if x.samples > 0 then Printf.sprintf "  (n=%d)" x.samples else ""))
    metrics;
  (match !first with
   | Some emu ->
     Printf.printf "emulated per episode: downtime %.3f s, %d redeploys, %d tables rebuilt\n"
       emu.downtime emu.redeploys emu.tables_rebuilt
   | None -> ());
  Printf.printf "episodes=%d attempted=%d failed=%d fail_frac=%g\n" !episodes status.attempted
    status.failed
    (ratio (float_of_int status.failed) (float_of_int status.attempted));
  if metrics <> [] && trace then begin
    print_ledger traced;
    (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ());
    let file = Printf.sprintf "%s/%s-seed%d.trace.json" out_dir w.name seed in
    Telemetry.Trace.write_file ~process_name:("e2e " ^ w.name) ctx.spans file;
    Printf.printf "spans: %s\n" file
  end;
  (match declared ~trace with
   | Some decl when metrics <> [] && decl <> List.map (fun x -> (x.name, x.unit)) metrics ->
     prerr_endline "metrics printed disagree with BENCHMARK.json";
     exit 3
   | _ -> ());
  print_endline (json_result metrics);
  exit (if status.failed = 0 then 0 else 1)
