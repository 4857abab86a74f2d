type t = {
  tgt : Costmodel.Target.t;
  mutable ex : Exec.t;
  mutable clock : float;
  mutable counter_baseline : Profile.Counter.t;
  mutable last_profile_time : float;
  mutable lat_scratch : float array;  (* reused latency buffer, one slot per packet *)
  (* Per-sim scratch for the window (the burst and its per-lane seq/now
     inputs), reused so a steady-state window loop allocates nothing per
     window. *)
  mutable burst_scratch : Packet.t array;
  mutable seq_scratch : int array;
  mutable now_scratch : float array;
  lat_hist : Telemetry.Histogram.t;  (* per-window latency histogram, reset in [finish] *)
  mutable deploy_fault : (unit -> string option) option;
      (* consulted after a reconfigure/hot_patch lands; Some reason vetoes
         the deploy (fault injection — Runtime.Faults installs this) *)
}

exception Deploy_failed of string

let create ?config ?telemetry tgt prog =
  let cfg = match config with Some c -> c | None -> Exec.default_config tgt in
  let ex = Exec.create cfg prog in
  (match telemetry with Some tel -> Exec.set_telemetry ex tel | None -> ());
  { tgt;
    ex;
    clock = 0.;
    counter_baseline = Profile.Counter.create ();
    last_profile_time = 0.;
    lat_scratch = [||];
    burst_scratch = [||];
    seq_scratch = [||];
    now_scratch = [||];
    lat_hist = Telemetry.Histogram.create ();
    deploy_fault = None }

let exec t = t.ex
let target t = t.tgt
let now t = t.clock
let advance t dt = t.clock <- t.clock +. Float.max 0. dt

let telemetry t = Exec.telemetry t.ex
let set_telemetry t tel = Exec.set_telemetry t.ex tel

type window_stats = {
  window_start : float;
  window_duration : float;
  sampled_packets : int;
  sampled_drops : int;
  avg_latency : float;
  p99_latency : float;
  p50_latency : float;
  p90_latency : float;
  p999_latency : float;
  throughput_gbps : float;
  drop_fraction : float;
}

(* Exact-size reusable latency buffer: in-place sorting (below) must not
   see stale slots from a larger previous window, and typical callers run
   fixed-size windows in a loop, so exact-size means one allocation total. *)
let scratch t packets =
  if Array.length t.lat_scratch <> packets then t.lat_scratch <- Array.make packets 0.;
  t.lat_scratch

(* Fold a filled latency buffer into stats and advance the clock. The
   summation runs in packet-index order so the window and the reference
   produce bit-identical floats; the
   histogram fill rides the same pass (bucket increments, order-free).
   avg/p99 keep the original sorted-scratch computation bit for bit; the
   p50/p90/p99.9 trio is histogram-derived (<= 3.125% high). *)
let finish t ~start ~duration ~packets ~drops latencies =
  t.clock <- start +. duration;
  let hist = t.lat_hist in
  Telemetry.Histogram.clear hist;
  (* One bulk call instead of a per-packet [record]: a cross-module
     per-sample call boxes its float argument without flambda, and this
     loop runs once per packet per window. The histogram's own sum
     accumulates in array order, bit-identical to summing here. *)
  Telemetry.Histogram.record_array hist ~n:packets latencies;
  let avg = Telemetry.Histogram.sum hist /. float_of_int packets in
  (* Monomorphic float sort: Array.sort Float.compare boxes both floats
     on every comparison. Same sorted values (latencies are NaN-free),
     so the percentiles are bit-identical. *)
  Stdx.Fsort.sort latencies;
  let p99 = latencies.(min (packets - 1) (packets * 99 / 100)) in
  let tel = Exec.telemetry t.ex in
  let throughput = Costmodel.Target.throughput_gbps t.tgt ~latency:avg in
  let drop_fraction = float_of_int drops /. float_of_int packets in
  if Telemetry.enabled tel then begin
    let m = Telemetry.metrics tel in
    Telemetry.Histogram.merge_into
      ~dst:(Telemetry.Metrics.histogram m "nicsim.latency") ~src:hist;
    Telemetry.Metrics.inc (Telemetry.Metrics.counter m "nicsim.windows");
    Telemetry.Metrics.set (Telemetry.Metrics.gauge m "nicsim.window.throughput_gbps") throughput;
    Telemetry.Metrics.set (Telemetry.Metrics.gauge m "nicsim.window.avg_latency") avg;
    Telemetry.Metrics.set (Telemetry.Metrics.gauge m "nicsim.window.drop_fraction") drop_fraction;
    (* Table occupancy after the window: one gauge per engine. *)
    List.iter
      (fun (_, (tab : P4ir.Table.t)) ->
        match Exec.engine t.ex tab.name with
        | Some eng ->
          Telemetry.Metrics.set
            (Telemetry.Metrics.gauge m ("nicsim.table." ^ tab.name ^ ".entries"))
            (float_of_int (Engine.num_entries eng))
        | None -> ())
      (P4ir.Program.tables (Exec.program t.ex))
  end;
  { window_start = start;
    window_duration = duration;
    sampled_packets = packets;
    sampled_drops = drops;
    avg_latency = avg;
    p99_latency = p99;
    p50_latency = Telemetry.Histogram.quantile hist 0.5;
    p90_latency = Telemetry.Histogram.quantile hist 0.9;
    p999_latency = Telemetry.Histogram.quantile hist 0.999;
    throughput_gbps = throughput;
    drop_fraction }

let packet_time ~start ~duration ~packets i =
  start +. (duration *. float_of_int i /. float_of_int packets)

let run_window_reference t ~duration ~packets ~source =
  if packets <= 0 then invalid_arg "Sim.run_window_reference: packets must be positive";
  let start = t.clock in
  let latencies = scratch t packets in
  let drops = ref 0 in
  for i = 0 to packets - 1 do
    let pkt = source () in
    latencies.(i) <- Exec.run_packet t.ex ~now:(packet_time ~start ~duration ~packets i) pkt;
    if Packet.is_dropped pkt then incr drops
  done;
  finish t ~start ~duration ~packets ~drops:!drops latencies

let burst = 64

(* Parks the staging slots between windows, so a sim does not keep the
   last window's packets alive. Never executed, so sharing it across
   sims and domains is safe. *)
let idle_packet = Packet.create ()

(* Exact-size reusable burst buffer, same rationale as [scratch]: a
   steady-state window loop allocates it once. *)
let burst_buf t n =
  if Array.length t.burst_scratch <> n then begin
    t.burst_scratch <- Array.make n idle_packet;
    t.seq_scratch <- Array.make n 0;
    t.now_scratch <- Array.make n 0.
  end;
  t.burst_scratch

let run_window t ~duration ~packets ~source =
  if packets <= 0 then invalid_arg "Sim.run_window: packets must be positive";
  let start = t.clock in
  let latencies = scratch t packets in
  let pkts = burst_buf t (min burst packets) in
  let seqs = t.seq_scratch and nows = t.now_scratch in
  let fpackets = float_of_int packets in
  let drops = ref 0 in
  let pos = ref 0 in
  while !pos < packets do
    let n = min burst (packets - !pos) in
    (* Pull the burst in index order: the source sees the same call
       sequence as the one-at-a-time reference loop. *)
    for i = 0 to n - 1 do
      pkts.(i) <- source ()
    done;
    let base = !pos in
    let base_seen = Exec.packets_seen t.ex in
    (* [packet_time] open-coded: a call through a float-returning
       function would box every result, and this loop must not allocate.
       Same formula, same operand order, bit-identical timestamps. *)
    for i = 0 to n - 1 do
      Array.unsafe_set seqs i (base_seen + i + 1);
      Array.unsafe_set nows i (start +. (duration *. float_of_int (base + i) /. fpackets))
    done;
    drops := !drops + Exec.run_batch t.ex ~seqs ~nows ~pos:base ~n ~out:latencies pkts;
    pos := base + n
  done;
  Array.fill pkts 0 (Array.length pkts) idle_packet;
  finish t ~start ~duration ~packets ~drops:!drops latencies

let run_window_compiled ?soa:_ t ~duration ~packets ~source =
  run_window t ~duration ~packets ~source

let insert t ~table entry = Engine.insert (Exec.engine_exn t.ex table) entry

let delete t ~table ~patterns = Engine.delete (Exec.engine_exn t.ex table) ~patterns

let set_deploy_fault t hook = t.deploy_fault <- hook

(* The fault hook runs after the new program is installed and the
   downtime is charged: an injected failure models a deployment that came
   up and failed verification, leaving the unverified program running
   until the caller (the runtime controller) rolls back. *)
let verify_deploy t =
  match t.deploy_fault with
  | None -> ()
  | Some hook -> (
    match hook () with None -> () | Some reason -> raise (Deploy_failed reason))

let reconfigure ?config ?(downtime = 0.) t prog =
  let cfg = match config with Some c -> c | None -> Exec.config t.ex in
  let old_ex = t.ex in
  let fresh = Exec.create cfg prog in
  Exec.set_telemetry fresh (Exec.telemetry old_ex);
  (* Live reconfiguration keeps the dynamic state of surviving tables;
     caches restart cold. *)
  List.iter
    (fun (_, (tab : P4ir.Table.t)) ->
      match tab.role with
      | P4ir.Table.Cache _ -> ()
      | _ -> (
        match Exec.engine old_ex tab.name with
        | Some old_engine ->
          Engine.load_entries (Exec.engine_exn fresh tab.name) (Engine.entries old_engine)
        | None -> ()))
    (P4ir.Program.tables prog);
  t.ex <- fresh;
  t.counter_baseline <- Profile.Counter.create ();
  advance t downtime;
  verify_deploy t

let hot_patch ?(downtime_per_table = 0.02) t prog =
  let changed = Exec.replace_program t.ex prog in
  advance t (downtime_per_table *. float_of_int changed);
  verify_deploy t;
  changed

let current_profile ?window t =
  let elapsed =
    match window with
    | Some w -> w
    | None -> Float.max 1e-9 (t.clock -. t.last_profile_time)
  in
  t.last_profile_time <- t.clock;
  let current = Exec.counters t.ex in
  let delta = Profile.Counter.diff ~current ~baseline:t.counter_baseline in
  t.counter_baseline <- Profile.Counter.snapshot current;
  (* Record control-plane update rates as ["update"]-labelled counts so
     Profile.of_counters picks them up. *)
  let prog = Exec.program t.ex in
  List.iter
    (fun (_, (tab : P4ir.Table.t)) ->
      match Exec.engine t.ex tab.name with
      | Some eng ->
        let updates = Engine.take_update_count eng in
        if updates > 0 then
          Profile.Counter.incr ~by:(Int64.of_int updates) delta ~owner:tab.name
            ~label:"update"
      | None -> ())
    (P4ir.Program.tables prog);
  Profile.of_counters ~window:elapsed prog delta
