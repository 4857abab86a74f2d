type t = {
  tgt : Costmodel.Target.t;
  mutable ex : Exec.t;
  mutable clock : float;
  mutable counter_baseline : Profile.Counter.t;
  mutable last_profile_time : float;
  mutable lat_scratch : float array;  (* reused latency buffer, one slot per packet *)
  (* Per-sim scratch for the sequential window (the burst and its
     per-lane seq/now inputs) and the sharded window's packet staging
     and CSR shard layout — reused so a steady-state window loop
     allocates nothing per window. *)
  mutable burst_scratch : Packet.t array;
  mutable seq_scratch : int array;
  mutable now_scratch : float array;
  mutable par_pkts : Packet.t array;
  mutable par_shard : int array;  (* packet index -> shard *)
  mutable par_idx : int array;  (* CSR: packet indices grouped by shard *)
  mutable par_off : int array;  (* CSR offsets, [domains + 1] entries *)
  mutable par_cursor : int array;
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
    par_pkts = [||];
    par_shard = [||];
    par_idx = [||];
    par_off = [||];
    par_cursor = [||];
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
   summation runs in packet-index order so the sequential and sharded
   windows and the reference produce bit-identical floats; the
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

let run_sequential t ~duration ~packets ~source =
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

let has_cache_tables prog =
  List.exists
    (fun (_, (tab : P4ir.Table.t)) ->
      match tab.role with P4ir.Table.Cache _ -> true | _ -> false)
    (P4ir.Program.tables prog)

(* RSS-style receive-side scaling: hash the flow 5-tuple so one flow
   always lands on the same domain, like real NIC dispatchers do. *)
let flow_shard pkt ~domains =
  let h = ref 0x9E3779B97F4A7C15L in
  let mix f = h := Stdx.Prng.mix64 (Int64.logxor !h (Packet.get pkt f)) in
  mix P4ir.Field.Ipv4_src;
  mix P4ir.Field.Ipv4_dst;
  mix P4ir.Field.Ipv4_proto;
  mix P4ir.Field.Tcp_sport;
  mix P4ir.Field.Tcp_dport;
  Int64.to_int (Int64.rem (Int64.shift_right_logical !h 1) (Int64.of_int domains))

let run_sharded t ~domains ~duration ~packets ~source =
  let start = t.clock in
  let latencies = scratch t packets in
  (* Per-sim scratch, grown on demand: the packet staging array and a
     CSR shard layout — shard [s] owns indices
     [par_idx.(par_off.(s) .. par_off.(s+1) - 1)]. *)
  if Array.length t.par_pkts < packets then begin
    t.par_pkts <- Array.make packets idle_packet;
    t.par_shard <- Array.make packets 0;
    t.par_idx <- Array.make packets 0
  end;
  if Array.length t.par_off < domains + 1 then begin
    t.par_off <- Array.make (domains + 1) 0;
    t.par_cursor <- Array.make domains 0
  end;
  let pkts = t.par_pkts in
  let shard = t.par_shard and idx = t.par_idx in
  let off = t.par_off and cursor = t.par_cursor in
  (* Pull every packet up front, in index order — same source call
     sequence as sequential — then shard deterministically by flow. *)
  for i = 0 to packets - 1 do
    pkts.(i) <- source ()
  done;
  Array.fill off 0 (domains + 1) 0;
  for i = 0 to packets - 1 do
    let s = flow_shard pkts.(i) ~domains in
    shard.(i) <- s;
    off.(s + 1) <- off.(s + 1) + 1
  done;
  for s = 0 to domains - 1 do
    off.(s + 1) <- off.(s + 1) + off.(s);
    cursor.(s) <- off.(s)
  done;
  for i = 0 to packets - 1 do
    let s = shard.(i) in
    idx.(cursor.(s)) <- i;
    cursor.(s) <- cursor.(s) + 1
  done;
  let base_seen = Exec.packets_seen t.ex in
  let run_shard s () =
    (* Each replica compiles its own op array on first use — the
       compiled pipeline holds engine handles, which are per-replica.
       The lane buffers live inside the domain: replicas must not share
       mutable scratch. Disjoint index sets make the shared
       latency-buffer writes race-free, and each lane's global sequence
       number pins sampling to the packet's window position, not to
       arrival order within the shard. *)
    let replica = Exec.replicate t.ex in
    let lo = off.(s) and hi = off.(s + 1) in
    let cap = min burst (max 1 (hi - lo)) in
    let bpkts = Array.make cap idle_packet in
    let seqs = Array.make cap 0 in
    let nows = Array.make cap 0. in
    let lout = Array.make cap 0. in
    let j = ref lo in
    while !j < hi do
      let n = min cap (hi - !j) in
      for k = 0 to n - 1 do
        let i = idx.(!j + k) in
        bpkts.(k) <- pkts.(i);
        seqs.(k) <- base_seen + i + 1;
        nows.(k) <- packet_time ~start ~duration ~packets i
      done;
      ignore (Exec.run_batch replica ~seqs ~nows ~pos:0 ~n ~out:lout bpkts);
      for k = 0 to n - 1 do
        latencies.(idx.(!j + k)) <- lout.(k)
      done;
      j := !j + n
    done;
    replica
  in
  let workers = Array.init (domains - 1) (fun k -> Domain.spawn (run_shard (k + 1))) in
  let replica0 = run_shard 0 () in
  let replicas = Array.append [| replica0 |] (Array.map Domain.join workers) in
  Array.iter (fun r -> Exec.merge_replica t.ex r) replicas;
  let drops = ref 0 in
  for i = 0 to packets - 1 do
    if Packet.is_dropped pkts.(i) then incr drops
  done;
  Array.fill pkts 0 packets idle_packet;
  finish t ~start ~duration ~packets ~drops:!drops latencies

let run_window ?(domains = 1) t ~duration ~packets ~source =
  if packets <= 0 then invalid_arg "Sim.run_window: packets must be positive";
  if domains <= 0 then invalid_arg "Sim.run_window: domains must be positive";
  (* Cache-role tables mutate shared engine state per packet (LRU recency,
     fills), which sharded replicas cannot reproduce faithfully; those
     programs run sequentially. So do degenerate shardings. *)
  if domains = 1 || packets < 2 * domains || has_cache_tables (Exec.program t.ex) then
    run_sequential t ~duration ~packets ~source
  else run_sharded t ~domains ~duration ~packets ~source

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
