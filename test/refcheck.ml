(* Differential harness for the data path: one packet stream through
   Nicsim (Sim windows, or one burst through Exec.run_batch) and through
   a Fuzz.Refsim session, which shares no code with Nicsim. Each side
   reports the same observations, compared field by field:
   - per-packet latency bits (bursts), or window stats derived from
     them, plus the "packet" span of every traced packet, whose dur is
     that packet's latency (windows trace every packet by default);
   - every packet's final header fields, drop flag and egress port;
   - packet counts, and packet and drop telemetry counters;
   - sampled profile counters;
   - flow-cache contents in recency order, and fill, eviction and
     rate-limit counts, after every window;
   - per-table hit/miss telemetry counters;
   - sampled spans (name, seq, ts, dur, hit or miss) in emission order,
     the reference's assembled from its per-node steps;
   - tracer events in execution order;
   - tables rebuilt by each hot patch. *)

module M = Telemetry.Metrics
module H = Telemetry.Histogram

type obs = {
  lat : int64 list list;
      (* per window: stats bits; per burst: each packet's latency bits *)
  out : Fuzz.Refsim.obs list;  (* each packet's final state, trace left out *)
  counts : int * (int * int);  (* packets seen; (packets, drops) as metrics *)
  counters : ((string * string) * int) list;
  tables : (string * (int * int)) list;  (* hits, misses; nonzero only *)
  caches : (string * (P4ir.Table.entry list * (int * int * int))) list list;
      (* per cache after each window: entries least recent first, and
         (fills, evictions, rate-limited fills) *)
  spans : (string * int * int64 * int64 * bool option) list;
  events : (int * string * string) list;
  rebuilt : int list;
}

type step = Window of int * (unit -> Nicsim.Packet.t) | Hot_patch of P4ir.Program.t

let fields_of pkt = List.map (fun f -> (f, Nicsim.Packet.get pkt f)) Fuzz.Refsim.observed_fields

let out_of pkt =
  { Fuzz.Refsim.fields = fields_of pkt;
    dropped = Nicsim.Packet.is_dropped pkt;
    egress = Nicsim.Packet.egress_port pkt;
    trace = [] }

let stats_bits (s : Nicsim.Sim.window_stats) =
  List.map Int64.bits_of_float
    [ s.window_start; s.window_duration; s.avg_latency; s.p99_latency; s.p50_latency;
      s.p90_latency; s.p999_latency; s.throughput_gbps; s.drop_fraction ]
  @ [ Int64.of_int s.sampled_packets; Int64.of_int s.sampled_drops ]

(* The window stats of a latency array, as documented for
   Sim.window_stats: sum in packet order, p99 from the sorted array, the
   other percentiles from a latency histogram. *)
let derived_stats target ~start ~duration ~drops lats =
  let n = Array.length lats in
  let h = H.create () in
  H.record_array h lats;
  let avg = H.sum h /. float_of_int n in
  let sorted = Array.copy lats in
  Array.sort Float.compare sorted;
  List.map Int64.bits_of_float
    [ start; duration; avg; sorted.(min (n - 1) (n * 99 / 100)); H.quantile h 0.5;
      H.quantile h 0.9; H.quantile h 0.999;
      Costmodel.Target.throughput_gbps target ~latency:avg;
      float_of_int drops /. float_of_int n ]
  @ [ Int64.of_int n; Int64.of_int drops ]

let refsim_config (cfg : Nicsim.Exec.config) =
  { Fuzz.Refsim.target = cfg.target;
    instrumented = cfg.instrumented;
    sample_rate = cfg.sample_rate;
    placement = cfg.placement }

let cat (tab : P4ir.Table.t) =
  match tab.role with
  | P4ir.Table.Cache _ -> "cache"
  | P4ir.Table.Merged _ -> "merged"
  | _ -> "table"

let nonzero l = List.filter (fun (_, (h, m)) -> h + m > 0) l

(* --- the data path --- *)

let sink trace_every =
  if trace_every > 0 then
    Telemetry.create ~trace_capacity:(1 lsl 16) ~trace_sample_every:trace_every ()
  else Telemetry.create ()

let nicsim_obs ex tel ~progs ~lat ~out ~caches ~events ~rebuilt =
  let m = Telemetry.metrics tel in
  let metric n = Option.value ~default:0 (M.find_counter m n) in
  let tables =
    List.concat_map P4ir.Program.tables progs
    |> List.map (fun (_, tab) ->
           let prefix = Printf.sprintf "nicsim.%s.%s" (cat tab) tab.P4ir.Table.name in
           (tab.name, (metric (prefix ^ ".hit"), metric (prefix ^ ".miss"))))
    |> List.sort_uniq compare |> nonzero
  in
  { lat;
    out;
    counts =
      (Nicsim.Exec.packets_seen ex, (metric "nicsim.packets", metric "nicsim.drops"));
    counters =
      List.map
        (fun ((k : Profile.Counter.key), v) -> ((k.owner, k.label), Int64.to_int v))
        (Profile.Counter.dump (Nicsim.Exec.counters ex));
    tables;
    caches;
    spans =
      (match Telemetry.trace tel with
       | None -> []
       | Some ring ->
         List.map
           (fun (s : Telemetry.Trace.span) ->
             ( s.name, s.tid, Int64.bits_of_float s.ts, Int64.bits_of_float s.dur,
               Option.map (String.equal "hit") (List.assoc_opt "result" s.args) ))
           (Telemetry.Trace.spans ring));
    events;
    rebuilt }

let cache_contents ex =
  List.filter_map
    (fun (_, (tab : P4ir.Table.t)) ->
      match tab.role with
      | P4ir.Table.Cache _ ->
        let eng = Nicsim.Exec.engine_exn ex tab.name in
        Some (tab.name, (Nicsim.Engine.entries eng, Nicsim.Engine.cache_counts eng))
      | _ -> None)
    (P4ir.Program.tables (Nicsim.Exec.program ex))
  |> List.sort compare

let tracer ex =
  let events = ref [] in
  Nicsim.Exec.set_tracer ex
    (Some (fun (e : Nicsim.Exec.trace_event) -> events := (e.node, e.name, e.outcome) :: !events));
  events

(* --- the reference --- *)

let refsim_obs (r : Fuzz.Refsim.report) ~lat ~out ~caches ~spans ~events ~rebuilt =
  { lat;
    out;
    counts = (r.packets, (r.packets, r.drops));
    counters = r.counters;
    tables = nonzero r.tables;
    caches;
    spans;
    events;
    rebuilt }

let refsim_caches s =
  List.map
    (fun (n, (c : Fuzz.Refsim.cache_report)) ->
      (n, (c.lru, (c.fills, c.evictions, c.rate_limited))))
    (Fuzz.Refsim.report s).caches

(* One packet through the session; its tracer events, and for a traced
   packet the spans the data path emits: the packet's own (timestamp in
   microseconds, its latency), then one per node, in execution order. *)
let send s ~events ~spans ~trace_every ~seq ~now flow =
  let p = Fuzz.Refsim.send s ~seq ~now flow in
  List.iter
    (fun (st : Fuzz.Refsim.step) -> events := (st.node, st.name, st.outcome) :: !events)
    p.steps;
  if trace_every > 0 && seq mod trace_every = 0 then begin
    let ts = now *. 1e6 in
    let span name start dur hit =
      (name, seq, Int64.bits_of_float start, Int64.bits_of_float dur, hit)
    in
    spans := span "packet" ts p.latency None :: !spans;
    List.iter
      (fun (st : Fuzz.Refsim.step) ->
        spans := span st.name (ts +. st.start) st.dur st.hit :: !spans)
      p.steps
  end;
  p

(* --- runs --- *)

(* [steps] against a fresh Sim (one sink tracing every [trace_every]-th
   packet, a tracer hook) and a fresh Refsim session. Returns the data
   path's observation, the reference's, and the reference's report. *)
let windows ?(trace_every = 1) ?(duration = 1.0) cfg prog steps =
  let target = cfg.Nicsim.Exec.target in
  let tel = sink trace_every in
  let sim = Nicsim.Sim.create ~config:cfg ~telemetry:tel target prog in
  let ex = Nicsim.Sim.exec sim in
  let ev_a = tracer ex in
  let s = Fuzz.Refsim.session (refsim_config cfg) prog in
  let ev_b = ref [] and spans_b = ref [] in
  let clock = ref 0. in
  let seen = ref 0 in
  let lat_a = ref [] and lat_b = ref [] and caches_a = ref [] and caches_b = ref [] in
  let out_a = ref [] and out_b = ref [] in
  let rebuilt_a = ref [] and rebuilt_b = ref [] and progs = ref [ prog ] in
  List.iter
    (function
      | Window (packets, source) ->
        let inputs = ref [] in
        let recording () =
          let p = source () in
          inputs := fields_of p :: !inputs;
          out_a := p :: !out_a;
          p
        in
        let stats = Nicsim.Sim.run_window sim ~duration ~packets ~source:recording in
        lat_a := stats_bits stats :: !lat_a;
        caches_a := cache_contents ex :: !caches_a;
        let start = !clock in
        let drops = ref 0 in
        let lats =
          Array.of_list
            (List.mapi
               (fun i flow ->
                 incr seen;
                 let now = start +. (duration *. float_of_int i /. float_of_int packets) in
                 let p = send s ~events:ev_b ~spans:spans_b ~trace_every ~seq:!seen ~now flow in
                 out_b := { p.obs with trace = [] } :: !out_b;
                 if p.obs.dropped then incr drops;
                 p.latency)
               (List.rev !inputs))
        in
        lat_b := derived_stats target ~start ~duration ~drops:!drops lats :: !lat_b;
        caches_b := refsim_caches s :: !caches_b;
        clock := start +. duration
      | Hot_patch p ->
        progs := p :: !progs;
        rebuilt_a := Nicsim.Sim.hot_patch sim p :: !rebuilt_a;
        let changed = Fuzz.Refsim.redeploy s p in
        rebuilt_b := changed :: !rebuilt_b;
        clock := !clock +. Float.max 0. (0.02 *. float_of_int changed))
    steps;
  let a =
    nicsim_obs ex tel ~progs:!progs ~lat:(List.rev !lat_a)
      ~out:(List.rev_map out_of !out_a) ~caches:(List.rev !caches_a)
      ~events:(List.rev !ev_a) ~rebuilt:(List.rev !rebuilt_a)
  in
  let r = Fuzz.Refsim.report s in
  let b =
    refsim_obs r ~lat:(List.rev !lat_b) ~out:(List.rev !out_b) ~caches:(List.rev !caches_b)
      ~spans:(List.rev !spans_b) ~events:(List.rev !ev_b) ~rebuilt:(List.rev !rebuilt_b)
  in
  (a, b, r)

(* One burst of [pkts] through Exec.run_batch at sequence numbers
   1..n and timestamps [nows], against the same packets through a
   session. *)
let burst ?(trace_every = 1) cfg prog ~nows pkts =
  let ex = Nicsim.Exec.create cfg prog in
  let tel = sink trace_every in
  Nicsim.Exec.set_telemetry ex tel;
  let ev_a = tracer ex in
  let inputs = Array.map fields_of pkts in
  let n = Array.length pkts in
  let out = Array.make n 0. in
  ignore (Nicsim.Exec.run_batch ex ~seqs:(Array.init n (fun i -> i + 1)) ~nows ~pos:0 ~n ~out pkts);
  let a =
    nicsim_obs ex tel ~progs:[ prog ]
      ~lat:[ Array.to_list (Array.map Int64.bits_of_float out) ]
      ~out:(Array.to_list (Array.map out_of pkts)) ~caches:[ cache_contents ex ]
      ~events:(List.rev !ev_a) ~rebuilt:[]
  in
  let s = Fuzz.Refsim.session (refsim_config cfg) prog in
  let ev_b = ref [] and spans_b = ref [] in
  let sent =
    List.mapi
      (fun i flow ->
        send s ~events:ev_b ~spans:spans_b ~trace_every ~seq:(i + 1) ~now:nows.(i) flow)
      (Array.to_list inputs)
  in
  let r = Fuzz.Refsim.report s in
  let b =
    refsim_obs r
      ~lat:[ List.map (fun (p : Fuzz.Refsim.packet) -> Int64.bits_of_float p.latency) sent ]
      ~out:(List.map (fun (p : Fuzz.Refsim.packet) -> { p.obs with trace = [] }) sent)
      ~caches:[ refsim_caches s ] ~spans:(List.rev !spans_b)
      ~events:(List.rev !ev_b) ~rebuilt:[]
  in
  (a, b, r)

(* --- comparison --- *)

let diff a b =
  let field name eq x y = if eq x y then None else Some name in
  List.find_map Fun.id
    [ field "latency bits" ( = ) a.lat b.lat;
      field "packet state" ( = ) a.out b.out;
      field "packets/drops" ( = ) a.counts b.counts;
      field "profile counters" ( = ) a.counters b.counters;
      field "hit/miss counters" ( = ) a.tables b.tables;
      field "cache contents" ( = ) a.caches b.caches;
      field "spans" ( = ) a.spans b.spans;
      field "tracer events" ( = ) a.events b.events;
      field "tables rebuilt" ( = ) a.rebuilt b.rebuilt ]

let same (a, b, _) = diff a b = None

(* Fails the test on the first difference; returns the data path's
   observation and the reference's report. *)
let check name (a, b, r) =
  (match diff a b with
   | None -> ()
   | Some what -> Alcotest.failf "%s: data path and Refsim differ on %s" name what);
  (a, r)
