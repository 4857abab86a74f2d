(* The four closed-loop workloads of the end-to-end benchmark. Each one
   builds an episode's system from its P4-lite fixture and a seed, and
   hands the runner the steps of one round, which the runner times one
   by one: pre-generate the window's packets, run one data-plane window,
   check sampled packets against the reference interpreter, apply
   control-plane updates, run one controller tick. Everything a step
   does is a function of the seed and the round number, so two episodes
   with the same seed replay the same emulated behaviour. *)

module C = Runtime.Controller
module F = P4ir.Field
module W = Traffic.Workload

type instance = {
  packets : int;  (** sampled packets per round, summed over NICs *)
  updates : int;  (** control-plane updates per round *)
  generate : int -> unit;
      (** pre-generate round [r]'s packets (fleet16: a stand-in of the
          same shape, since the fleet draws its own inside the window) *)
  window : unit -> Nicsim.Sim.window_stats array;  (** one per NIC *)
  check : unit -> int * int;  (** (packets checked, mismatches) *)
  update : int -> int -> unit;  (** update [u] of round [r] *)
  tick : unit -> C.tick_report array;  (** one per NIC *)
  precompile : unit -> unit;  (** compile every NIC's data path now *)
  soa_capable : unit -> bool;  (** the window takes the burst walk *)
  metrics : unit -> Telemetry.Metrics.t;  (** the NICs' telemetry *)
}

type t = {
  name : string;
  fixture : string;  (** P4-lite file in the fixtures directory *)
  rounds : int;  (** timed rounds per episode *)
  build : seed:int -> traced:bool -> domains:int -> P4ir.Program.t -> instance;
      (** [traced] enables the telemetry sinks; [domains] bounds the
          OCaml domains a tick may use *)
}

(* --- checking against Fuzz.Refsim --- *)

let check_every = 512

(* A packet's observable state, as Refsim reports it. Taken before the
   window it is Refsim's input; after, the data path's output. *)
let fields_of pkt =
  List.map (fun f -> (f, Nicsim.Packet.get pkt f)) Fuzz.Refsim.observed_fields

let agrees program ~input pkt =
  Fuzz.Refsim.equal_obs ~compare_trace:false
    (Fuzz.Refsim.run program (fields_of input))
    { Fuzz.Refsim.fields = fields_of pkt;
      dropped = Nicsim.Packet.is_dropped pkt;
      egress = Nicsim.Packet.egress_port pkt;
      trace = [] }

(* --- control-plane churn --- *)

(* A table whose live entries slide forward: round [r] deletes its
   [per_round] oldest entries and inserts as many new ones, so the table
   size, and with it the per-update cost, stays constant. Entry [j] has
   key [key j]; entries [0 .. live-1] are pre-filled at setup. Round
   [r]'s live keys, during its window, are [r*per_round .. r*per_round +
   live - 1]. *)
type churn = {
  table : string;
  action : string;
  live : int;
  per_round : int;
  key : int -> P4ir.Pattern.t list;
}

let entry c j = P4ir.Table.entry (c.key j) c.action

let prefill c prog =
  match P4ir.Program.find_table prog c.table with
  | None -> invalid_arg ("fixture has no table " ^ c.table)
  | Some (id, _) ->
    P4ir.Program.update_table prog id (fun tab ->
        { tab with P4ir.Table.entries = tab.P4ir.Table.entries @ List.init c.live (entry c) })

(* Updates [0 .. per_round-1] of a round delete, the rest insert. *)
let churn_update c ctl r u =
  if u < c.per_round then C.delete ctl ~table:c.table (entry c ((r * c.per_round) + u))
  else C.insert ctl ~table:c.table (entry c (c.live + (r * c.per_round) + u - c.per_round))

let exact v = [ P4ir.Pattern.Exact (Int64.of_int v) ]

(* A trusted-peer list of 16 hosts in 203.0.114.0/24 and up, one
   replaced per round. Generated traffic never comes from these hosts. *)
let peers =
  { table = "trusted_peers";
    action = "mark_trusted";
    live = 16;
    per_round = 1;
    key = (fun j -> exact (0xCB007200 + j)) }

(* --- traffic --- *)

(* Every field some table matches on, so generated flows reach the
   tables' keys. *)
let key_fields prog =
  List.sort_uniq compare
    (List.concat_map
       (fun (_, (tab : P4ir.Table.t)) -> List.map (fun (k : P4ir.Table.key) -> k.field) tab.keys)
       (P4ir.Program.tables prog))

let fill pkts source =
  for i = 0 to Array.length pkts - 1 do
    pkts.(i) <- source ()
  done

(* --- one NIC under one controller --- *)

(* The one call into the data path for single-NIC workloads. *)
let data_path sim ~packets ~source =
  Nicsim.Sim.run_window_compiled ~soa:true sim ~duration:1.0 ~packets ~source

let single ~target ~config ~churn ~traced ~packets ~traffic prog =
  let prog = prefill churn prog in
  let telemetry = if traced then Telemetry.create () else Telemetry.null in
  let sim = Nicsim.Sim.create ~telemetry target prog in
  let ctl = C.create ~config sim ~original:prog in
  let pkts = Array.init packets (fun _ -> Nicsim.Packet.create ()) in
  (* Copies of every [check_every]-th packet as generated: Refsim's
     inputs once the window has rewritten the packets themselves. *)
  let inputs = Array.make ((packets + check_every - 1) / check_every) pkts.(0) in
  let cursor = ref 0 in
  let source () =
    let p = pkts.(!cursor) in
    incr cursor;
    p
  in
  { packets;
    updates = 2 * churn.per_round;
    generate =
      (fun r ->
        traffic r pkts;
        Array.iteri (fun k _ -> inputs.(k) <- Nicsim.Packet.copy pkts.(k * check_every)) inputs);
    window =
      (fun () ->
        cursor := 0;
        [| data_path sim ~packets ~source |]);
    check =
      (fun () ->
        let program = C.original_program ctl in
        let bad = ref 0 in
        Array.iteri
          (fun k input -> if not (agrees program ~input pkts.(k * check_every)) then incr bad)
          inputs;
        (Array.length inputs, !bad));
    update = churn_update churn ctl;
    tick = (fun () -> [| C.tick ctl |]);
    precompile = (fun () -> ignore (Nicsim.Exec.precompile (Nicsim.Sim.exec sim)));
    soa_capable = (fun () -> Nicsim.Exec.soa_capable (Nicsim.Sim.exec sim));
    metrics = (fun () -> Telemetry.metrics telemetry) }

(* fw-steady: data-plane bound. 256 flows at Zipf 1.2, 35% of packets
   stamped with the port the DPI ACL denies; one tick per window finds
   one layout early and then reuses its warm cache. *)
let fw_steady =
  { name = "fw-steady";
    fixture = "firewall.p4l";
    rounds = 200;
    build =
      (fun ~seed ~traced ~domains:_ prog ->
        let rng = Stdx.Prng.create (Int64.of_int seed) in
        let flows = W.random_flows rng ~n:256 ~fields:(key_fields prog) in
        let source =
          W.mark_fraction rng ~rate:0.35 ~field:F.Tcp_dport ~value:6667L
            (W.of_flows ~zipf_s:1.2 rng flows)
        in
        single ~target:Costmodel.Target.bluefield2 ~config:C.default_config ~churn:peers
          ~traced ~packets:4096
          ~traffic:(fun _ pkts -> fill pkts source)
          prog) }

(* dash-shift: control-plane bound. Four traffic phases of 10 windows
   each — (deny share, Zipf s) of (35%, 1.2), (5%, uniform), (70%, 1.5),
   (20%, 0.8), each over its own 256 flows — keep the profile moving, so
   the optimizer searches every tick and redeploys (full reloads on the
   Agilio target) when the phase changes. Phases recur, so the warm
   cache can pay off. *)
let dash_phases = [| (0.35, 1.2); (0.05, 0.); (0.70, 1.5); (0.20, 0.8) |]
let dash_phase_rounds = 10

let dash_shift =
  { name = "dash-shift";
    fixture = "dash.p4l";
    rounds = 120;
    build =
      (fun ~seed ~traced ~domains:_ prog ->
        let rng = Stdx.Prng.create (Int64.of_int seed) in
        let sources =
          Array.map
            (fun (deny, zipf_s) ->
              let fields = [ F.Ipv4_src; F.Ipv4_dst; F.Tcp_sport ] in
              let flows = W.random_flows rng ~n:256 ~fields in
              W.mark_fraction rng ~rate:deny ~field:F.Tcp_sport ~value:0xBADL
                (W.of_flows ~zipf_s rng flows))
            dash_phases
        in
        let config =
          { C.default_config with
            optimizer =
              { Pipeleon.Optimizer.default_config with
                top_k = 1.0;
                candidate_opts = { Pipeleon.Candidate.default_options with max_merge_len = 3 } };
            deploy_mode = C.Full;
            reconfig_downtime = 0.05 }
        in
        let conntrack =
          { table = "conntrack"; action = "set"; live = 64; per_round = 4; key = exact }
        in
        single ~target:Costmodel.Target.agilio_cx ~config ~churn:conntrack ~traced
          ~packets:4096
          ~traffic:(fun r pkts ->
            fill pkts sources.(r / dash_phase_rounds mod Array.length dash_phases))
          prog) }

(* lb-churn: writes beside reads. conntrack holds 4096 connections and
   each round replaces the 128 oldest through the controller, while half
   of the 4096 flows hit live connections and half miss; half of all
   flows address the VIP. Incremental deploys keep untouched tables. *)
let lb_flows = 4096

(* A bijection on 16-bit ports, so consecutive connection numbers get
   scattered ports. *)
let port j = (j * 40503) land 0xFFFF

(* Connection numbers of missing flows: never live while
   [r * per_round + live <= lb_miss_base]. *)
let lb_miss_base = 40000

let lb_churn =
  { name = "lb-churn";
    fixture = "lb.p4l";
    rounds = 100;
    build =
      (fun ~seed ~traced ~domains:_ prog ->
        let conntrack =
          { table = "conntrack";
            action = "established";
            live = 4096;
            per_round = 128;
            key = (fun j -> exact (port j)) }
        in
        let rng = Stdx.Prng.create (Int64.of_int seed) in
        let vip = [ (F.Ipv4_dst, 0xC633640AL); (F.Tcp_dport, 443L) ] in
        let flows =
          Array.mapi
            (fun k f -> if k / 2 mod 2 = 0 then (F.Ipv4_src, List.assoc F.Ipv4_src f) :: vip else f)
            (W.random_flows rng ~n:lb_flows ~fields:[ F.Ipv4_src; F.Ipv4_dst; F.Tcp_dport ])
        in
        let traffic r pkts =
          let base = r * conntrack.per_round in
          for i = 0 to Array.length pkts - 1 do
            let k = Stdx.Prng.int rng lb_flows in
            let conn = if k < lb_flows / 2 then base + (2 * k) else lb_miss_base + k in
            let pkt = Nicsim.Packet.of_fields flows.(k) in
            Nicsim.Packet.set pkt F.Tcp_sport (Int64.of_int (port conn));
            pkts.(i) <- pkt
          done
        in
        single ~target:Costmodel.Target.bluefield2
          ~config:{ C.default_config with deploy_mode = C.Incremental }
          ~churn:conntrack ~traced ~packets:4096 ~traffic prog) }

(* fleet16: the fleet scheduler. 16 NICs on the firewall, each with its
   own flows, a fleet-shared warm cache and remediation gossip; every
   NIC replaces one trusted peer per round. *)
let fleet_nics = 16
let fleet_packets = 512

let fleet16 =
  { name = "fleet16";
    fixture = "firewall.p4l";
    rounds = 200;
    build =
      (fun ~seed ~traced ~domains prog ->
        let prog = prefill peers prog in
        let spec =
          { Fleet.default_spec with
            nics = fleet_nics;
            seed;
            share_cache = true;
            gossip = true;
            telemetry = traced;
            common_traffic = false }
        in
        let fleet = Fleet.create ~spec Costmodel.Target.bluefield2 prog in
        let ctls = Array.of_list (List.map Fleet.controller (Fleet.members fleet)) in
        let rng = Stdx.Prng.create (Int64.of_int seed) in
        let fields = key_fields prog in
        (* Stand-in traffic of the fleet's own shape (per-NIC flow count
           and skew), generated and dropped: the fleet generates inside
           [run_window_all], where the runner cannot time it apart. *)
        let stand_in =
          Array.init fleet_nics (fun _ ->
              W.of_flows ~zipf_s:spec.zipf_s rng
                (W.random_flows rng ~n:spec.flows_per_nic ~fields))
        in
        let scratch = Array.make fleet_packets (Nicsim.Packet.create ()) in
        (* Checks probe a replica of each NIC's executor, so they leave
           the NIC's engines, counters and caches untouched. *)
        let probes = W.random_flows rng ~n:256 ~fields in
        { packets = fleet_nics * fleet_packets;
          updates = 2 * fleet_nics;
          generate = (fun _ -> Array.iter (fill scratch) stand_in);
          window = (fun () -> Fleet.run_window_all ~duration:1.0 ~packets:fleet_packets fleet);
          check =
            (fun () ->
              let bad = ref 0 in
              Array.iter
                (fun ctl ->
                  let sim = C.sim ctl in
                  let replica = Nicsim.Exec.replicate (Nicsim.Sim.exec sim) in
                  let input = Nicsim.Packet.of_fields (Stdx.Prng.choice rng probes) in
                  let pkt = Nicsim.Packet.copy input in
                  ignore (Nicsim.Exec.run_packet replica ~now:(Nicsim.Sim.now sim) pkt);
                  if not (agrees (C.original_program ctl) ~input pkt) then incr bad)
                ctls;
              (fleet_nics, !bad));
          update = (fun r u -> churn_update peers ctls.(u / 2) r (u mod 2));
          tick = (fun () -> Fleet.tick_all ~domains fleet);
          precompile =
            (fun () ->
              Array.iter
                (fun ctl -> ignore (Nicsim.Exec.precompile (Nicsim.Sim.exec (C.sim ctl))))
                ctls);
          (* Fleet windows take the interpreter path. *)
          soa_capable = (fun () -> false);
          metrics = (fun () -> Fleet.rollup fleet) }) }

let all = [ fw_steady; dash_shift; lb_churn; fleet16 ]
let find name = List.find_opt (fun w -> w.name = name) all
