module C = Runtime.Controller

type spec = {
  nics : int;
  seed : int;
  controller : C.config;
  share_cache : bool;
  gossip : bool;
  telemetry : bool;
  common_traffic : bool;
  flows_per_nic : int;
  zipf_s : float;
}

let default_spec =
  { nics = 4;
    seed = 1;
    controller = C.default_config;
    share_cache = true;
    gossip = true;
    telemetry = true;
    common_traffic = false;
    flows_per_nic = 64;
    zipf_s = 1.2 }

(* Every per-member stream derives from (spec.seed, index) through
   Prng.fork, which is a pure function of the root state and the index:
   the same spec always yields the same fleet, and anyone holding the
   spec — the fuzz oracle building a solo twin of member [i] — can
   re-derive member [i]'s exact configuration without the fleet. *)
let member_stream spec i = Stdx.Prng.fork (Stdx.Prng.create (Int64.of_int spec.seed)) i

let member_seed spec i =
  Int64.to_int
    (Int64.logand (Stdx.Prng.next64 (Stdx.Prng.fork (member_stream spec i) 0)) 0x3FFFFFFFL)

let member_config spec i =
  let cfg = spec.controller in
  if cfg.C.faults.Runtime.Faults.enabled then
    { cfg with C.faults = { cfg.C.faults with Runtime.Faults.seed = member_seed spec i } }
  else cfg

type member = {
  index : int;
  sink : Telemetry.t;
  sim : Nicsim.Sim.t;
  ctl : C.t;
  source : Traffic.Workload.source;
}

type t = {
  spec : spec;
  shared : Pipeleon.Search.eval_cache option;
  members : member array;
}

(* Traffic fields: every key field the program matches on, so generated
   flows actually exercise the tables. *)
let program_fields program =
  let fields =
    List.concat_map
      (fun (_, (tab : P4ir.Table.t)) ->
        List.map (fun (k : P4ir.Table.key) -> k.field) tab.keys)
      (P4ir.Program.tables program)
  in
  match List.sort_uniq compare fields with [] -> [ P4ir.Field.Ipv4_dst ] | fs -> fs

let create ?(spec = default_spec) target program =
  if spec.nics < 1 then invalid_arg "Fleet.create: nics must be >= 1";
  let shared = if spec.share_cache then Some (Pipeleon.Search.create_cache ()) else None in
  let fields = program_fields program in
  let members =
    Array.init spec.nics (fun i ->
        let sink = if spec.telemetry then Telemetry.create () else Telemetry.null in
        let sim = Nicsim.Sim.create ~telemetry:sink target program in
        let ctl =
          C.create ~config:(member_config spec i) ?warm_cache:shared sim
            ~original:program
        in
        (* With [common_traffic] every member re-derives member 0's flow
           stream: identical packets mean identical profiles, identical
           pipelet signatures — and therefore shared-cache hits. The
           parent streams are never advanced, so re-forking member 0's
           stream per member yields byte-equal generators. *)
        let flow_rng =
          Stdx.Prng.fork (member_stream spec (if spec.common_traffic then 0 else i)) 1
        in
        let flows =
          Traffic.Workload.random_flows flow_rng ~n:spec.flows_per_nic ~fields
        in
        let source = Traffic.Workload.of_flows ~zipf_s:spec.zipf_s flow_rng flows in
        { index = i; sink; sim; ctl; source })
  in
  { spec; shared; members }

let nics t = Array.length t.members
let members t = Array.to_list t.members
let member t i = t.members.(i)
let controller m = m.ctl

let shared_cache_stats t = Option.map Pipeleon.Search.cache_stats t.shared

let run_window_all ?(duration = 1.0) ?(packets = 256) t =
  Array.map
    (fun m -> Nicsim.Sim.run_window m.sim ~duration ~packets ~source:m.source)
    t.members

let advance_all t seconds = Array.iter (fun m -> Nicsim.Sim.advance m.sim seconds) t.members

(* Gossip runs strictly after the tick barrier, in member order, on the
   caller's domain: member [i]'s remediation exclusions are adopted by
   every peer. Running it post-barrier keeps the adoption order — and
   hence every blacklist — independent of domain scheduling. *)
let gossip_exclusions t reports =
  Array.iteri
    (fun i (r : C.tick_report) ->
      match
        List.concat_map Runtime.Remediate.exclusions_of_action r.C.remediations
      with
      | [] -> ()
      | exclusions ->
        Array.iter
          (fun peer -> if peer.index <> i then C.adopt_exclusions peer.ctl exclusions)
          t.members)
    reports

let tick_all ?(domains = 1) t =
  let n = Array.length t.members in
  let reports = Array.make n None in
  let ndom = max 1 (min domains n) in
  (* Strided shard of the member array; every member's state (simulator,
     controller, sink) is touched by exactly one domain, and the only
     cross-domain structure is the shared warm cache, which takes its
     own mutex. The shared cache makes tick results domain-count-
     independent by the signature contract: whichever member evaluates a
     signature first stores the same value any other member would. *)
  let worker d () =
    let i = ref d in
    while !i < n do
      reports.(!i) <- Some (C.tick t.members.(!i).ctl);
      i := !i + ndom
    done
  in
  if ndom = 1 then worker 0 ()
  else begin
    let spawned = Array.init (ndom - 1) (fun d -> Domain.spawn (worker (d + 1))) in
    worker 0 ();
    Array.iter Domain.join spawned
  end;
  let reports =
    Array.map (function Some r -> r | None -> assert false (* all slots filled *)) reports
  in
  if t.spec.gossip then gossip_exclusions t reports;
  reports

let rolling_redeploy t =
  (* One member at a time, in order: re-install each member's currently
     deployed layout through the verified deploy path. Under a
     [deploy_fail_burst] fault config this is the correlated-burst
     scenario — every NIC's first attempts fail fleet-wide and every
     member must roll back and retry independently. *)
  Array.map (fun m -> C.deploy m.ctl (C.deployed_program m.ctl)) t.members

let rollup ?(per_nic = false) t =
  let dst = Telemetry.Metrics.create () in
  Array.iter
    (fun m ->
      if Telemetry.enabled m.sink then begin
        let src = Telemetry.metrics m.sink in
        Telemetry.Metrics.merge_into ~dst ~src;
        if per_nic then
          Telemetry.Metrics.merge_prefixed
            ~prefix:(Printf.sprintf "fleet.nic%d." m.index)
            ~dst ~src
      end)
    t.members;
  dst

(* Wall-clock fields (search_seconds) are excluded so the digest is a
   determinism witness: equal fleets produce equal digests across runs
   and across scheduler domain counts. Emulated-clock downtime is kept —
   it is deterministic. *)
let report_digest (r : C.tick_report) =
  let deploy =
    match r.C.deploy with
    | None -> "deploy=-"
    | Some d ->
      Printf.sprintf "deploy(installed=%b gen=%d attempts=%d rollbacks=%d rebuilt=%d down=%.3f)"
        d.C.installed d.C.generation d.C.attempts d.C.rollbacks d.C.tables_rebuilt
        d.C.downtime_seconds
  in
  Printf.sprintf "reopt=%b gain=%.4f issues=%d remediations=%d %s" r.C.reoptimized
    r.C.predicted_gain (List.length r.C.issues)
    (List.length r.C.remediations)
    deploy
