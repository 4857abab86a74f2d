module C = Runtime.Controller

(* Member [i] of the fleet and its solo twin draw churn operations from
   equal generator streams, derived purely from (salt, i): the two
   controllers' original programs receive identical entry operations and
   stay equal, so both must forward every shard packet bit-identically
   to Refsim on that shared original — whatever the
   shared cache, the gossip, or the injected faults do to the layouts. *)
let churn_rng ~salt i = Stdx.Prng.fork (Stdx.Prng.create (Int64.of_int (salt + 1))) i

(* Packet shard for member [i]: every [nics]-th packet, offset [i]. *)
let shard packets ~nics i =
  List.filteri (fun j _ -> j mod nics = i) packets

(* Member vs solo, packet by packet: both controllers execute the same
   shard, and their observations must agree field for field even when
   their deployed layouts legitimately differ. *)
let compare_pair ~label member solo packets =
  let mex = Nicsim.Sim.exec (C.sim member) in
  let sex = Nicsim.Sim.exec (C.sim solo) in
  let rec go k = function
    | [] -> None
    | flow :: rest -> (
      let m = Oracle.exec_obs mex flow in
      let s = Oracle.exec_obs sex flow in
      match Refsim.diff_obs ~compare_trace:false m s with
      | Some reason ->
        Some
          { Oracle.packet_index = k;
            reason = Printf.sprintf "%s: fleet member diverged from solo: %s" label reason }
      | None -> go (k + 1) rest)
  in
  go 0 packets

let fleet_spec ~salt ~nics ~telemetry =
  { Fleet.default_spec with
    Fleet.nics;
    seed = salt;
    controller = Chaos.controller_config ~salt;
    share_cache = true;
    gossip = true;
    telemetry;
    common_traffic = false }

let check ?(nics = 4) ?sink target (case : Gen.case) =
  if not (Oracle.supported case.program) then
    invalid_arg "Fleet_oracle.check: program carries optimizer-generated tables";
  let salt = Chaos.case_salt case in
  let spec = fleet_spec ~salt ~nics ~telemetry:(Option.is_some sink) in
  try
    let fleet = Fleet.create ~spec target case.program in
    (* The solo twins: same program, same per-member configuration
       (Fleet.member_config is pure in (spec, i)), but private caches
       and no gossip — a fleet must behave, NIC for NIC, like n
       independent controllers as far as forwarding is concerned. *)
    let solos =
      Array.init nics (fun i ->
          let sim = Nicsim.Sim.create target case.program in
          C.create ~config:(Fleet.member_config spec i) sim ~original:case.program)
    in
    let shards = Array.init nics (fun i -> shard case.packets ~nics i) in
    let compare_all ~round =
      let rec go i =
        if i >= nics then None
        else
          let label what = Printf.sprintf "nic %d round %d (%s)" i round what in
          let member = Fleet.controller (Fleet.member fleet i) in
          match Chaos.against_original ~label:(label "member vs ref") member shards.(i) with
          | Some d -> Some d
          | None -> (
            match Chaos.against_original ~label:(label "solo vs ref") solos.(i) shards.(i) with
            | Some d -> Some d
            | None -> (
              match
                compare_pair ~label:(label "member vs solo") member solos.(i)
                  shards.(i)
              with
              | Some d -> Some d
              | None -> go (i + 1)))
      in
      go 0
    in
    let rec round r =
      if r > Chaos.rounds then None
      else
        match compare_all ~round:r with
        | Some d -> Some d
        | None ->
          for i = 0 to nics - 1 do
            let member = Fleet.controller (Fleet.member fleet i) in
            (* identical streams: re-fork rather than share the rng *)
            Chaos.churn (churn_rng ~salt (r * nics + i)) ~fresh_tag:r member;
            Chaos.churn (churn_rng ~salt (r * nics + i)) ~fresh_tag:r solos.(i);
            Nicsim.Sim.advance (C.sim solos.(i)) 1.0;
            ignore (C.tick solos.(i))
          done;
          Fleet.advance_all fleet 1.0;
          ignore (Fleet.tick_all ~domains:1 fleet);
          round (r + 1)
    in
    let result =
      match round 1 with
      | Some d -> Some d
      | None -> compare_all ~round:(Chaos.rounds + 1)
    in
    (* Aggregate the fleet's runtime counters (remediations, gossip
       adoptions, rollbacks) into the caller's sink across cases. *)
    (match sink with
     | Some s when Telemetry.enabled s ->
       Telemetry.Metrics.merge_into ~dst:(Telemetry.metrics s) ~src:(Fleet.rollup fleet)
     | _ -> ());
    result
  with e ->
    Some { Oracle.packet_index = -1; reason = "exception: " ^ Printexc.to_string e }
