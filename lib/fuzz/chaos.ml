module Program = P4ir.Program
module Table = P4ir.Table

let rounds = 3

(* Everything stochastic in a chaos run — fault seed, churn choices,
   deploy mode — derives from the case contents, so the check is a pure
   function of the case and shrinking replays candidates faithfully. *)
let case_salt (case : Gen.case) =
  Hashtbl.hash (Program.num_nodes case.program, List.length case.packets, case.packets)

let controller_config ~salt =
  let faults = { Runtime.Faults.chaos_defaults with seed = salt } in
  { Runtime.Controller.default_config with
    optimizer = { Pipeleon.Optimizer.default_config with top_k = 1.0 };
    min_relative_gain = 0.01;
    reconfig_downtime = 0.1;
    deploy_mode =
      (if salt land 1 = 0 then Runtime.Controller.Full else Runtime.Controller.Incremental);
    faults;
    deploy_retries = 2;
    backoff_base = 0.05;
    backoff_cap = 0.4;
    blacklist_ttl = 2 }

let against_original ~label ctl =
  let original = Runtime.Controller.original_program ctl in
  let ex = Nicsim.Sim.exec (Runtime.Controller.sim ctl) in
  let rec go i = function
    | [] -> None
    | flow :: rest -> (
      match Refsim.diff_obs (Refsim.run original flow) (Oracle.exec_obs ex flow) with
      | Some reason ->
        Some { Oracle.packet_index = i; reason = Printf.sprintf "%s: %s" label reason }
      | None -> go (i + 1) rest)
  in
  go 0

let compare_round ~round = against_original ~label:(Printf.sprintf "round %d" round)

(* Control-plane churn through the (faulty) update path: recycle an
   existing entry of a random table (delete + immediate re-insert keeps
   forwarding semantics and the generator's unambiguity invariants), and
   grow an all-exact table with a fresh high-valued tuple no generated
   entry can collide with. *)
let churn rng ~fresh_tag ctl =
  let tables = List.map snd (Program.tables (Runtime.Controller.original_program ctl)) in
  (match List.filter (fun (t : Table.t) -> t.entries <> []) tables with
   | [] -> ()
   | candidates ->
     let tab = List.nth candidates (Stdx.Prng.int rng (List.length candidates)) in
     let e = List.nth tab.entries (Stdx.Prng.int rng (List.length tab.entries)) in
     Runtime.Controller.delete ctl ~table:tab.name e;
     Runtime.Controller.insert ctl ~table:tab.name e);
  match
    List.filter
      (fun (t : Table.t) ->
        t.keys <> []
        && List.for_all
             (fun (k : Table.key) -> k.kind = P4ir.Match_kind.Exact)
             t.keys)
      tables
  with
  | [] -> ()
  | exacts ->
    let tab = List.nth exacts (Stdx.Prng.int rng (List.length exacts)) in
    let v = Int64.of_int (1_000_000 + fresh_tag) in
    let entry =
      Table.entry (List.map (fun _ -> P4ir.Pattern.Exact v) tab.keys)
        (match tab.actions with a :: _ -> a.P4ir.Action.name | [] -> tab.default_action)
    in
    Runtime.Controller.insert ctl ~table:tab.name entry

(* Every compare round runs the controller's live simulator through the
   compiled data path — so each tick's deploy (full reconfigure,
   incremental hot patch, or fault-forced rollback) exercises
   recompilation against a pipeline that was already compiled for the
   previous layout. *)
let check ?(telemetry = false) ?sink target (case : Gen.case) =
  if not (Oracle.supported case.program) then
    invalid_arg "Chaos.check: program carries optimizer-generated tables";
  let salt = case_salt case in
  let rng = Stdx.Prng.create (Int64.of_int (salt + 1)) in
  try
    let sink =
      match sink with
      | Some s -> s
      | None ->
        if telemetry then Telemetry.create ~trace_capacity:1024 ~trace_sample_every:7 ()
        else Telemetry.null
    in
    let sim = Nicsim.Sim.create ~telemetry:sink target case.program in
    let ctl =
      Runtime.Controller.create ~config:(controller_config ~salt) sim
        ~original:case.program
    in
    let rec round r =
      if r > rounds then None
      else
        match compare_round ~round:r ctl case.packets with
        | Some d -> Some d
        | None ->
          churn rng ~fresh_tag:r ctl;
          Nicsim.Sim.advance sim 1.0;
          ignore (Runtime.Controller.tick ctl);
          round (r + 1)
    in
    match round 1 with
    | Some d -> Some d
    | None ->
      (* Convergence: after the last tick (and whatever faults it ate),
         the deployed layout must still forward bit-identically. *)
      compare_round ~round:(rounds + 1) ctl case.packets
  with e ->
    Some { Oracle.packet_index = -1; reason = "exception: " ^ Printexc.to_string e }
