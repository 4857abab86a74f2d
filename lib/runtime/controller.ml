type deploy_mode = Full | Incremental

type config = {
  optimizer : Pipeleon.Optimizer.config;
  reconfig_downtime : float;
  min_relative_gain : float;
  deploy_mode : deploy_mode;
  thresholds : Monitor.thresholds;
  faults : Faults.config;
  deploy_retries : int;
  backoff_base : float;
  backoff_cap : float;
  blacklist_ttl : int;
}

let default_config =
  { optimizer = Pipeleon.Optimizer.default_config;
    reconfig_downtime = 0.;
    min_relative_gain = 0.03;
    deploy_mode = Full;
    thresholds = Monitor.default_thresholds;
    faults = Faults.disabled;
    deploy_retries = 2;
    backoff_base = 0.5;
    backoff_cap = 8.;
    blacklist_ttl = 5 }

type t = {
  cfg : config;
  simulator : Nicsim.Sim.t;
  faults : Faults.t;
  mutable original : P4ir.Program.t;
  mutable deployed : P4ir.Program.t;
  mutable gen : int;
  mutable ticks : int;
  mutable baseline : Profile.Counter.t;
  update_counts : (string, int) Hashtbl.t;
  deployed_update_counts : (string, int) Hashtbl.t;
      (* per-deployed-table op counts since the last tick: the monitor
         checks the deployed layout's profile, so update storms must be
         visible under deployed names (a merged table absorbs its
         originals' updates) *)
  mutable last_tick : float;
  mutable deploy_failures : int;
      (* consecutive failed install attempts; feeds the backoff schedule
         and resets on the first success *)
  blacklist : Remediate.blacklist;
  locality_memory : (string, float) Hashtbl.t;
      (* last believed flow-cache hit rate per original table; decays back
         toward the default so caching is retried after traffic shifts *)
  warm : Pipeleon.Search.eval_cache;
      (* candidate evaluations from previous generations, keyed by
         pipelet signature + bucketed profile (Incremental.pipelet_signature) *)
}

let create ?(config = default_config) ?warm_cache simulator ~original =
  { cfg = config;
    simulator;
    faults = Faults.create config.faults;
    original;
    deployed = Nicsim.Exec.program (Nicsim.Sim.exec simulator);
    gen = 0;
    ticks = 0;
    baseline = Profile.Counter.create ();
    update_counts = Hashtbl.create 16;
    deployed_update_counts = Hashtbl.create 16;
    last_tick = Nicsim.Sim.now simulator;
    deploy_failures = 0;
    blacklist = Remediate.create_blacklist ();
    locality_memory = Hashtbl.create 16;
    warm =
      (* A caller-owned cache is how a fleet shares warm starts across
         NICs running the same program (the cache is mutex-guarded). *)
      (match warm_cache with
       | Some cache -> cache
       | None -> Pipeleon.Search.create_cache ()) }

let sim t = t.simulator
let original_program t = t.original
let deployed_program t = t.deployed
let generation t = t.gen
let faults t = t.faults
let warm_cache t = t.warm

let bump t name =
  let tel = Nicsim.Sim.telemetry t.simulator in
  if Telemetry.enabled tel then
    Telemetry.Metrics.inc (Telemetry.Metrics.counter (Telemetry.metrics tel) name)

let add_runtime_span t ~name ~start ~dur ~args =
  let tel = Nicsim.Sim.telemetry t.simulator in
  if Telemetry.enabled tel then
    Telemetry.add_span tel
      { Telemetry.Trace.name;
        cat = "runtime";
        ts = start *. 1e6;
        dur = dur *. 1e6;
        tid = 0;
        args }

(* Peer gossip: adopt another NIC's remediation exclusions before this
   NIC hits the same issue. Bans carry this controller's own TTL from the
   current tick; re-adopting an already-active ban only extends it (and
   is not counted as a fresh adoption). *)
let adopt_exclusions t exclusions =
  List.iter
    (fun exclusion ->
      if not (Remediate.banned t.blacklist ~now:t.ticks exclusion) then
        bump t "runtime.gossip.adopted";
      Remediate.ban t.blacklist ~now:t.ticks ~ttl:t.cfg.blacklist_ttl exclusion)
    exclusions

let count_update t table =
  let cur = match Hashtbl.find_opt t.update_counts table with Some n -> n | None -> 0 in
  Hashtbl.replace t.update_counts table (cur + 1)

let node_id_of t table =
  match P4ir.Program.find_table t.original table with
  | Some (id, _) -> id
  | None -> invalid_arg ("Controller: unknown original table " ^ table)

(* --- entry-update path: translation, fault injection, read-back --- *)

let apply_op t (op : Pipeleon.Api_map.op) =
  let ex = Nicsim.Sim.exec t.simulator in
  match op with
  | Pipeleon.Api_map.Direct { table; insert = true; entry } ->
    Nicsim.Sim.insert t.simulator ~table entry
  | Pipeleon.Api_map.Direct { table; insert = false; entry } ->
    ignore (Nicsim.Sim.delete t.simulator ~table ~patterns:entry.patterns)
  | Pipeleon.Api_map.Rebuild { table; entries } ->
    Nicsim.Engine.replace_all (Nicsim.Exec.engine_exn ex table) entries
  | Pipeleon.Api_map.Invalidate table ->
    Nicsim.Engine.invalidate (Nicsim.Exec.engine_exn ex table)

let deployed_table t name =
  List.find_map
    (fun (_, (tab : P4ir.Table.t)) ->
      if String.equal tab.name name then Some tab else None)
    (P4ir.Program.tables t.deployed)

(* Apply an op through the faulty channel: it may silently vanish or land
   corrupted. Corruptions are well-formed (another action of the same
   table, or a rebuild one entry short) — exactly what read-back must
   catch. *)
let apply_op_faulty t (op : Pipeleon.Api_map.op) =
  match Faults.update_fate t.faults with
  | Faults.Apply -> apply_op t op
  | Faults.Drop -> ()
  | Faults.Corrupt -> (
    match op with
    | Pipeleon.Api_map.Direct { table; insert = true; entry } -> (
      match deployed_table t table with
      | Some tab -> (
        match Faults.corrupt_entry t.faults tab entry with
        | Some bad -> Nicsim.Sim.insert t.simulator ~table bad
        | None -> () (* nothing to corrupt with: drop *))
      | None -> ())
    | Pipeleon.Api_map.Rebuild { table; entries = _ :: rest } ->
      Nicsim.Engine.replace_all
        (Nicsim.Exec.engine_exn (Nicsim.Sim.exec t.simulator) table)
        rest
    | _ -> () (* deletes / invalidations / empty rebuilds corrupt to drops *))

let entry_equal (a : P4ir.Table.entry) (b : P4ir.Table.entry) =
  a.priority = b.priority
  && String.equal a.action b.action
  && List.length a.patterns = List.length b.patterns
  && List.for_all2 P4ir.Pattern.equal a.patterns b.patterns

let patterns_equal (a : P4ir.Pattern.t list) (b : P4ir.Pattern.t list) =
  List.length a = List.length b && List.for_all2 P4ir.Pattern.equal a b

let readback t table =
  Nicsim.Engine.entries (Nicsim.Exec.engine_exn (Nicsim.Sim.exec t.simulator) table)

let op_healthy t (op : Pipeleon.Api_map.op) =
  match op with
  | Pipeleon.Api_map.Direct { table; insert = true; entry } ->
    List.exists (entry_equal entry) (readback t table)
  | Pipeleon.Api_map.Direct { table; insert = false; entry } ->
    not
      (List.exists
         (fun (e : P4ir.Table.entry) -> patterns_equal e.patterns entry.patterns)
         (readback t table))
  | Pipeleon.Api_map.Rebuild { table; entries } ->
    let live = readback t table in
    List.length live = List.length entries
    && List.for_all (fun e -> List.exists (entry_equal e) live) entries
  | Pipeleon.Api_map.Invalidate table ->
    Nicsim.Engine.num_entries (Nicsim.Exec.engine_exn (Nicsim.Sim.exec t.simulator) table)
    = 0

let repair_op t (op : Pipeleon.Api_map.op) =
  (match op with
   | Pipeleon.Api_map.Direct { table; insert = true; entry } ->
     (* sweep out whatever landed under these patterns (a corrupted
        variant), then apply fault-free *)
     ignore (Nicsim.Sim.delete t.simulator ~table ~patterns:entry.patterns);
     Nicsim.Sim.insert t.simulator ~table entry
   | Pipeleon.Api_map.Direct { insert = false; _ }
   | Pipeleon.Api_map.Rebuild _ | Pipeleon.Api_map.Invalidate _ -> apply_op t op);
  bump t "runtime.remediations.update_repair"

let op_target = function
  | Pipeleon.Api_map.Direct { table; _ }
  | Pipeleon.Api_map.Rebuild { table; _ }
  | Pipeleon.Api_map.Invalidate table -> table

let count_deployed_update t table =
  let cur =
    match Hashtbl.find_opt t.deployed_update_counts table with Some n -> n | None -> 0
  in
  Hashtbl.replace t.deployed_update_counts table (cur + 1)

let run_ops t ops =
  (* Attempted ops count as update load on their deployed target even
     when the faulty channel drops them — the repair traffic that
     follows is load too. *)
  List.iter (fun op -> count_deployed_update t (op_target op)) ops;
  if not (Faults.enabled t.faults) then List.iter (apply_op t) ops
  else
    List.iter
      (fun op ->
        apply_op_faulty t op;
        if not (op_healthy t op) then repair_op t op)
      ops

let insert t ~table entry =
  let id = node_id_of t table in
  t.original <- P4ir.Program.update_table t.original id (fun tab -> P4ir.Table.add_entry tab entry);
  count_update t table;
  run_ops t
    (Pipeleon.Api_map.map_insert ~original:t.original ~optimized:t.deployed ~table entry)

let delete t ~table entry =
  let id = node_id_of t table in
  t.original <-
    P4ir.Program.update_table t.original id (fun tab ->
        { tab with
          P4ir.Table.entries =
            List.filter
              (fun (e : P4ir.Table.entry) ->
                not (List.for_all2 P4ir.Pattern.equal e.patterns entry.P4ir.Table.patterns))
              tab.P4ir.Table.entries });
  count_update t table;
  run_ops t
    (Pipeleon.Api_map.map_delete ~original:t.original ~optimized:t.deployed ~table entry)

(* --- verified deploy: snapshot, install, rollback + backoff --- *)

type deploy_report = {
  installed : bool;
  generation : int;
  attempts : int;
  rollbacks : int;
  downtime_seconds : float;
  tables_rebuilt : int;
  failure : string option;
}

(* One install through the simulator; returns the number of tables
   (re)built. Downtime is charged to the clock by the simulator itself,
   so callers measure it as a clock delta — that stays correct for a
   failed hot-patch, where the rebuilt count is lost to the exception. *)
let install t program =
  match t.cfg.deploy_mode with
  | Full ->
    Nicsim.Sim.reconfigure ~downtime:t.cfg.reconfig_downtime t.simulator program;
    t.baseline <- Profile.Counter.create ();
    List.length (P4ir.Program.tables program)
  | Incremental ->
    let total = max 1 (List.length (P4ir.Program.tables program)) in
    let per_table = t.cfg.reconfig_downtime /. float_of_int total in
    Nicsim.Sim.hot_patch ~downtime_per_table:per_table t.simulator program

let deploy t program =
  let sim = t.simulator in
  (* Last-known-good: the running program with its live entries, so a
     rollback restores even tables the failed deploy dropped. *)
  let snapshot = Nicsim.Exec.sync_entries_to_ir (Nicsim.Sim.exec sim) in
  let arm () =
    if Faults.enabled t.faults then
      Nicsim.Sim.set_deploy_fault sim (Some (fun () -> Faults.deploy_attempt t.faults))
  in
  let disarm () = Nicsim.Sim.set_deploy_fault sim None in
  let max_attempts = 1 + max 0 t.cfg.deploy_retries in
  let rec go attempt downtime_acc =
    let before = Nicsim.Sim.now sim in
    arm ();
    match install t program with
    | rebuilt ->
      disarm ();
      let charged = Nicsim.Sim.now sim -. before in
      t.deployed <- program;
      t.gen <- t.gen + 1;
      t.deploy_failures <- 0;
      add_runtime_span t ~name:"deploy" ~start:before ~dur:charged
        ~args:[ ("generation", string_of_int t.gen); ("attempt", string_of_int attempt) ];
      { installed = true;
        generation = t.gen;
        attempts = attempt;
        rollbacks = attempt - 1;
        downtime_seconds = downtime_acc +. charged;
        tables_rebuilt = rebuilt;
        failure = None }
    | exception Nicsim.Sim.Deploy_failed reason ->
      let failed_charge = Nicsim.Sim.now sim -. before in
      t.deploy_failures <- t.deploy_failures + 1;
      (* Roll back: reload the cached known-good image. The fault hook is
         disarmed first — reverting to a previously verified image is the
         one deploy that cannot fail verification. *)
      disarm ();
      let rb_start = Nicsim.Sim.now sim in
      Nicsim.Sim.reconfigure ~downtime:t.cfg.reconfig_downtime sim snapshot;
      t.baseline <- Profile.Counter.create ();
      let rb_charge = Nicsim.Sim.now sim -. rb_start in
      bump t "runtime.remediations.rollback";
      add_runtime_span t ~name:"rollback" ~start:rb_start ~dur:rb_charge
        ~args:[ ("reason", reason); ("attempt", string_of_int attempt) ];
      let downtime_acc = downtime_acc +. failed_charge +. rb_charge in
      if attempt >= max_attempts then
        { installed = false;
          generation = t.gen;
          attempts = attempt;
          rollbacks = attempt;
          downtime_seconds = downtime_acc;
          tables_rebuilt = 0;
          failure = Some reason }
      else begin
        bump t "runtime.remediations.retry";
        (* Serve last-known-good while waiting out the backoff; the wait
           grows with *consecutive* failures, across deploy calls. *)
        Nicsim.Sim.advance sim
          (Remediate.backoff ~base:t.cfg.backoff_base ~cap:t.cfg.backoff_cap
             ~failures:t.deploy_failures);
        go (attempt + 1) downtime_acc
      end
  in
  go 1 0.

(* --- the control loop --- *)

type tick_report = {
  reoptimized : bool;
  predicted_gain : float;
  issues : Monitor.issue list;
  remediations : Remediate.action list;
  profile : Profile.t;
  search_seconds : float;
  deploy : deploy_report option;
}

(* Observed flow-cache hit rates, per covered original table — but only
   from caches whose covered tables saw no entry updates this window:
   misses caused by invalidation say nothing about traffic locality, and
   would wrongly poison every table the cache happened to cover. *)
let observed_localities ~deployed ~prof_opt ~prof_orig =
  List.concat_map
    (fun (_, (tab : P4ir.Table.t)) ->
      match tab.role with
      | P4ir.Table.Cache meta when meta.auto_insert -> (
        let covered_updates =
          List.fold_left
            (fun acc name -> acc +. Profile.update_rate prof_orig ~table_name:name)
            0. meta.cached_tables
        in
        if covered_updates > 0. then []
        else
          match Profile.table_stats prof_opt tab.name with
          | Some stats ->
            let miss =
              match List.assoc_opt tab.default_action stats.Profile.action_probs with
              | Some p -> p
              | None -> 1.
            in
            List.map (fun name -> (name, 1. -. miss)) meta.cached_tables
          | None -> [])
      | _ -> [])
    (P4ir.Program.tables deployed)

(* Locality beliefs persist across layout changes (a removed cache stops
   producing observations) and decay toward the planning default so
   caching is re-tried once stale pessimism has faded. *)
let locality_decay = 0.25

let remember_localities t ~observations ~default =
  List.iter
    (fun (name, hit) -> Hashtbl.replace t.locality_memory name hit)
    observations;
  let observed = List.map fst observations in
  Hashtbl.iter
    (fun name current ->
      if not (List.mem name observed) then
        Hashtbl.replace t.locality_memory name
          (current +. (locality_decay *. (default -. current))))
    (Hashtbl.copy t.locality_memory)

let apply_locality_memory t prof =
  Hashtbl.fold
    (fun name locality prof ->
      match Profile.table_stats prof name with
      | Some s -> Profile.set_table name { s with Profile.locality } prof
      | None -> prof)
    t.locality_memory prof

(* Injected counter skew: every label of an owner scales by the owner's
   stable factor, like a miscalibrated per-table counter bank. *)
let skewed_counters t counter =
  if (not (Faults.enabled t.faults)) || (Faults.config t.faults).Faults.profile_skew <= 0.
  then counter
  else begin
    let out = Profile.Counter.create () in
    List.iter
      (fun ((k : Profile.Counter.key), v) ->
        Profile.Counter.incr
          ~by:(Faults.skew_count t.faults ~owner:k.owner v)
          out ~owner:k.owner ~label:k.label)
      (Profile.Counter.dump counter);
    out
  end

(* Two programs lay out the data plane identically when their tables
   match by name and role — entry contents may differ (the control plane
   churns them continuously). *)
let same_layout a b =
  let sig_of p =
    List.map (fun (_, (tab : P4ir.Table.t)) -> (tab.name, tab.role)) (P4ir.Program.tables p)
  in
  sig_of a = sig_of b

let tick t =
  t.ticks <- t.ticks + 1;
  let now = Nicsim.Sim.now t.simulator in
  let window = Float.max 1e-9 (now -. t.last_tick) in
  t.last_tick <- now;
  let target = Nicsim.Sim.target t.simulator in
  let current = Nicsim.Exec.counters (Nicsim.Sim.exec t.simulator) in
  let delta = Profile.Counter.diff ~current ~baseline:t.baseline in
  t.baseline <- Profile.Counter.snapshot current;
  let delta = skewed_counters t delta in
  let folded = Profile.Counter_map.fold_back ~optimized:t.deployed delta in
  Hashtbl.iter
    (fun table count ->
      Profile.Counter.incr ~by:(Int64.of_int count) folded ~owner:table ~label:"update")
    t.update_counts;
  Hashtbl.reset t.update_counts;
  let prof_opt = Profile.of_counters ~window t.deployed delta in
  (* Fold the attempted control-plane ops into the deployed profile's
     update rates: the monitor checks the deployed layout, so a merged
     table must be seen absorbing its originals' update storm. *)
  let prof_opt =
    Hashtbl.fold
      (fun table count prof ->
        let rate = float_of_int count /. window in
        match Profile.table_stats prof table with
        | Some s ->
          Profile.set_table table
            { s with Profile.update_rate = s.Profile.update_rate +. rate }
            prof
        | None ->
          Profile.set_table table
            { Profile.action_probs = []; update_rate = rate; locality = -1. }
            prof)
      t.deployed_update_counts prof_opt
  in
  Hashtbl.reset t.deployed_update_counts;
  let prof_orig = Profile.of_counters ~window t.original folded in
  let observations = observed_localities ~deployed:t.deployed ~prof_opt ~prof_orig in
  remember_localities t ~observations ~default:(Profile.default_cache_hit prof_orig);
  let prof_orig = apply_locality_memory t prof_orig in
  let issues = Monitor.check ~thresholds:t.cfg.thresholds ~observed:prof_opt t.deployed in
  let remediations = Remediate.plan ~deployed:t.deployed issues in
  List.iter
    (fun action ->
      bump t
        (match action with
         | Remediate.Evict_cache _ -> "runtime.remediations.cache_evict"
         | Remediate.Split_merge _ -> "runtime.remediations.merge_split"
         | Remediate.Shed _ -> "runtime.remediations.shed");
      List.iter
        (Remediate.ban t.blacklist ~now:t.ticks ~ttl:t.cfg.blacklist_ttl)
        (Remediate.exclusions_of_action action))
    remediations;
  let tel = Nicsim.Sim.telemetry t.simulator in
  let record_common ~predicted_gain ~search_seconds =
    if Telemetry.enabled tel then begin
      let m = Telemetry.metrics tel in
      Telemetry.Metrics.inc (Telemetry.Metrics.counter m "runtime.ticks");
      Telemetry.Metrics.set
        (Telemetry.Metrics.gauge m "runtime.generation")
        (float_of_int t.gen);
      Telemetry.Metrics.set
        (Telemetry.Metrics.gauge m "runtime.predicted_gain")
        predicted_gain;
      Telemetry.Histogram.record
        (Telemetry.Metrics.histogram m "runtime.search_seconds")
        search_seconds;
      List.iter
        (fun issue ->
          let name =
            match issue with
            | Monitor.Low_hit_rate _ -> "runtime.issues.low_hit_rate"
            | Monitor.Merged_blowup _ -> "runtime.issues.merged_blowup"
            | Monitor.Update_storm _ -> "runtime.issues.update_storm"
          in
          Telemetry.Metrics.inc (Telemetry.Metrics.counter m name))
        issues
    end
  in
  if Remediate.sheds remediations then begin
    (* Mid-storm the profile is churn, not signal: skip the search rather
       than optimize against it (the blacklist already covers the stormed
       tables for when the search resumes). *)
    record_common ~predicted_gain:0. ~search_seconds:0.;
    { reoptimized = false;
      predicted_gain = 0.;
      issues;
      remediations;
      profile = prof_orig;
      search_seconds = 0.;
      deploy = None }
  end
  else begin
    let exclusions = Remediate.active t.blacklist ~now:t.ticks in
    let warm =
      { Pipeleon.Optimizer.warm_cache = t.warm;
        warm_signature = Incremental.pipelet_signature }
    in
    let result =
      Pipeleon.Optimizer.optimize ~config:t.cfg.optimizer ~generation:(t.gen + 1) ~warm
        ~exclusions ~telemetry:tel target prof_orig t.original
    in
    let latency_original = Costmodel.Cost.expected_latency target prof_orig t.original in
    let latency_new = latency_original -. result.plan.Pipeleon.Search.predicted_gain in
    let latency_current = Costmodel.Cost.expected_latency target prof_opt t.deployed in
    let worthwhile = latency_new < latency_current *. (1. -. t.cfg.min_relative_gain) in
    (* A remediation must land even when its layout is predicted slower:
       the prediction trusted the very estimates the monitors just
       falsified. Skip only if the search produced the layout already
       running. *)
    let corrective =
      remediations <> [] && not (same_layout result.Pipeleon.Optimizer.program t.deployed)
    in
    let report =
      if worthwhile || corrective then Some (deploy t result.Pipeleon.Optimizer.program)
      else None
    in
    record_common ~predicted_gain:result.plan.Pipeleon.Search.predicted_gain
      ~search_seconds:result.Pipeleon.Optimizer.elapsed_seconds;
    (if Telemetry.enabled tel then
       let m = Telemetry.metrics tel in
       match report with
       | Some r ->
         if r.installed then
           Telemetry.Metrics.inc (Telemetry.Metrics.counter m "runtime.redeploys");
         Telemetry.Metrics.set
           (Telemetry.Metrics.gauge m "runtime.deploy_seconds")
           r.downtime_seconds
       | None -> ());
    { reoptimized = (match report with Some r -> r.installed | None -> false);
      predicted_gain = result.plan.Pipeleon.Search.predicted_gain;
      issues;
      remediations;
      profile = prof_orig;
      search_seconds = result.Pipeleon.Optimizer.elapsed_seconds;
      deploy = report }
  end
