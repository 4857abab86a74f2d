type config = {
  target : Costmodel.Target.t;
  instrumented : bool;
  sample_rate : int;
  placement : P4ir.Program.node_id -> Costmodel.Cost.core;
}

let default_config target =
  { target; instrumented = true; sample_rate = 1; placement = Costmodel.Cost.all_asic }

(* A flow-cache fill in flight: the packet missed [cache] and is now
   traversing the covered original tables; we record which action each
   fired and install the fused result at the end (§3.2.2). *)
type pending_fill = {
  cache : Engine.t;
  key_patterns : P4ir.Pattern.t list;
  covered : string list;
  mutable fired : (string * string) list;  (* table name -> action name *)
  mutable ended_early : bool;  (* a drop cut the covered region short *)
}

type trace_event = { node : P4ir.Program.node_id; name : string; outcome : string }

(* Pre-resolved telemetry handles: one hash probe per table node at
   set_telemetry time, plain field increments per packet after that. *)
type node_tel = {
  nt_hit : Telemetry.Metrics.counter;
  nt_miss : Telemetry.Metrics.counter;
}

type exec_tel = {
  et_sink : Telemetry.t;
  et_packets : Telemetry.Metrics.counter;
  et_drops : Telemetry.Metrics.counter;
  et_nodes : (int, node_tel) Hashtbl.t;
}

type t = {
  cfg : config;
  mutable prog : P4ir.Program.t;
  engines : (string, Engine.t) Hashtbl.t;
  node_engine : (int, Engine.t) Hashtbl.t;
  ctrs : Profile.Counter.t;
  mutable seen : int;
  mutable drops : int;
  mutable tracer : (trace_event -> unit) option;
  mutable tel : Telemetry.t;
  mutable tel_handles : exec_tel option;  (* Some iff [tel] is enabled *)
  (* The compiled data path. [None] until the first [run_batch];
     [compiled_stale] forces a rebuild (with per-table artifact reuse)
     on the next use. *)
  mutable compiled : Compile.t option;
  mutable compiled_stale : bool;
}

let node_cat = Compile.node_cat

let build_tel_handles tel prog =
  if not (Telemetry.enabled tel) then None
  else begin
    let m = Telemetry.metrics tel in
    let nodes = Hashtbl.create 32 in
    List.iter
      (fun (id, (tab : P4ir.Table.t)) ->
        let prefix = Printf.sprintf "nicsim.%s.%s" (node_cat tab) tab.name in
        Hashtbl.replace nodes id
          { nt_hit = Telemetry.Metrics.counter m (prefix ^ ".hit");
            nt_miss = Telemetry.Metrics.counter m (prefix ^ ".miss") })
      (P4ir.Program.tables prog);
    Some
      { et_sink = tel;
        et_packets = Telemetry.Metrics.counter m "nicsim.packets";
        et_drops = Telemetry.Metrics.counter m "nicsim.drops";
        et_nodes = nodes }
  end

let create cfg prog =
  let engines = Hashtbl.create 32 in
  let node_engine = Hashtbl.create 32 in
  List.iter
    (fun (id, (tab : P4ir.Table.t)) ->
      let e = Engine.create tab in
      Hashtbl.replace engines tab.name e;
      Hashtbl.replace node_engine id e)
    (P4ir.Program.tables prog);
  { cfg; prog; engines; node_engine; ctrs = Profile.Counter.create (); seen = 0; drops = 0;
    tracer = None; tel = Telemetry.null; tel_handles = None; compiled = None;
    compiled_stale = true }

let program t = t.prog
let config t = t.cfg
let counters t = t.ctrs
let engine t name = Hashtbl.find_opt t.engines name

let engine_exn t name =
  match engine t name with
  | Some e -> e
  | None -> invalid_arg ("Exec.engine_exn: no table " ^ name)

let packets_seen t = t.seen
let drops_seen t = t.drops

let set_tracer t hook = t.tracer <- hook

let telemetry t = t.tel

let set_telemetry t tel =
  t.tel <- tel;
  t.tel_handles <- build_tel_handles tel t.prog;
  t.compiled_stale <- true

let trace t node name outcome =
  match t.tracer with
  | Some f -> f { node; name; outcome }
  | None -> ()

let core_factor (target : Costmodel.Target.t) = function
  | Costmodel.Cost.Asic -> 1.0
  | Costmodel.Cost.Cpu -> target.cpu_slowdown

let apply_action = Compile.apply_action

let cache_key_patterns (tab : P4ir.Table.t) pkt =
  List.map
    (fun (k : P4ir.Table.key) -> P4ir.Pattern.Exact (Packet.get pkt k.field))
    tab.keys

let try_complete_fill ~now fill =
  (* Install whatever the packet actually executed through the covered
     region: the full sequence, a drop-truncated prefix, or (for group
     caches) the one branch arm it took. *)
  if fill.fired <> [] then begin
    let cache_def = Engine.def fill.cache in
    let fired_in_order =
      List.filter_map
        (fun tname ->
          Option.map (fun a -> (tname, a)) (List.assoc_opt tname fill.fired))
        fill.covered
    in
    let fused = Profile.Counter_map.fuse fired_in_order in
    match P4ir.Table.find_action cache_def fused with
    | Some _ ->
      let entry = P4ir.Table.entry fill.key_patterns fused in
      ignore (Engine.cache_fill fill.cache ~now entry)
    | None -> ()  (* behaviour combination not representable; skip *)
  end

let sampled_at t seq = t.cfg.instrumented && seq mod t.cfg.sample_rate = 0

(* The DAG interpreter: the reference the compiled walk is tested
   against, not a production path. *)
let run_packet t ~now pkt =
  t.seen <- t.seen + 1;
  let seq = t.seen in
  let sampled = sampled_at t seq in
  let root = P4ir.Program.root t.prog in
  let entry_core = match root with Some r -> t.cfg.placement r | None -> Costmodel.Cost.Asic in
  let target = t.cfg.target in
  let bump owner label latency =
    if sampled then begin
      Profile.Counter.incr t.ctrs ~owner ~label;
      latency +. target.counter_update_cost
    end
    else latency
  in
  let tel = t.tel_handles in
  (* Span timestamps live on the modeled axis: window seconds scaled to
     the viewer's microseconds, latency units inside the packet. *)
  let tracing = Telemetry.should_trace t.tel ~seq in
  let tbase = if tracing then now *. 1e6 else 0. in
  let tspans : Telemetry.Trace.span list ref = ref [] in
  let latency = ref target.l_fixed in
  let fills : pending_fill list ref = ref [] in
  if entry_core = Costmodel.Cost.Cpu then latency := !latency +. target.migration_latency;
  let rec step current prev_core =
    match current with
    | None ->
      if prev_core = Costmodel.Cost.Cpu then
        latency := !latency +. target.migration_latency
    | Some id ->
      let core = t.cfg.placement id in
      if core <> prev_core then latency := !latency +. target.migration_latency;
      let factor = core_factor target core in
      let l0 = !latency in
      (match P4ir.Program.find_exn t.prog id with
       | P4ir.Program.Cond c ->
         latency := !latency +. (target.l_cond *. factor);
         let taken = P4ir.Program.eval_cond c (Packet.get pkt c.field) in
         let outcome = if taken then "true" else "false" in
         trace t id c.cond_name outcome;
         latency := bump c.cond_name outcome !latency;
         (* Group caches cover branch nodes too: record the outcome so
            the fill's fused action name identifies the arm taken. *)
         List.iter
           (fun fill ->
             if List.mem c.cond_name fill.covered
                && not (List.mem_assoc c.cond_name fill.fired) then
               fill.fired <- fill.fired @ [ (c.cond_name, outcome) ])
           !fills;
         if tracing then
           tspans :=
             { Telemetry.Trace.name = c.cond_name;
               cat = "cond";
               ts = tbase +. l0;
               dur = !latency -. l0;
               tid = seq;
               args = [ ("outcome", outcome) ] }
             :: !tspans;
         step (if taken then c.on_true else c.on_false) core
       | P4ir.Program.Table (tab, nxt) ->
         let eng = Hashtbl.find t.node_engine id in
         let result, accesses = Engine.lookup eng pkt in
         latency := !latency +. (float_of_int accesses *. target.l_mat *. factor);
         let action_name =
           match result with Some e -> e.P4ir.Table.action | None -> tab.default_action
         in
         let action = P4ir.Table.find_action_exn tab action_name in
         trace t id tab.name action_name;
         (match tel with
          | Some h -> (
            match Hashtbl.find_opt h.et_nodes id with
            | Some nt ->
              Telemetry.Metrics.inc
                (match result with Some _ -> nt.nt_hit | None -> nt.nt_miss)
            | None -> ())
          | None -> ());
         (* Register a pending flow-cache fill on auto-insert cache miss,
            keyed on the packet's current field values. *)
         (match (tab.role, result) with
          | P4ir.Table.Cache meta, None when meta.auto_insert ->
            fills :=
              { cache = eng;
                key_patterns = cache_key_patterns tab pkt;
                covered = meta.cached_tables;
                fired = [];
                ended_early = false }
              :: !fills
          | _ -> ());
         (* Record this table's fired action for fills covering it. *)
         (match tab.role with
          | P4ir.Table.Regular | P4ir.Table.Merged _ ->
            List.iter
              (fun fill ->
                if List.mem tab.name fill.covered
                   && not (List.mem_assoc tab.name fill.fired) then
                  fill.fired <- fill.fired @ [ (tab.name, action_name) ])
              !fills
          | _ -> ());
         apply_action pkt action;
         latency :=
           !latency
           +. (float_of_int (P4ir.Action.num_primitives action) *. target.l_act *. factor);
         latency := bump tab.name action_name !latency;
         if tracing then
           tspans :=
             { Telemetry.Trace.name = tab.name;
               cat = node_cat tab;
               ts = tbase +. l0;
               dur = !latency -. l0;
               tid = seq;
               args =
                 [ ("action", action_name);
                   ("result", match result with Some _ -> "hit" | None -> "miss");
                   ("accesses", string_of_int accesses) ] }
             :: !tspans;
         if Packet.is_dropped pkt then begin
           (* Run-to-completion halt: the core fetches the next packet. *)
           List.iter (fun f -> f.ended_early <- true) !fills;
           t.drops <- t.drops + 1;
           match tel with Some h -> Telemetry.Metrics.inc h.et_drops | None -> ()
         end
         else begin
           let next =
             match nxt with
             | P4ir.Program.Uniform n -> n
             | P4ir.Program.Per_action branches -> (
               match List.assoc_opt action_name branches with
               | Some n -> n
               | None -> None)
           in
           step next core
         end)
  in
  step root entry_core;
  List.iter (try_complete_fill ~now) !fills;
  (match tel with Some h -> Telemetry.Metrics.inc h.et_packets | None -> ());
  if tracing then begin
    Telemetry.add_span t.tel
      { Telemetry.Trace.name = "packet";
        cat = "packet";
        ts = tbase;
        dur = !latency;
        tid = seq;
        args =
          [ ("seq", string_of_int seq);
            ("dropped", if Packet.is_dropped pkt then "true" else "false") ] };
    List.iter (Telemetry.add_span t.tel) (List.rev !tspans)
  end;
  !latency

(* --- compiled data path --- *)

let ensure_compiled t =
  match t.compiled with
  | Some c when not t.compiled_stale -> c
  | reuse_opt ->
    let reuse = if t.compiled_stale then reuse_opt else None in
    let c =
      Compile.build ?reuse ~target:t.cfg.target ~placement:t.cfg.placement ~counters:t.ctrs
        ~telemetry:t.tel
        ~engine_of:(fun id -> Hashtbl.find t.node_engine id)
        t.prog
    in
    t.compiled <- Some c;
    t.compiled_stale <- false;
    c

let precompile t =
  let c = ensure_compiled t in
  (Compile.tables_reused c, Compile.tables_rebuilt c)

let compiled_tracer t =
  match t.tracer with
  | None -> None
  | Some f -> Some (fun node name outcome -> f { node; name; outcome })

(* Every burst takes the compiled walk; kept for the e2e benchmark
   adapter, which reports the share of windows on another walk. *)
let soa_capable _ = false

(* Lane inputs ([seqs], [nows]) supplied by the caller, with its own
   reused scratch. Advances [seen] by [n] exactly as [n] per-packet calls
   would. *)
let run_batch t ~seqs ~nows ~pos ~n ~out pkts =
  if pos < 0 || pos + n > Array.length out then invalid_arg "Exec.run_batch: out too small";
  if n > Array.length seqs || n > Array.length nows || n > Array.length pkts then
    invalid_arg "Exec.run_batch: burst larger than its input arrays";
  let c = ensure_compiled t in
  let tracer = compiled_tracer t in
  let dropped = ref 0 in
  for i = 0 to n - 1 do
    t.seen <- t.seen + 1;
    let pkt = Array.unsafe_get pkts i in
    let seq = Array.unsafe_get seqs i in
    Compile.run c ~tracer ~sampled:(sampled_at t seq) ~seq ~nows ~out ~pos i pkt;
    if Compile.drop_observed c then t.drops <- t.drops + 1;
    if Packet.is_dropped pkt then incr dropped
  done;
  !dropped

let replicate t =
  (* Distinct program nodes can share one engine by name; preserve that
     aliasing in the copy so a fill through either node stays coherent. *)
  let mapping : (Engine.t * Engine.t) list ref = ref [] in
  let copy_of eng =
    match List.find_opt (fun (orig, _) -> orig == eng) !mapping with
    | Some (_, c) -> c
    | None ->
      let c = Engine.copy eng in
      mapping := (eng, c) :: !mapping;
      c
  in
  let engines = Hashtbl.create (Hashtbl.length t.engines) in
  Hashtbl.iter (fun name eng -> Hashtbl.replace engines name (copy_of eng)) t.engines;
  let node_engine = Hashtbl.create (Hashtbl.length t.node_engine) in
  Hashtbl.iter (fun id eng -> Hashtbl.replace node_engine id (copy_of eng)) t.node_engine;
  (* Each replica gets a forked sink (fresh registry, no trace ring), so
     it never touches the parent's metrics. *)
  let tel = Telemetry.fork t.tel in
  { t with
    engines;
    node_engine;
    ctrs = Profile.Counter.create ();
    seen = 0;
    drops = 0;
    tracer = None;
    tel;
    tel_handles = build_tel_handles tel t.prog;
    (* The replica has its own engines, counters, and sink; it compiles
       its own pipeline on first use. *)
    compiled = None;
    compiled_stale = true }

let replace_program t prog =
  let changed = ref 0 in
  let new_engines = Hashtbl.create 32 in
  Hashtbl.reset t.node_engine;
  List.iter
    (fun (id, (tab : P4ir.Table.t)) ->
      let reusable =
        match Hashtbl.find_opt t.engines tab.name with
        | Some eng ->
          let old_def = Engine.def eng in
          if old_def.P4ir.Table.keys = tab.keys && old_def.actions = tab.actions
             && old_def.role = tab.role
          then Some eng
          else None
        | None -> None
      in
      let eng =
        match reusable with
        | Some eng -> eng
        | None ->
          incr changed;
          Engine.create tab
      in
      Hashtbl.replace new_engines tab.name eng;
      Hashtbl.replace t.node_engine id eng)
    (P4ir.Program.tables prog);
  Hashtbl.reset t.engines;
  Hashtbl.iter (Hashtbl.replace t.engines) new_engines;
  t.prog <- prog;
  t.tel_handles <- build_tel_handles t.tel prog;
  (* This IS deploy time for the compiled data path: recompile now, with
     per-table artifact reuse keyed on the engines kept above, so the
     packet path never pays the flattening. Only done when the compiled
     path is actually in use — interpreter-only executors stay lazy.
     Recompilation is host-side work; it adds no modeled downtime. *)
  t.compiled_stale <- true;
  (match t.compiled with Some _ -> ignore (ensure_compiled t) | None -> ());
  !changed

let sync_entries_to_ir t =
  P4ir.Program.map_tables t.prog (fun _ tab ->
      match Hashtbl.find_opt t.engines tab.P4ir.Table.name with
      | Some eng -> { tab with P4ir.Table.entries = Engine.entries eng }
      | None -> tab)
