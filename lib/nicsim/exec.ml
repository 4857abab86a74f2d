type config = {
  target : Costmodel.Target.t;
  instrumented : bool;
  sample_rate : int;
  placement : P4ir.Program.node_id -> Costmodel.Cost.core;
}

let default_config target =
  { target; instrumented = true; sample_rate = 1; placement = Costmodel.Cost.all_asic }

type trace_event = { node : P4ir.Program.node_id; name : string; outcome : string }

type t = {
  cfg : config;
  mutable prog : P4ir.Program.t;
  engines : (string, Engine.t) Hashtbl.t;
  node_engine : (int, Engine.t) Hashtbl.t;
  ctrs : Profile.Counter.t;
  mutable seen : int;
  mutable tracer : (trace_event -> unit) option;
  mutable tel : Telemetry.t;
  (* The compiled data path. [None] until the first [run_batch];
     [compiled_stale] forces a rebuild (with per-table artifact reuse)
     on the next use. *)
  mutable compiled : Compile.t option;
  mutable compiled_stale : bool;
}

let create cfg prog =
  let engines = Hashtbl.create 32 in
  let node_engine = Hashtbl.create 32 in
  List.iter
    (fun (id, (tab : P4ir.Table.t)) ->
      let e = Engine.create tab in
      Hashtbl.replace engines tab.name e;
      Hashtbl.replace node_engine id e)
    (P4ir.Program.tables prog);
  { cfg; prog; engines; node_engine; ctrs = Profile.Counter.create (); seen = 0;
    tracer = None; tel = Telemetry.null; compiled = None;
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

let set_tracer t hook = t.tracer <- hook

let telemetry t = t.tel

let set_telemetry t tel =
  t.tel <- tel;
  t.compiled_stale <- true

let sampled_at t seq = t.cfg.instrumented && seq mod t.cfg.sample_rate = 0

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
    if Packet.is_dropped pkt then incr dropped
  done;
  !dropped

(* One lane at the executor's next sequence number. *)
let run_packet t ~now pkt =
  let out = [| 0. |] in
  ignore (run_batch t ~seqs:[| t.seen + 1 |] ~nows:[| now |] ~pos:0 ~n:1 ~out [| pkt |]);
  out.(0)

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
    tracer = None;
    tel;
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
  (* This IS deploy time for the compiled data path: recompile now, with
     per-table artifact reuse keyed on the engines kept above, so the
     packet path never pays the flattening. Only done once the executor
     has compiled at all; a fresh one stays lazy. Recompilation is
     host-side work; it adds no modeled downtime. *)
  t.compiled_stale <- true;
  (match t.compiled with Some _ -> ignore (ensure_compiled t) | None -> ());
  !changed

let sync_entries_to_ir t =
  P4ir.Program.map_tables t.prog (fun _ tab ->
      match Hashtbl.find_opt t.engines tab.P4ir.Table.name with
      | Some eng -> { tab with P4ir.Table.entries = Engine.entries eng }
      | None -> tab)
