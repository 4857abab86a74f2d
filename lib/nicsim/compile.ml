(* The pipeline compiler: at deploy time, flatten a program DAG and its
   runtime engines into a linear array of fused match->action ops with
   successor indices resolved to array positions. The op walk replaces
   the interpreter's per-node map lookups, closure allocations, and
   counter hash probes with array indexing, precomputed per-op costs,
   and pre-resolved counter cells — semantics (latencies, counters,
   telemetry, fills, traces) stay bit-identical to {!Exec.run_packet}.

   Layering: this module sits below {!Exec}; it receives the raw pieces
   (program, engine resolver, placement, counters, telemetry) instead of
   an executor, and {!Exec} owns the compiled instance and its
   staleness. *)

type tracer = P4ir.Program.node_id -> string -> string -> unit

(* One action of one table, fully resolved: the action body, its
   precomputed cost contribution (primitive count x l_act x core factor,
   multiplied in the interpreter's association order so the float is the
   same one), and the profile-counter cell for (table, action). *)
type act_info = {
  ai_action : P4ir.Action.t;
  ai_name : string;
  ai_idx : int;
      (* position in the table's action list; indexes the op's
         successor array. Stable across artifact reuse because reuse
         requires the action list to be structurally unchanged. *)
  ai_cost : float;
  ai_cell : Profile.Counter.cell;
}

(* The reusable per-table compilation artifact. Incremental deploys that
   keep a table's engine (same name/keys/actions — see
   [Exec.replace_program]) reuse this wholesale; only the successor
   resolution (which depends on the whole program's layout) is redone. *)
type table_art = {
  ta_acts : (string, act_info) Hashtbl.t;
  ta_default : act_info;
  ta_factor : float;
  ta_actions : P4ir.Action.t list;  (* inputs, for reuse validation *)
  ta_default_name : string;
}

type op_cond = {
  c_node : P4ir.Program.node_id;
  c_cond : P4ir.Program.cond;
  c_name : string;
  c_cost : float;  (* l_cond x factor, precomputed *)
  c_core : Costmodel.Cost.core;
  c_true_cell : Profile.Counter.cell;
  c_false_cell : Profile.Counter.cell;
  c_true_pc : int;
  c_false_pc : int;
}

type op_table = {
  t_node : P4ir.Program.node_id;
  t_tab : P4ir.Table.t;
  t_name : string;
  t_eng : Engine.t;
  t_probe : (Packet.t -> P4ir.Table.entry option) option;
      (* allocation-free exact probe ({!Engine.exact_probe}); one memory
         access by construction, same entries as [Engine.lookup] *)
  t_splan : (Packet.t -> P4ir.Table.entry option) option;
      (* shaped plan probe ({!Engine.plan_probe}): learned / tree /
         straight probe per the table's backend selection; leaves
         the modeled access count in [Engine.last_accesses] instead of
         allocating a result tuple *)
  t_core : Costmodel.Cost.core;
  t_factor : float;
  t_cat : string;
  t_art : table_art;
  t_next : int array;
      (* successor pc per [ai_idx], resolved at build time (an action a
         switch does not list goes to the sink, -1): an array read keeps
         the walk free of the option a per-packet [Hashtbl.find_opt]
         would allocate *)
  t_fill_covered : string list option;  (* Some iff auto-insert cache *)
  t_records_fired : bool;  (* Regular | Merged: fills record its action *)
  t_tel : (Telemetry.Metrics.counter * Telemetry.Metrics.counter) option;
      (* (hit, miss), resolved under the same names Exec registers *)
  (* One-slot action memo: entries are immutable and physically stable
     inside the engine, so pointer equality proves the action name (and
     thus the resolved act_info) is unchanged since the last hit. *)
  mutable t_memo_entry : P4ir.Table.entry;
  mutable t_memo_info : act_info;
}

type op = Op_cond of op_cond | Op_table of op_table

(* A flow-cache fill in flight; field-for-field the interpreter's
   [pending_fill] so completion installs identical entries. *)
type fill = {
  f_cache : Engine.t;
  f_keys : P4ir.Pattern.t list;
  f_covered : string list;
  mutable f_fired : (string * string) list;
  mutable f_ended_early : bool;
}

type t = {
  ops : op array;
  pc_of : (P4ir.Program.node_id, int) Hashtbl.t;
  root_pc : int;  (* -1 when the program is empty *)
  entry_core : Costmodel.Cost.core;
  base_latency : float;  (* l_fixed (+ entry migration when root is on CPU) *)
  migration : float;
  counter_cost : float;
  l_mat : float;
  counters : Profile.Counter.t;
  tel : Telemetry.t;
  tel_packets : Telemetry.Metrics.counter option;
  tel_drops : Telemetry.Metrics.counter option;
  reused : int;
  rebuilt : int;
  (* Walk state as scratch fields: a compiled pipeline belongs to one
     executor on one domain, so reusing them keeps the steady-state walk
     allocation-free (fills and spans only allocate on cache misses and
     traced packets respectively, exactly when the interpreter does).
     The latency accumulator is a one-slot floatarray rather than a
     mutable float field: float fields of a mixed record are boxed, so
     every [<-] would allocate; floatarray stores are unboxed. *)
  s_lat : floatarray;
  mutable s_acc : int;
      (* access count of the lookup in flight: a side channel out of the
         probe/lookup branch, so the probe arm never builds a result
         tuple (an int store is immediate — no write barrier) *)
  mutable s_pc : int;
  mutable s_core : Costmodel.Cost.core;
  mutable s_dropped : bool;
  mutable s_fills : fill list;
  mutable s_spans : Telemetry.Trace.span list;
}

let num_ops t = Array.length t.ops
let tables_reused t = t.reused
let tables_rebuilt t = t.rebuilt
let drop_observed t = t.s_dropped

type op_view = {
  view_pc : int;
  view_node : P4ir.Program.node_id;
  view_kind : [ `Table | `Cond ];
  view_name : string;
  view_next : int list;
}

let view t =
  Array.to_list
    (Array.mapi
       (fun pc op ->
         match op with
         | Op_cond c ->
           { view_pc = pc;
             view_node = c.c_node;
             view_kind = `Cond;
             view_name = c.c_name;
             view_next = [ c.c_true_pc; c.c_false_pc ] }
         | Op_table tb ->
           { view_pc = pc;
             view_node = tb.t_node;
             view_kind = `Table;
             view_name = tb.t_name;
             view_next = List.sort_uniq compare (Array.to_list tb.t_next) })
       t.ops)

let pc_of_node t id = Hashtbl.find_opt t.pc_of id

(* --- shared packet/action semantics (also used by Exec) --- *)

let apply_primitive pkt (p : P4ir.Action.primitive) =
  match p with
  | P4ir.Action.Set_field (f, v) -> Packet.set pkt f v
  | P4ir.Action.Set_from (dst, src) -> Packet.set pkt dst (Packet.get pkt src)
  | P4ir.Action.Add_const (f, v) -> Packet.set pkt f (Int64.add (Packet.get pkt f) v)
  | P4ir.Action.Dec_ttl ->
    let ttl = Packet.get pkt P4ir.Field.Ipv4_ttl in
    if Int64.compare ttl 0L > 0 then Packet.set pkt P4ir.Field.Ipv4_ttl (Int64.sub ttl 1L)
  | P4ir.Action.Forward port -> Packet.set_egress pkt port
  | P4ir.Action.Drop -> Packet.mark_dropped pkt
  | P4ir.Action.Nop -> ()

(* A plain recursion rather than [List.iter (apply_primitive pkt)]: the
   partial application builds a closure on every action, on both the
   interpreted and compiled paths. *)
let rec apply_prims pkt = function
  | [] -> ()
  | p :: tl ->
    apply_primitive pkt p;
    apply_prims pkt tl

let apply_action pkt (a : P4ir.Action.t) = apply_prims pkt a.prims

let node_cat (tab : P4ir.Table.t) =
  match tab.role with
  | P4ir.Table.Cache _ -> "cache"
  | P4ir.Table.Merged _ -> "merged"
  | _ -> "table"

let cache_key_patterns (tab : P4ir.Table.t) pkt =
  List.map
    (fun (k : P4ir.Table.key) -> P4ir.Pattern.Exact (Packet.get pkt k.field))
    tab.keys

let try_complete_fill ~now fill =
  if fill.f_fired <> [] then begin
    let cache_def = Engine.def fill.f_cache in
    let fired_in_order =
      List.filter_map
        (fun tname ->
          Option.map (fun a -> (tname, a)) (List.assoc_opt tname fill.f_fired))
        fill.f_covered
    in
    let fused = Profile.Counter_map.fuse fired_in_order in
    match P4ir.Table.find_action cache_def fused with
    | Some _ ->
      let entry = P4ir.Table.entry fill.f_keys fused in
      ignore (Engine.cache_fill fill.f_cache ~now entry)
    | None -> ()
  end

(* --- build --- *)

let core_factor (target : Costmodel.Target.t) = function
  | Costmodel.Cost.Asic -> 1.0
  | Costmodel.Cost.Cpu -> target.cpu_slowdown

let build_art (target : Costmodel.Target.t) counters (tab : P4ir.Table.t) ~factor =
  let acts = Hashtbl.create (max 4 (List.length tab.actions)) in
  List.iteri
    (fun i (a : P4ir.Action.t) ->
      Hashtbl.replace acts a.name
        { ai_action = a;
          ai_name = a.name;
          ai_idx = i;
          (* Same association order as the interpreter's
             [n *. l_act *. factor], folded at compile time. *)
          ai_cost = float_of_int (P4ir.Action.num_primitives a) *. target.l_act *. factor;
          ai_cell = Profile.Counter.cell counters ~owner:tab.name ~label:a.name })
    tab.actions;
  let default =
    match Hashtbl.find_opt acts tab.default_action with
    | Some i -> i
    | None ->
      (* The interpreter would raise on the first packet; surface the
         same defect at compile time instead. *)
      invalid_arg
        (Printf.sprintf "Compile: table %s: unknown default action %s" tab.name
           tab.default_action)
  in
  { ta_acts = acts;
    ta_default = default;
    ta_factor = factor;
    ta_actions = tab.actions;
    ta_default_name = tab.default_action }

(* An artifact from a previous compile is reusable iff the engine object
   itself survived (replace_program keeps engines only when name, keys,
   actions, and role are unchanged), the action set and default are
   structurally identical, the placement factor matches (costs are baked
   in), and the counter registry is the same instance (cells point into
   it). *)
let reusable_art ~counters prev_map (tab : P4ir.Table.t) eng ~factor =
  match prev_map with
  | None -> None
  | Some (prev_counters, arts) ->
    if prev_counters != counters then None
    else
      List.find_map
        (fun (prev_eng, (art : table_art)) ->
          if
            prev_eng == eng
            && Float.equal art.ta_factor factor
            && art.ta_actions = tab.actions
            && String.equal art.ta_default_name tab.default_action
          then Some art
          else None)
        arts

let build ?reuse ~target ~placement ~counters ~telemetry ~engine_of prog =
  let order = Array.of_list (P4ir.Program.topological_order prog) in
  let pc_of = Hashtbl.create (max 8 (Array.length order)) in
  Array.iteri (fun pc id -> Hashtbl.replace pc_of id pc) order;
  let pc_of_next = function
    | None -> -1
    | Some id -> (
      match Hashtbl.find_opt pc_of id with
      | Some pc -> pc
      | None -> invalid_arg "Compile.build: successor outside topological order")
  in
  let metrics = if Telemetry.enabled telemetry then Some (Telemetry.metrics telemetry) else None in
  let prev_map =
    Option.map
      (fun (prev : t) ->
        ( prev.counters,
          Array.to_list prev.ops
          |> List.filter_map (function
               | Op_table tb -> Some (tb.t_eng, tb.t_art)
               | Op_cond _ -> None) ))
      reuse
  in
  let reused = ref 0 and rebuilt = ref 0 in
  let ops =
    Array.map
      (fun id ->
        let core = placement id in
        let factor = core_factor target core in
        match P4ir.Program.find_exn prog id with
        | P4ir.Program.Cond c ->
          Op_cond
            { c_node = id;
              c_cond = c;
              c_name = c.cond_name;
              c_cost = target.Costmodel.Target.l_cond *. factor;
              c_core = core;
              c_true_cell = Profile.Counter.cell counters ~owner:c.cond_name ~label:"true";
              c_false_cell = Profile.Counter.cell counters ~owner:c.cond_name ~label:"false";
              c_true_pc = pc_of_next c.on_true;
              c_false_pc = pc_of_next c.on_false }
        | P4ir.Program.Table (tab, nxt) ->
          let eng = engine_of id in
          let art =
            match reusable_art ~counters prev_map tab eng ~factor with
            | Some art ->
              incr reused;
              art
            | None ->
              incr rebuilt;
              build_art target counters tab ~factor
          in
          let next =
            Array.of_list
              (List.map
                 (fun (a : P4ir.Action.t) ->
                   match nxt with
                   | P4ir.Program.Uniform n -> pc_of_next n
                   | P4ir.Program.Per_action branches -> (
                     match List.assoc_opt a.name branches with
                     | Some n -> pc_of_next n
                     | None -> -1))
                 tab.actions)
          in
          let tel =
            match metrics with
            | None -> None
            | Some m ->
              let prefix = Printf.sprintf "nicsim.%s.%s" (node_cat tab) tab.name in
              Some
                ( Telemetry.Metrics.counter m (prefix ^ ".hit"),
                  Telemetry.Metrics.counter m (prefix ^ ".miss") )
          in
          let fill_covered =
            match tab.role with
            | P4ir.Table.Cache meta when meta.auto_insert -> Some meta.cached_tables
            | _ -> None
          in
          let records_fired =
            match tab.role with
            | P4ir.Table.Regular | P4ir.Table.Merged _ -> true
            | _ -> false
          in
          Op_table
            { t_node = id;
              t_tab = tab;
              t_name = tab.name;
              t_eng = eng;
              t_probe = Engine.exact_probe eng;
              t_splan = Engine.plan_probe eng;
              t_core = core;
              t_factor = factor;
              t_cat = node_cat tab;
              t_art = art;
              t_next = next;
              t_fill_covered = fill_covered;
              t_records_fired = records_fired;
              t_tel = tel;
              t_memo_entry = P4ir.Table.entry [] "__compile_memo_nil";
              t_memo_info = art.ta_default })
      order
  in
  let root = P4ir.Program.root prog in
  let entry_core =
    match root with Some r -> placement r | None -> Costmodel.Cost.Asic
  in
  let base_latency =
    (* The interpreter starts at l_fixed and, for a CPU entry, adds
       migration_latency with one more addition — same two floats, same
       order. *)
    if entry_core = Costmodel.Cost.Cpu then
      target.Costmodel.Target.l_fixed +. target.Costmodel.Target.migration_latency
    else target.Costmodel.Target.l_fixed
  in
  { ops;
    pc_of;
    root_pc = pc_of_next root;
    entry_core;
    base_latency;
    migration = target.Costmodel.Target.migration_latency;
    counter_cost = target.Costmodel.Target.counter_update_cost;
    l_mat = target.Costmodel.Target.l_mat;
    counters;
    tel = telemetry;
    tel_packets =
      Option.map (fun m -> Telemetry.Metrics.counter m "nicsim.packets") metrics;
    tel_drops = Option.map (fun m -> Telemetry.Metrics.counter m "nicsim.drops") metrics;
    reused = !reused;
    rebuilt = !rebuilt;
    s_lat = Float.Array.make 1 0.;
    s_acc = 0;
    s_pc = -1;
    s_core = Costmodel.Cost.Asic;
    s_dropped = false;
    s_fills = [];
    s_spans = [] }

(* --- the compiled walk --- *)

(* Mirrors [Exec.exec_packet] step for step; every latency addition uses
   the same operands in the same order, so the result is bit-identical.
   Counter updates go through pre-resolved cells (same int64 slots the
   interpreter's hash probes reach). Core comparisons use physical
   equality — [Costmodel.Cost.core] has only constant constructors, so
   [==]/[!=] is structural equality without the polymorphic-compare
   call. The timestamp is read from, and the latency written to, the
   caller's float arrays: a float argument or result crossing a
   non-inlined call is boxed, which would allocate twice per packet. *)
let run p ~tracer ~sampled ~seq ~nows ~out ~pos i pkt =
  let now = Array.unsafe_get nows i in
  let tracing = Telemetry.should_trace p.tel ~seq in
  let tbase = if tracing then now *. 1e6 else 0. in
  (* The latency accumulator is read/written with open-coded floatarray
     primitives rather than local [lat]/[add] helpers: without flambda a
     closure call boxes its float argument (and a float return), which
     put three allocations back on every table. The primitives compile
     to plain unboxed loads/stores. *)
  let lb = p.s_lat in
  p.s_spans <- [];
  Float.Array.unsafe_set lb 0 p.base_latency;
  p.s_fills <- [];
  p.s_dropped <- false;
  p.s_pc <- p.root_pc;
  p.s_core <- p.entry_core;
  let ops = p.ops in
  while p.s_pc >= 0 do
    match Array.unsafe_get ops p.s_pc with
    | Op_cond c ->
      if c.c_core != p.s_core then Float.Array.unsafe_set lb 0 (Float.Array.unsafe_get lb 0 +. p.migration);
      let l0 = Float.Array.unsafe_get lb 0 in
      Float.Array.unsafe_set lb 0 (Float.Array.unsafe_get lb 0 +. c.c_cost);
      let taken = P4ir.Program.eval_cond c.c_cond (Packet.get pkt c.c_cond.field) in
      let outcome = if taken then "true" else "false" in
      (match tracer with Some f -> f c.c_node c.c_name outcome | None -> ());
      if sampled then begin
        (* cell = int ref, bumped in place: -opaque dev builds would pay an
           out-of-line call through Profile.Counter per sampled packet *)
        (let cc = if taken then c.c_true_cell else c.c_false_cell in
         cc := !cc + 1);
        Float.Array.unsafe_set lb 0 (Float.Array.unsafe_get lb 0 +. p.counter_cost)
      end;
      (match p.s_fills with
       | [] -> ()
       | fills ->
         List.iter
           (fun fill ->
             if List.mem c.c_name fill.f_covered
                && not (List.mem_assoc c.c_name fill.f_fired) then
               fill.f_fired <- fill.f_fired @ [ (c.c_name, outcome) ])
           fills);
      if tracing then
        p.s_spans <-
          { Telemetry.Trace.name = c.c_name;
            cat = "cond";
            ts = tbase +. l0;
            dur = Float.Array.unsafe_get lb 0 -. l0;
            tid = seq;
            args = [ ("outcome", outcome) ] }
          :: p.s_spans;
      p.s_core <- c.c_core;
      p.s_pc <- (if taken then c.c_true_pc else c.c_false_pc)
    | Op_table tb ->
      if tb.t_core != p.s_core then Float.Array.unsafe_set lb 0 (Float.Array.unsafe_get lb 0 +. p.migration);
      let l0 = Float.Array.unsafe_get lb 0 in
      let result =
        match tb.t_probe with
        | Some probe ->
          p.s_acc <- 1;
          probe pkt
        | None -> (
          match tb.t_splan with
          | Some probe ->
            let r = probe pkt in
            p.s_acc <- Engine.last_accesses tb.t_eng;
            r
          | None ->
            let r, a = Engine.lookup tb.t_eng pkt in
            p.s_acc <- a;
            r)
      in
      let accesses = p.s_acc in
      (* Runtime association order matches the interpreter:
         (accesses *. l_mat) *. factor. *)
      Float.Array.unsafe_set lb 0 (Float.Array.unsafe_get lb 0 +. (float_of_int accesses *. p.l_mat *. tb.t_factor));
      let info =
        match result with
        | None -> tb.t_art.ta_default
        | Some e ->
          if e == tb.t_memo_entry then tb.t_memo_info
          else if String.equal e.P4ir.Table.action tb.t_memo_info.ai_name then
            (* Different entry, same action: the memoed info already
               answers, and skipping the memo stores keeps the steady
               state free of write barriers. Memo names are always
               valid, so an unknown action still reaches the raising
               path below. *)
            tb.t_memo_info
          else begin
            let i =
              match Hashtbl.find_opt tb.t_art.ta_acts e.P4ir.Table.action with
              | Some i -> i
              | None ->
                (* Same failure the interpreter's find_action_exn raises. *)
                ignore (P4ir.Table.find_action_exn tb.t_tab e.P4ir.Table.action);
                assert false
            in
            tb.t_memo_entry <- e;
            tb.t_memo_info <- i;
            i
          end
      in
      (match tracer with Some f -> f tb.t_node tb.t_name info.ai_name | None -> ());
      (match tb.t_tel with
       | Some (hit, miss) ->
         Telemetry.Metrics.inc (match result with Some _ -> hit | None -> miss)
       | None -> ());
      (match (tb.t_fill_covered, result) with
       | Some covered, None ->
         p.s_fills <-
           { f_cache = tb.t_eng;
             f_keys = cache_key_patterns tb.t_tab pkt;
             f_covered = covered;
             f_fired = [];
             f_ended_early = false }
           :: p.s_fills
       | _ -> ());
      if tb.t_records_fired then begin
        match p.s_fills with
        | [] -> ()
        | fills ->
          List.iter
            (fun fill ->
              if List.mem tb.t_name fill.f_covered
                 && not (List.mem_assoc tb.t_name fill.f_fired) then
                fill.f_fired <- fill.f_fired @ [ (tb.t_name, info.ai_name) ])
            fills
      end;
      apply_action pkt info.ai_action;
      Float.Array.unsafe_set lb 0 (Float.Array.unsafe_get lb 0 +. info.ai_cost);
      if sampled then begin
        (let cc = info.ai_cell in
         cc := !cc + 1);
        Float.Array.unsafe_set lb 0 (Float.Array.unsafe_get lb 0 +. p.counter_cost)
      end;
      if tracing then
        p.s_spans <-
          { Telemetry.Trace.name = tb.t_name;
            cat = tb.t_cat;
            ts = tbase +. l0;
            dur = Float.Array.unsafe_get lb 0 -. l0;
            tid = seq;
            args =
              [ ("action", info.ai_name);
                ("result", (match result with Some _ -> "hit" | None -> "miss"));
                ("accesses", string_of_int accesses) ] }
          :: p.s_spans;
      if Packet.is_dropped pkt then begin
        (* Run-to-completion halt; the caller accounts the drop. *)
        List.iter (fun f -> f.f_ended_early <- true) p.s_fills;
        (match p.tel_drops with Some c -> Telemetry.Metrics.inc c | None -> ());
        p.s_dropped <- true;
        p.s_pc <- -1
      end
      else begin
        p.s_core <- tb.t_core;
        p.s_pc <- Array.unsafe_get tb.t_next info.ai_idx
      end
  done;
  (* Tail migration back to the ASIC datapath applies only to packets
     that ran to the sink (a drop halts in place), as in the
     interpreter. *)
  if (not p.s_dropped) && p.s_core == Costmodel.Cost.Cpu then Float.Array.unsafe_set lb 0 (Float.Array.unsafe_get lb 0 +. p.migration);
  (match p.s_fills with
   | [] -> ()
   | fills -> List.iter (try_complete_fill ~now) fills);
  (match p.tel_packets with Some c -> Telemetry.Metrics.inc c | None -> ());
  if tracing then begin
    Telemetry.add_span p.tel
      { Telemetry.Trace.name = "packet";
        cat = "packet";
        ts = tbase;
        dur = Float.Array.unsafe_get lb 0;
        tid = seq;
        args =
          [ ("seq", string_of_int seq);
            ("dropped", if Packet.is_dropped pkt then "true" else "false") ] };
    List.iter (Telemetry.add_span p.tel) (List.rev p.s_spans)
  end;
  Array.unsafe_set out (pos + i) (Float.Array.unsafe_get lb 0)
