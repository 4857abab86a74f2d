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
      (* position in the table's action list; indexes the burst walk's
         per-op pre-interned primitive/successor arrays. Stable across
         artifact reuse because reuse requires the action list to be
         structurally unchanged. *)
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

type next_res =
  | Next_uniform of int
  | Next_per_action of (string, int) Hashtbl.t  (* unlisted action -> sink *)

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
  t_next : next_res;
  t_fill_covered : string list option;  (* Some iff auto-insert cache *)
  t_records_fired : bool;  (* Regular | Merged: fills record its action *)
  t_tel : (Telemetry.Metrics.counter * Telemetry.Metrics.counter) option;
      (* (hit, miss), resolved under the same names Exec registers *)
  t_mono : bool;
      (* single-action table: every entry's action and the default
         resolve to the same act_info ([Engine.insert] validates entry
         actions against the table's action list), so the burst walk
         skips the per-lane entry->action memo entirely *)
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

(* --- burst (struct-of-arrays) compilation artifacts ---

   The burst walk runs on native-int field columns (Packet.Batch), so
   every program constant is pre-lowered to int form at build time.
   Interned fields are at most 48 bits wide (build marks the program
   soa-incapable otherwise), which makes the int forms exact:
   - truncation is [land mask] with [mask = 2^width - 1];
   - [Int64.to_int] keeps the low 63 bits, and since [2^width] divides
     [2^63] a truncating add on ints equals the interpreter's
     [Int64.add] followed by [Value.truncate], bit for bit. *)

(* One action primitive against the columnar layout. *)
type bprim =
  | Bp_set of int * int  (* column, pre-truncated value *)
  | Bp_copy of int * int * int  (* dst column, src column, dst mask *)
  | Bp_add of int * int * int  (* column, addend, mask *)
  | Bp_dec_ttl of int  (* ttl column *)
  | Bp_forward of int
  | Bp_drop
  | Bp_nop

(* A condition against a column. [eval_cond] compares unsigned int64;
   column values are nonnegative and below 2^48, so when the argument
   fits a nonnegative native int the comparison is a plain int compare,
   and otherwise (arg >= 2^62 unsigned) every lane compares
   unsigned-below and the outcome is a constant. *)
type bcond =
  | Bc_cmp of P4ir.Program.cmp * int
  | Bc_const of bool

type btab_kind =
  | Bt_exact1 of int
      (* key column of a single-key exact-hash table: burst-probed
         through Engine.exact_view (hash pass + prefetch, then probe) *)
  | Bt_generic of (P4ir.Field.t * int) array
      (* key (field, column) pairs: lanes gather their keys into a
         scratch packet and go through the op's probe/lookup closures *)

type bop =
  | Bop_cond of { bo_col : int; bo_cond : bcond }
  | Bop_table of {
      bo_kind : btab_kind;
      bo_prims : bprim array array;  (* per act_info.ai_idx *)
      bo_wcols : int array array;  (* columns each action may write *)
      bo_next : int array;  (* successor pc per act_info.ai_idx *)
    }

(* Reusable burst-walk state, sized to the largest burst seen. Aliases
   of the batch's raw arrays are captured once here; the batch never
   grows in place (a bigger burst rebuilds the whole state), so the
   aliases stay valid. *)
type bstate = {
  bb : Packet.Batch.t;
  bs_cols : int array array;
  bs_lat : float array;
  bs_drop : Bytes.t;  (* per-lane packet dropped flag (aliases the batch) *)
  bs_egp : int array;
  bs_egs : Bytes.t;
  bs_pc : int array;  (* per-lane program counter; -1 = done *)
  bs_core : Costmodel.Cost.core array;
  bs_dobs : Bytes.t;  (* drop observed during this walk *)
  bs_hash : int array;  (* per-collected-lane hash scratch *)
  bs_cur : int array;  (* lanes collected at the current op *)
  bs_iota : int array;  (* identity lane list, for lockstep bursts *)
  bs_tbase : float array;
  bs_trc : Bytes.t;  (* per-lane tracing flag *)
  bs_spans : Telemetry.Trace.span list array;
  bs_tev : (P4ir.Program.node_id * string * string) list array;
  bs_sink : int array;
      (* counters kept in an int array instead of refs so the walk
         allocates nothing: 0 = prefetch accumulator, 1 = live lanes,
         2 = observed drops, 3 = access-count side channel *)
  bs_pkt : Packet.t;  (* scratch packet for Bt_generic probes *)
  bs_cap : int;
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
  (* The burst-vectorized form of the same program (see run_burst). *)
  b_layout : P4ir.Field.t array;  (* interned fields, column order *)
  b_ops : bop array;  (* parallel to [ops] *)
  b_uni : int array;
      (* parallel to [ops]: the op's static successor pc when every lane
         must leave it on the same pc (a table whose actions all share
         one successor and cannot drop; a cond folded to a constant), or
         -2 when the successor is data-dependent. run_burst uses it to
         prove a burst's lanes still march in lockstep and skip the
         per-op lane regrouping scan. *)
  b_capable : bool;
      (* burst walk available: no cache-role tables (their fills and LRU
         recency mutate per lookup in packet order, which op-major order
         would reorder) and every touched field narrower than 62 bits *)
  mutable b_state : bstate option;  (* lazily sized burst scratch *)
}

let num_ops t = Array.length t.ops
let tables_reused t = t.reused
let tables_rebuilt t = t.rebuilt
let drop_observed t = t.s_dropped
let soa_capable t = t.b_capable
let soa_layout t = Array.copy t.b_layout

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
             view_next =
               (match tb.t_next with
                | Next_uniform pc -> [ pc ]
                | Next_per_action h ->
                  List.sort_uniq compare (Hashtbl.fold (fun _ pc acc -> pc :: acc) h [])) })
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
            match nxt with
            | P4ir.Program.Uniform n -> Next_uniform (pc_of_next n)
            | P4ir.Program.Per_action branches ->
              let h = Hashtbl.create (max 4 (List.length branches)) in
              List.iter (fun (name, n) -> Hashtbl.replace h name (pc_of_next n)) branches;
              Next_per_action h
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
              t_mono = (match tab.actions with [ _ ] -> true | _ -> false);
              t_memo_entry = P4ir.Table.entry [] "__compile_memo_nil";
              t_memo_info = art.ta_default })
      order
  in
  (* Burst compilation: intern the field set the program touches into a
     columnar layout (cond fields, table keys, action operands) and
     pre-lower every action body and successor against it. *)
  let capable = ref true in
  let ftbl = Hashtbl.create 16 in
  let forder = ref [] in
  let ncols = ref 0 in
  let col_of f =
    if P4ir.Field.width f >= 62 then capable := false;
    match Hashtbl.find_opt ftbl f with
    | Some i -> i
    | None ->
      let i = !ncols in
      incr ncols;
      Hashtbl.replace ftbl f i;
      forder := f :: !forder;
      i
  in
  let mask_of f =
    let w = P4ir.Field.width f in
    if w >= 62 then -1 else (1 lsl w) - 1
  in
  let bprim_of (pr : P4ir.Action.primitive) =
    match pr with
    | P4ir.Action.Set_field (f, v) ->
      Bp_set (col_of f, Int64.to_int (P4ir.Value.truncate ~width:(P4ir.Field.width f) v))
    | P4ir.Action.Set_from (dst, src) -> Bp_copy (col_of dst, col_of src, mask_of dst)
    | P4ir.Action.Add_const (f, v) -> Bp_add (col_of f, Int64.to_int v, mask_of f)
    | P4ir.Action.Dec_ttl -> Bp_dec_ttl (col_of P4ir.Field.Ipv4_ttl)
    | P4ir.Action.Forward port -> Bp_forward port
    | P4ir.Action.Drop -> Bp_drop
    | P4ir.Action.Nop -> Bp_nop
  in
  let wcols_of prims =
    Array.of_list
      (List.sort_uniq compare
         (Array.fold_left
            (fun acc pr ->
              match pr with
              | Bp_set (c, _) | Bp_copy (c, _, _) | Bp_add (c, _, _) | Bp_dec_ttl c ->
                c :: acc
              | Bp_forward _ | Bp_drop | Bp_nop -> acc)
            [] prims))
  in
  let b_ops =
    Array.map
      (fun op ->
        match op with
        | Op_cond c ->
          let arg = c.c_cond.P4ir.Program.arg in
          let bc =
            if Int64.compare arg 0L >= 0 && Int64.compare arg (Int64.of_int max_int) <= 0
            then Bc_cmp (c.c_cond.P4ir.Program.op, Int64.to_int arg)
            else
              (* Column values are < 2^48 but the argument is not a
                 nonnegative native int: every lane is unsigned-below
                 the argument, so the comparison is a constant. *)
              Bc_const
                (match c.c_cond.P4ir.Program.op with
                 | P4ir.Program.Eq -> false
                 | P4ir.Program.Neq -> true
                 | P4ir.Program.Lt -> true
                 | P4ir.Program.Gt -> false
                 | P4ir.Program.Le -> true
                 | P4ir.Program.Ge -> false)
          in
          Bop_cond { bo_col = col_of c.c_cond.P4ir.Program.field; bo_cond = bc }
        | Op_table tb ->
          if String.equal tb.t_cat "cache" then capable := false;
          let nacts = List.length tb.t_art.ta_actions in
          let bo_prims = Array.make nacts [||] in
          let bo_wcols = Array.make nacts [||] in
          let bo_next = Array.make nacts (-1) in
          List.iteri
            (fun i (a : P4ir.Action.t) ->
              let prims = Array.of_list (List.map bprim_of a.prims) in
              bo_prims.(i) <- prims;
              bo_wcols.(i) <- wcols_of prims;
              bo_next.(i) <-
                (match tb.t_next with
                 | Next_uniform pc -> pc
                 | Next_per_action h -> (
                   match Hashtbl.find_opt h a.name with Some pc -> pc | None -> -1)))
            tb.t_art.ta_actions;
          let keys =
            Array.of_list
              (List.map
                 (fun (k : P4ir.Table.key) -> (k.field, col_of k.field))
                 tb.t_tab.P4ir.Table.keys)
          in
          let kind =
            if Option.is_some tb.t_probe && Array.length keys = 1 then
              Bt_exact1 (snd keys.(0))
            else Bt_generic keys
          in
          Bop_table { bo_kind = kind; bo_prims; bo_wcols; bo_next })
      ops
  in
  let b_uni =
    Array.mapi
      (fun i op ->
        match (op, Array.unsafe_get b_ops i) with
        | Op_cond c, Bop_cond { bo_cond = Bc_const b; _ } ->
          if b then c.c_true_pc else c.c_false_pc
        | Op_table _, Bop_table { bo_prims; bo_next; _ }
          when Array.length bo_next > 0 ->
          let u = bo_next.(0) in
          if
            Array.exists
              (fun prims -> Array.exists (fun pr -> pr = Bp_drop) prims)
              bo_prims
            || Array.exists (fun pc -> pc <> u) bo_next
          then -2
          else u
        | _ -> -2)
      ops
  in
  let b_layout = Array.of_list (List.rev !forder) in
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
    s_spans = [];
    b_layout;
    b_ops;
    b_uni;
    b_capable = !capable;
    b_state = None }

(* --- the compiled walk --- *)

(* Mirrors [Exec.exec_packet] step for step; every latency addition uses
   the same operands in the same order, so the result is bit-identical.
   Counter updates go through pre-resolved cells (same int64 slots the
   interpreter's hash probes reach). Core comparisons use physical
   equality — [Costmodel.Cost.core] has only constant constructors, so
   [==]/[!=] is structural equality without the polymorphic-compare
   call. *)
let run p ~tracer ~sampled ~seq ~now pkt =
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
        p.s_pc <-
          (match tb.t_next with
           | Next_uniform pc -> pc
           | Next_per_action h -> (
             match Hashtbl.find_opt h info.ai_name with Some pc -> pc | None -> -1))
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
  Float.Array.unsafe_get lb 0

(* --- the burst-vectorized walk ---

   Op-at-a-time over a struct-of-arrays burst: each fused op runs across
   every lane whose program counter sits on it before the walk advances
   to the next op, so op state (costs, cells, memo, exact index) is
   loaded once per op per burst instead of once per packet. Ops are in
   topological order, so every lane's pc only moves forward and a single
   ascending sweep visits each lane's ops in exactly the per-packet
   order; lanes that diverge at a cond or per-action successor simply
   park on a later pc and are regrouped when the sweep reaches it
   (SIMT-style reconvergence). Per lane the op sequence, the float
   additions and their order, the counter cells hit, and the telemetry
   emitted are identical to [run] — the burst form is bit-identical by
   construction, and test_batch/the fuzz soa driver hold it to that. *)

let ensure_bstate p n =
  match p.b_state with
  | Some st when st.bs_cap >= n -> st
  | _ ->
    let cap = max n 64 in
    let bb = Packet.Batch.create ~fields:p.b_layout cap in
    let egp, egs = Packet.Batch.egress_raw bb in
    let st =
      { bb;
        bs_cols = Packet.Batch.columns bb;
        bs_lat = Packet.Batch.latencies bb;
        bs_drop = Packet.Batch.dropped_bytes bb;
        bs_egp = egp;
        bs_egs = egs;
        bs_pc = Array.make cap (-1);
        bs_core = Array.make cap Costmodel.Cost.Asic;
        bs_dobs = Bytes.make cap '\000';
        bs_hash = Array.make cap 0;
        bs_cur = Array.make cap 0;
        bs_iota = Array.init cap (fun i -> i);
        bs_tbase = Array.make cap 0.;
        bs_trc = Bytes.make cap '\000';
        bs_spans = Array.make cap [];
        bs_tev = Array.make cap [];
        bs_sink = Array.make 4 0;
        bs_pkt = Packet.create ();
        bs_cap = cap }
    in
    p.b_state <- Some st;
    st

(* Gather the lanes parked on [opc]. Top-level tail recursion: a local
   [rec] closure (or a [ref] accumulator) would allocate per op. *)
let rec collect_from (pcs : int array) (cur : int array) opc n i m =
  if i >= n then m
  else if Array.unsafe_get pcs i = opc then begin
    Array.unsafe_set cur m i;
    collect_from pcs cur opc n (i + 1) (m + 1)
  end
  else collect_from pcs cur opc n (i + 1) m

let bcond_eval (bc : bcond) (v : int) =
  match bc with
  | Bc_const b -> b
  | Bc_cmp (op, a) -> (
    match op with
    | P4ir.Program.Eq -> v = a
    | P4ir.Program.Neq -> v <> a
    | P4ir.Program.Lt -> v < a
    | P4ir.Program.Gt -> v > a
    | P4ir.Program.Le -> v <= a
    | P4ir.Program.Ge -> v >= a)

(* Local copy of the engine's single-key mixing hash over a native-int
   key, fully chained so every int64 intermediate stays unboxed.
   Constants and shift counts must match Engine.hash_exact1 (and
   Stdx.Prng.mix64) bit for bit — the differential suites (test_batch,
   fuzz --driver compiled) catch any drift. *)
let[@inline always] bhash1 (vi : int) =
  let z = Int64.logxor 0x9E3779B97F4A7C15L (Int64.of_int vi) in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  let z = Int64.logxor z (Int64.shift_right_logical z 31) in
  Int64.to_int (Int64.shift_right_logical z 1)

(* The engine's linear-probe chain over the exposed index view; same
   physical entries Engine.exact_probe returns. The scan runs entirely
   over [ev_keyi] — lane keys are masked to < 62 bits so they are
   nonnegative ints, key equality implies hash equality, -1 is the
   empty-slot terminator and -2 (unrepresentable key) can never match —
   so each slot costs one int load instead of a hash compare plus the
   [ev_vals] singleton-array chase, and [ev_ent] is touched only on the
   hit. Iterative rather than recursive so the whole loop inlines into
   the per-lane probe loops — the local refs never escape, so they
   compile to stack mutables and the probe runs with no call and no
   allocation even on a collision chain. *)
let[@inline always] bxfind (ev : Engine.exact_view) (vi : int) j0 =
  let j = ref j0 in
  let res = ref None in
  let probing = ref true in
  while !probing do
    let k = Array.unsafe_get ev.Engine.ev_keyi !j in
    if k = vi then begin
      res := Array.unsafe_get ev.Engine.ev_ent !j;
      probing := false
    end
    else if k = -1 then probing := false
    else j := (!j + 1) land ev.Engine.ev_mask
  done;
  !res

(* Force-inlined into table_lane: most actions carry zero or one
   primitive, so an out-of-line call costs more than the loop body. *)
let[@inline always] apply_bprims (cols : int array array) (egp : int array)
    (egs : Bytes.t) (drop : Bytes.t) (prims : bprim array) l =
  for i = 0 to Array.length prims - 1 do
    match Array.unsafe_get prims i with
    | Bp_nop -> ()
    | Bp_set (c, v) -> Array.unsafe_set (Array.unsafe_get cols c) l v
    | Bp_copy (dst, src, mask) ->
      Array.unsafe_set (Array.unsafe_get cols dst) l
        (Array.unsafe_get (Array.unsafe_get cols src) l land mask)
    | Bp_add (c, v, mask) ->
      let a = Array.unsafe_get cols c in
      Array.unsafe_set a l ((Array.unsafe_get a l + v) land mask)
    | Bp_dec_ttl c ->
      let a = Array.unsafe_get cols c in
      let ttl = Array.unsafe_get a l in
      if ttl > 0 then Array.unsafe_set a l (ttl - 1)
    | Bp_forward port ->
      Array.unsafe_set egp l port;
      Bytes.unsafe_set egs l '\001'
    | Bp_drop -> Bytes.unsafe_set drop l '\001'
  done

let rec replay_tev f = function
  | [] -> ()
  | (node, name, outcome) :: tl ->
    f node name outcome;
    replay_tev f tl

(* Everything after a table lookup resolves, for one lane: costs, memo,
   telemetry, the fused action against the columns, span buffering and
   the drop/successor decision — step for step [run]'s table arm.
   Top-level (state threaded through explicit arguments) so the walk
   builds no closures. Force-inlined into the per-lane probe loops:
   called out of line it burns a 12-argument call and a ~450-byte frame
   per lane per table, and inlining lets the loop-invariant arguments
   (p, st, tb, the op arrays) stay in registers across lanes. *)
let[@inline always] table_lane p st (tb : op_table) (bo_prims : bprim array array)
    (bo_wcols : int array array) (bo_next : int array) tracer (seqs : int array)
    (sampled : bool array) (base : int) l (result : P4ir.Table.entry option) accesses =
  let lat = st.bs_lat in
  let l_in = Array.unsafe_get lat l in
  let l_mig =
    if tb.t_core != Array.unsafe_get st.bs_core l then l_in +. p.migration else l_in
  in
  let l0 = l_mig in
  let l1 = l_mig +. (float_of_int accesses *. p.l_mat *. tb.t_factor) in
  let info =
    (* Mono table: hit or miss, the action is the single act_info (the
       default resolves into the same record), so skip the memo and its
       per-lane string compare. *)
    if tb.t_mono then tb.t_art.ta_default
    else
      match result with
      | None -> tb.t_art.ta_default
      | Some e ->
        if e == tb.t_memo_entry then tb.t_memo_info
        else if String.equal e.P4ir.Table.action tb.t_memo_info.ai_name then tb.t_memo_info
        else begin
        let i =
          match Hashtbl.find_opt tb.t_art.ta_acts e.P4ir.Table.action with
          | Some i -> i
          | None ->
            ignore (P4ir.Table.find_action_exn tb.t_tab e.P4ir.Table.action);
            assert false
        in
        tb.t_memo_entry <- e;
        tb.t_memo_info <- i;
        i
      end
  in
  (match tracer with
   | Some _ -> st.bs_tev.(l) <- (tb.t_node, tb.t_name, info.ai_name) :: st.bs_tev.(l)
   | None -> ());
  (match tb.t_tel with
   | Some (hit, miss) ->
     Telemetry.Metrics.inc (match result with Some _ -> hit | None -> miss)
   | None -> ());
  (* fills: none possible — b_capable excludes cache-role tables *)
  apply_bprims st.bs_cols st.bs_egp st.bs_egs st.bs_drop
    (Array.unsafe_get bo_prims info.ai_idx)
    l;
  (let wc = Array.unsafe_get bo_wcols info.ai_idx in
   for i = 0 to Array.length wc - 1 do
     Packet.Batch.mark_col_dirty st.bb (Array.unsafe_get wc i)
   done);
  let l2 = l1 +. info.ai_cost in
  let l3 =
    if Array.unsafe_get sampled (base + l) then begin
      (let cc = info.ai_cell in
         cc := !cc + 1);
      l2 +. p.counter_cost
    end
    else l2
  in
  if Bytes.unsafe_get st.bs_trc l = '\001' then
    st.bs_spans.(l) <-
      { Telemetry.Trace.name = tb.t_name;
        cat = tb.t_cat;
        ts = Array.unsafe_get st.bs_tbase l +. l0;
        dur = l3 -. l0;
        tid = Array.unsafe_get seqs (base + l);
        args =
          [ ("action", info.ai_name);
            ("result", (match result with Some _ -> "hit" | None -> "miss"));
            ("accesses", string_of_int accesses) ] }
      :: st.bs_spans.(l);
  Array.unsafe_set lat l l3;
  if Bytes.unsafe_get st.bs_drop l = '\001' then begin
    (* Run-to-completion halt, as in [run]; the caller accounts the drop. *)
    (match p.tel_drops with Some c -> Telemetry.Metrics.inc c | None -> ());
    Bytes.unsafe_set st.bs_dobs l '\001';
    Array.unsafe_set st.bs_sink 2 (Array.unsafe_get st.bs_sink 2 + 1);
    Array.unsafe_set st.bs_pc l (-1);
    Packet.Batch.kill st.bb ~lane:l;
    Array.unsafe_set st.bs_sink 1 (Array.unsafe_get st.bs_sink 1 - 1)
  end
  else begin
    Array.unsafe_set st.bs_core l tb.t_core;
    let npc = Array.unsafe_get bo_next info.ai_idx in
    Array.unsafe_set st.bs_pc l npc;
    if npc < 0 then begin
      Packet.Batch.kill st.bb ~lane:l;
      Array.unsafe_set st.bs_sink 1 (Array.unsafe_get st.bs_sink 1 - 1)
    end
  end

(* [table_lane] for a single-action table, with every lane-invariant
   resolution hoisted to the call site: the act_info, its primitive
   array, the successor pc, and the match-access cost [mat1] (equal to
   [float_of_int 1 *. p.l_mat *. tb.t_factor] bit for bit — 1.0 is the
   exact multiplicative identity) are the same for every lane, so the
   per-lane body keeps only the data-dependent work. Dirty-column marks
   are per-column flags, not per-lane state, so the caller marks them
   once per op instead of once per lane. *)
let[@inline always] mono_lane p st (tb : op_table) (info : act_info)
    (prims : bprim array) (npc : int) (mat1 : float) tracer seqs
    (sampled : bool array) (base : int) l (result : P4ir.Table.entry option) =
  let lat = st.bs_lat in
  let l_in = Array.unsafe_get lat l in
  let l_mig =
    if tb.t_core != Array.unsafe_get st.bs_core l then l_in +. p.migration else l_in
  in
  let l0 = l_mig in
  let l1 = l_mig +. mat1 in
  (match tracer with
   | Some _ -> st.bs_tev.(l) <- (tb.t_node, tb.t_name, info.ai_name) :: st.bs_tev.(l)
   | None -> ());
  (match tb.t_tel with
   | Some (hit, miss) ->
     Telemetry.Metrics.inc (match result with Some _ -> hit | None -> miss)
   | None -> ());
  apply_bprims st.bs_cols st.bs_egp st.bs_egs st.bs_drop prims l;
  let l2 = l1 +. info.ai_cost in
  let l3 =
    if Array.unsafe_get sampled (base + l) then begin
      (let cc = info.ai_cell in
       cc := !cc + 1);
      l2 +. p.counter_cost
    end
    else l2
  in
  if Bytes.unsafe_get st.bs_trc l = '\001' then
    st.bs_spans.(l) <-
      { Telemetry.Trace.name = tb.t_name;
        cat = tb.t_cat;
        ts = Array.unsafe_get st.bs_tbase l +. l0;
        dur = l3 -. l0;
        tid = Array.unsafe_get seqs (base + l);
        args =
          [ ("action", info.ai_name);
            ("result", (match result with Some _ -> "hit" | None -> "miss"));
            ("accesses", string_of_int 1) ] }
      :: st.bs_spans.(l);
  Array.unsafe_set lat l l3;
  if Bytes.unsafe_get st.bs_drop l = '\001' then begin
    (match p.tel_drops with Some c -> Telemetry.Metrics.inc c | None -> ());
    Bytes.unsafe_set st.bs_dobs l '\001';
    Array.unsafe_set st.bs_sink 2 (Array.unsafe_get st.bs_sink 2 + 1);
    Array.unsafe_set st.bs_pc l (-1);
    Packet.Batch.kill st.bb ~lane:l;
    Array.unsafe_set st.bs_sink 1 (Array.unsafe_get st.bs_sink 1 - 1)
  end
  else begin
    Array.unsafe_set st.bs_core l tb.t_core;
    Array.unsafe_set st.bs_pc l npc;
    if npc < 0 then begin
      Packet.Batch.kill st.bb ~lane:l;
      Array.unsafe_set st.bs_sink 1 (Array.unsafe_get st.bs_sink 1 - 1)
    end
  end

let run_burst p ~tracer ~seqs ~sampled ~nows ~pos ~base ~n ~out pkts =
  if not p.b_capable then invalid_arg "Compile.run_burst: program is not soa-capable";
  if n < 0 || base < 0 || base + n > Array.length pkts then
    invalid_arg "Compile.run_burst: burst larger than the packet array";
  if pos < 0 || pos + base + n > Array.length out then
    invalid_arg "Compile.run_burst: out too small";
  let st = ensure_bstate p n in
  Packet.Batch.load_sub st.bb ~pos:base ~n pkts;
  let sink = st.bs_sink in
  Array.unsafe_set sink 0 0;
  Array.unsafe_set sink 1 n;
  Array.unsafe_set sink 2 0;
  (* Lockstep tracking for the regrouping-scan elision below: while
     [uni] holds, every live lane sits on [upc] and the live set is all
     [n] lanes in identity order. A pre-dropped packet halts at the
     first table op while its neighbours continue, so it breaks
     lockstep up front. *)
  let uni = ref (n > 0) and upc = ref p.root_pc in
  (* [should_trace] split so the cross-module call happens once per
     burst, not once per lane; the remainder is one mod on the lane's
     seq. Same predicate, same sampled lanes. *)
  let may_trace = Telemetry.tracing_active p.tel in
  let tse = Telemetry.trace_sample_every p.tel in
  for l = 0 to n - 1 do
    Array.unsafe_set st.bs_pc l p.root_pc;
    Array.unsafe_set st.bs_core l p.entry_core;
    Bytes.unsafe_set st.bs_dobs l '\000';
    Array.unsafe_set st.bs_lat l p.base_latency;
    if Bytes.unsafe_get st.bs_drop l = '\001' then uni := false;
    let tr = may_trace && Array.unsafe_get seqs (base + l) mod tse = 0 in
    Bytes.unsafe_set st.bs_trc l (if tr then '\001' else '\000');
    Array.unsafe_set st.bs_tbase l (if tr then Array.unsafe_get nows (base + l) *. 1e6 else 0.);
    if tr then st.bs_spans.(l) <- [];
    (match tracer with Some _ -> st.bs_tev.(l) <- [] | None -> ())
  done;
  let ops = p.ops and bops = p.b_ops and buni = p.b_uni in
  let nops = Array.length ops in
  for opc = 0 to nops - 1 do
    if Array.unsafe_get sink 1 > 0 then begin
      (* While the burst marches in lockstep the lane set at [opc] is
         known without looking: all lanes if [opc] is the common pc,
         none otherwise. That elides the O(ops * lanes) regrouping scan
         — which is dominated by ops the burst never parks on — until a
         data-dependent successor actually splits the lanes. *)
      let m =
        if !uni then (if !upc = opc then n else 0)
        else collect_from st.bs_pc st.bs_cur opc n 0 0
      in
      if m > 0 then begin
        let cur = if !uni then st.bs_iota else st.bs_cur in
        (match (Array.unsafe_get ops opc, Array.unsafe_get bops opc) with
        | Op_cond c, Bop_cond { bo_col; bo_cond } ->
          let col = Array.unsafe_get st.bs_cols bo_col in
          let lat = st.bs_lat in
          for k = 0 to m - 1 do
            let l = Array.unsafe_get cur k in
            let l_in = Array.unsafe_get lat l in
            let l_mig =
              if c.c_core != Array.unsafe_get st.bs_core l then l_in +. p.migration
              else l_in
            in
            let l0 = l_mig in
            let l1 = l_mig +. c.c_cost in
            let taken = bcond_eval bo_cond (Array.unsafe_get col l) in
            let outcome = if taken then "true" else "false" in
            (match tracer with
             | Some _ -> st.bs_tev.(l) <- (c.c_node, c.c_name, outcome) :: st.bs_tev.(l)
             | None -> ());
            let l2 =
              if Array.unsafe_get sampled (base + l) then begin
                (* cell = int ref, bumped in place: -opaque dev builds would pay an
           out-of-line call through Profile.Counter per sampled packet *)
        (let cc = if taken then c.c_true_cell else c.c_false_cell in
         cc := !cc + 1);
                l1 +. p.counter_cost
              end
              else l1
            in
            if Bytes.unsafe_get st.bs_trc l = '\001' then
              st.bs_spans.(l) <-
                { Telemetry.Trace.name = c.c_name;
                  cat = "cond";
                  ts = Array.unsafe_get st.bs_tbase l +. l0;
                  dur = l2 -. l0;
                  tid = Array.unsafe_get seqs (base + l);
                  args = [ ("outcome", outcome) ] }
                :: st.bs_spans.(l);
            Array.unsafe_set lat l l2;
            Array.unsafe_set st.bs_core l c.c_core;
            let npc = if taken then c.c_true_pc else c.c_false_pc in
            Array.unsafe_set st.bs_pc l npc;
            if npc < 0 then begin
              Packet.Batch.kill st.bb ~lane:l;
              Array.unsafe_set sink 1 (Array.unsafe_get sink 1 - 1)
            end
          done
        | Op_table tb, Bop_table { bo_kind; bo_prims; bo_wcols; bo_next } -> (
          match bo_kind with
          | Bt_exact1 bcol ->
            let ev =
              match Engine.exact_view tb.t_eng with
              | Some ev -> ev
              | None -> assert false (* Bt_exact1 iff single-key exact-hash *)
            in
            let col = Array.unsafe_get st.bs_cols bcol in
            let hash = st.bs_hash in
            if ev.Engine.ev_mask < 4096 then begin
              (* Cache-resident table (< 4096 slots): the probe arrays
                 fit in L1/L2, so a prefetch pass would be pure
                 overhead. One fused loop: hash, probe, fused action. *)
              if tb.t_mono then begin
                let info = tb.t_art.ta_default in
                let prims = Array.unsafe_get bo_prims info.ai_idx in
                let npc = Array.unsafe_get bo_next info.ai_idx in
                let mat1 = p.l_mat *. tb.t_factor in
                (let wc = Array.unsafe_get bo_wcols info.ai_idx in
                 for i = 0 to Array.length wc - 1 do
                   Packet.Batch.mark_col_dirty st.bb (Array.unsafe_get wc i)
                 done);
                for k = 0 to m - 1 do
                  let l = Array.unsafe_get cur k in
                  let vi = Array.unsafe_get col l in
                  let h = bhash1 vi in
                  let result = bxfind ev vi (h land ev.Engine.ev_mask) in
                  mono_lane p st tb info prims npc mat1 tracer seqs sampled base l result
                done
              end
              else
                for k = 0 to m - 1 do
                  let l = Array.unsafe_get cur k in
                  let vi = Array.unsafe_get col l in
                  let h = bhash1 vi in
                  let result = bxfind ev vi (h land ev.Engine.ev_mask) in
                  table_lane p st tb bo_prims bo_wcols bo_next tracer seqs sampled base
                    l result 1
                done
            end
            else begin
              (* Strip-mined two-pass probe for large tables. Pass 1
                 hashes each lane's key and touches every line the
                 probe will chase (the [ev_keyi] slot, plus the entry
                 option a hit would load); the touches fold into the
                 sink so they cannot be dead-code-eliminated. Pass 2
                 probes the warmed slots. The strip bounds how many
                 warmed lines sit between touch and consumption — a
                 burst-wide pass 1 touches lanes*2 lines, which evicts
                 the early lanes' slots from L1 before pass 2 reaches
                 them; 32 lanes (~64 lines) stay resident while still
                 issuing a strip's independent misses back to back. *)
              let k0 = ref 0 in
              while !k0 < m do
                let khi = min m (!k0 + 32) in
                for k = !k0 to khi - 1 do
                  let l = Array.unsafe_get cur k in
                  let h = bhash1 (Array.unsafe_get col l) in
                  Array.unsafe_set hash k h;
                  let j = h land ev.Engine.ev_mask in
                  Array.unsafe_set sink 0
                    (Array.unsafe_get sink 0 lxor Array.unsafe_get ev.Engine.ev_keyi j);
                  (match Array.unsafe_get ev.Engine.ev_ent j with
                   | Some _ ->
                     Array.unsafe_set sink 0 (Array.unsafe_get sink 0 lxor 1)
                   | None -> ())
                done;
                for k = !k0 to khi - 1 do
                  let l = Array.unsafe_get cur k in
                  let vi = Array.unsafe_get col l in
                  let h = Array.unsafe_get hash k in
                  let result = bxfind ev vi (h land ev.Engine.ev_mask) in
                  table_lane p st tb bo_prims bo_wcols bo_next tracer seqs sampled base l result 1
                done;
                k0 := khi
              done
            end
          | Bt_generic keys ->
            for k = 0 to m - 1 do
              let l = Array.unsafe_get cur k in
              (* Gather this lane's key fields into the scratch packet
                 and reuse the per-packet probe closures; probes read
                 key fields only, so the stale rest is harmless. *)
              for i = 0 to Array.length keys - 1 do
                let f, c = Array.unsafe_get keys i in
                Packet.set st.bs_pkt f
                  (Int64.of_int (Array.unsafe_get (Array.unsafe_get st.bs_cols c) l))
              done;
              let result =
                match tb.t_probe with
                | Some probe ->
                  Array.unsafe_set sink 3 1;
                  probe st.bs_pkt
                | None -> (
                  match tb.t_splan with
                  | Some probe ->
                    let r = probe st.bs_pkt in
                    Array.unsafe_set sink 3 (Engine.last_accesses tb.t_eng);
                    r
                  | None ->
                    let r, a = Engine.lookup tb.t_eng st.bs_pkt in
                    Array.unsafe_set sink 3 a;
                    r)
              in
              table_lane p st tb bo_prims bo_wcols bo_next tracer seqs sampled base l
                result (Array.unsafe_get sink 3)
            done)
        | _ -> assert false);
        if !uni then begin
          let u = Array.unsafe_get buni opc in
          if u = -2 then uni := false else upc := u
        end
      end
    end
  done;
  (* Per-lane tail in lane (= seq) order: exactly the per-packet
     epilogue, with the buffered tracer events and spans replayed so the
     global emission order matches packet-at-a-time execution. *)
  for l = 0 to n - 1 do
    if
      Bytes.unsafe_get st.bs_dobs l <> '\001'
      && Array.unsafe_get st.bs_core l == Costmodel.Cost.Cpu
    then Array.unsafe_set st.bs_lat l (Array.unsafe_get st.bs_lat l +. p.migration);
    (match p.tel_packets with Some c -> Telemetry.Metrics.inc c | None -> ());
    (match tracer with
     | Some f ->
       replay_tev f (List.rev st.bs_tev.(l));
       st.bs_tev.(l) <- []
     | None -> ());
    if Bytes.unsafe_get st.bs_trc l = '\001' then begin
      let seq = Array.unsafe_get seqs (base + l) in
      Telemetry.add_span p.tel
        { Telemetry.Trace.name = "packet";
          cat = "packet";
          ts = Array.unsafe_get st.bs_tbase l;
          dur = Array.unsafe_get st.bs_lat l;
          tid = seq;
          args =
            [ ("seq", string_of_int seq);
              ("dropped",
               if Bytes.unsafe_get st.bs_drop l = '\001' then "true" else "false") ] };
      List.iter (Telemetry.add_span p.tel) (List.rev st.bs_spans.(l));
      st.bs_spans.(l) <- []
    end
  done;
  Packet.Batch.store_sub st.bb ~pos:base ~n pkts;
  for i = 0 to n - 1 do
    Array.unsafe_set out (pos + base + i) (Array.unsafe_get st.bs_lat i)
  done;
  Array.unsafe_get sink 2
