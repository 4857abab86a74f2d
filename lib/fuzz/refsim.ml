module Program = P4ir.Program
module Table = P4ir.Table
module Field = P4ir.Field
module Action = P4ir.Action
module Pattern = P4ir.Pattern
module Match_kind = P4ir.Match_kind

type obs = {
  fields : (Field.t * P4ir.Value.t) list;
  dropped : bool;
  egress : int option;
  trace : (string * string) list;
}

let observed_fields =
  List.filter (fun f -> not (Field.equal f Field.Next_tab_id)) Field.all_standard
  @ List.init 16 (fun i -> Field.Meta i)

(* --- packet state (independent of Nicsim.Packet) --- *)

type state = {
  values : (Field.t, int64) Hashtbl.t;
  mutable dropped : bool;
  mutable egress : int option;
  mutable trace : (string * string) list;  (* reversed *)
}

let default_value = function
  | Field.Eth_type -> 0x0800L
  | Field.Ipv4_ttl -> 64L
  | Field.Ipv4_proto -> 6L
  | Field.Ipv4_len -> 512L
  | _ -> 0L

let low_bits width v =
  if width >= 64 then v else Int64.logand v (Int64.sub (Int64.shift_left 1L width) 1L)

let get st f =
  match Hashtbl.find_opt st.values f with Some v -> v | None -> default_value f

let set st f v = Hashtbl.replace st.values f (low_bits (Field.width f) v)

(* --- pattern matching (independent of P4ir.Pattern.matches) --- *)

let popcount v =
  let rec go acc v = if Int64.equal v 0L then acc else go (acc + 1) (Int64.logand v (Int64.sub v 1L)) in
  go 0 v

let prefix_mask ~width len =
  if len <= 0 then 0L
  else if len >= width then low_bits width Int64.minus_one
  else low_bits width (Int64.shift_left Int64.minus_one (width - len))

let pattern_matches ~width pat v =
  match pat with
  | Pattern.Exact want -> Int64.equal (low_bits width v) (low_bits width want)
  | Pattern.Lpm (want, len) ->
    let m = prefix_mask ~width len in
    Int64.equal (Int64.logand v m) (Int64.logand want m)
  | Pattern.Ternary (want, mask) ->
    Int64.equal (Int64.logand v mask) (Int64.logand want mask)
  | Pattern.Range (lo, hi) ->
    Int64.unsigned_compare lo v <= 0 && Int64.unsigned_compare v hi <= 0

(* Number of exactly-constrained bits, the P4LITE.md tie-break between
   equal-priority entries. Exact (and degenerate ranges) pin the whole
   field, counted as 64 whatever the width. *)
let pattern_specificity = function
  | Pattern.Exact _ -> 64
  | Pattern.Lpm (_, len) -> len
  | Pattern.Ternary (_, mask) -> popcount mask
  | Pattern.Range (lo, hi) -> if Int64.equal lo hi then 64 else 0

(* List scan: highest priority wins, ties by total specificity, then by
   entry order (earliest). *)
let entry_matches st keys (e : Table.entry) =
  List.for_all2
    (fun (k : Table.key) p -> pattern_matches ~width:(Field.width k.field) p (get st k.field))
    keys e.patterns

let lookup st keys entries =
  let spec (e : Table.entry) =
    List.fold_left (fun acc p -> acc + pattern_specificity p) 0 e.patterns
  in
  List.fold_left
    (fun best e ->
      if not (entry_matches st keys e) then best
      else
        match best with
        | None -> Some e
        | Some (b : Table.entry) ->
          if e.Table.priority > b.priority || (e.priority = b.priority && spec e > spec b) then
            Some e
          else best)
    None entries

(* --- primitives --- *)

let apply_primitive st = function
  | Action.Set_field (f, v) -> set st f v
  | Action.Set_from (dst, src) -> set st dst (get st src)
  | Action.Add_const (f, v) -> set st f (Int64.add (get st f) v)
  | Action.Dec_ttl ->
    let ttl = get st Field.Ipv4_ttl in
    if Int64.compare ttl 0L > 0 then set st Field.Ipv4_ttl (Int64.sub ttl 1L)
  | Action.Forward port -> st.egress <- Some port
  | Action.Drop -> st.dropped <- true
  | Action.Nop -> ()

(* --- traversal --- *)

let eval_cmp op lhs rhs =
  let c = Int64.unsigned_compare lhs rhs in
  match op with
  | Program.Eq -> c = 0
  | Program.Neq -> c <> 0
  | Program.Lt -> c < 0
  | Program.Gt -> c > 0
  | Program.Le -> c <= 0
  | Program.Ge -> c >= 0

let fresh flow =
  let st = { values = Hashtbl.create 32; dropped = false; egress = None; trace = [] } in
  List.iter (fun (f, v) -> set st f v) flow;
  st

let successor nxt action_name =
  match nxt with
  | Program.Uniform n -> n
  | Program.Per_action branches -> (
    match List.assoc_opt action_name branches with Some n -> n | None -> None)

let obs_of st =
  { fields = List.map (fun f -> (f, get st f)) observed_fields;
    dropped = st.dropped;
    egress = st.egress;
    trace = List.rev st.trace }

(* --- session: live tables under the section 3.1 cost model --- *)

type config = {
  target : Costmodel.Target.t;
  instrumented : bool;
  sample_rate : int;
  placement : Program.node_id -> Costmodel.Cost.core;
}

type step = {
  node : Program.node_id;
  name : string;
  outcome : string;
  hit : bool option;
  start : float;
  dur : float;
}

type packet = { obs : obs; latency : float; steps : step list }

type cache_report = {
  lru : Table.entry list;
  fills : int;
  evictions : int;
  rate_limited : int;
}

type report = {
  packets : int;
  drops : int;
  counters : ((string * string) * int) list;
  tables : (string * (int * int)) list;
  caches : (string * cache_report) list;
}

type cache = {
  cap : int;
  limit : float;
  mutable tokens : float;
  mutable stamp : float;
  mutable fills : int;
  mutable evictions : int;
  mutable limited : int;
}

type table = {
  def : Table.t;
  mutable entries : Table.entry list;  (* insertion order; a cache's most recent first *)
  mutable groups : Pattern.t list list;  (* entry shapes in probe order, emptied ones too *)
  cache : cache option;
}

type session = {
  cfg : config;
  mutable prog : Program.t;
  tables : (string, table) Hashtbl.t;
  ctrs : (string * string, int) Hashtbl.t;
  hits : (string, int * int) Hashtbl.t;
  mutable seen : int;
  mutable dropped : int;
}

let any_key kind (tab : Table.t) = List.exists (fun (k : Table.key) -> k.kind = kind) tab.keys
let all_exact (tab : Table.t) =
  List.for_all (fun (k : Table.key) -> k.kind = Match_kind.Exact) tab.keys

(* An entry's shape: its patterns with the values erased. *)
let shape (e : Table.entry) =
  List.map
    (function
      | Pattern.Exact _ -> Pattern.Exact 0L
      | Pattern.Lpm (_, len) -> Pattern.Lpm (0L, len)
      | Pattern.Ternary (_, mask) -> Pattern.Ternary (0L, mask)
      | Pattern.Range _ -> Pattern.Range (0L, 0L))
    e.patterns

let prefix_bits =
  List.fold_left (fun acc p ->
      acc + match p with Pattern.Exact _ -> 64 | Pattern.Lpm (_, len) -> len | _ -> 0) 0

let add_shape t e =
  let sh = shape e in
  let rec place = function
    | g :: rest when prefix_bits g > prefix_bits sh -> g :: place rest
    | rest -> sh :: rest
  in
  if not (List.mem sh t.groups) then t.groups <- place t.groups

(* A cache refreshes a key as most recent and evicts its least recent
   entry beyond [cap]; other tables append, and a new shape goes ahead
   of those with fewer prefix bits (the LPM probe order). *)
let add t (e : Table.entry) =
  match t.cache with
  | Some c ->
    let others = List.filter (fun (x : Table.entry) -> x.patterns <> e.patterns) t.entries in
    let others =
      if List.length others = List.length t.entries && List.length others >= c.cap then begin
        c.evictions <- c.evictions + 1;
        List.filteri (fun i _ -> i < c.cap - 1) others
      end
      else others
    in
    t.entries <- e :: others
  | None ->
    t.entries <- t.entries @ [ e ];
    add_shape t e

let new_table (tab : Table.t) =
  let cache =
    match tab.role with
    | Table.Cache m when all_exact tab ->
      Some { cap = max 1 m.capacity; limit = m.insert_limit; tokens = m.insert_limit; stamp = 0.;
             fills = 0; evictions = 0; limited = 0 }
    | _ -> None
  in
  let t = { def = tab; entries = []; groups = []; cache } in
  if cache = None then t.entries <- tab.entries;
  List.iter (if cache = None then add_shape t else add t) tab.entries;
  t

let session cfg prog =
  let s =
    { cfg; prog; tables = Hashtbl.create 16; ctrs = Hashtbl.create 64; hits = Hashtbl.create 16;
      seen = 0; dropped = 0 }
  in
  List.iter (fun (_, (tab : Table.t)) -> Hashtbl.replace s.tables tab.name (new_table tab))
    (Program.tables prog);
  s

let table s name =
  match Hashtbl.find_opt s.tables name with
  | Some t -> t
  | None -> invalid_arg ("Refsim: no table " ^ name)

(* A table the session does not hold (a stateless {!run}) answers from
   its static entries. *)
let state s (tab : Table.t) =
  match Hashtbl.find_opt s.tables tab.name with
  | Some t -> t
  | None -> { def = tab; entries = tab.entries; groups = []; cache = None }

let insert s ~table:name e = add (table s name) e

let delete s ~table:name ~patterns =
  let t = table s name in
  let n = List.length t.entries in
  t.entries <- List.filter (fun (e : Table.entry) -> e.patterns <> patterns) t.entries;
  List.length t.entries < n

let redeploy s prog =
  let old = Hashtbl.copy s.tables in
  Hashtbl.reset s.tables;
  s.prog <- prog;
  List.fold_left
    (fun changed (_, (tab : Table.t)) ->
      match Hashtbl.find_opt old tab.name with
      | Some t when t.def.keys = tab.keys && t.def.actions = tab.actions && t.def.role = tab.role ->
        Hashtbl.replace s.tables tab.name t;
        changed
      | _ ->
        Hashtbl.replace s.tables tab.name (new_table tab);
        changed + 1)
    0 (Program.tables prog)

(* The winning entry and its modeled memory accesses (see [send]). *)
let probe st t (tab : Table.t) =
  let hit = lookup st tab.keys t.entries in
  let groups = max 1 (List.length t.groups) in
  match t.cache with
  | Some _ ->
    Option.iter (fun e -> t.entries <- e :: List.filter (fun x -> x != e) t.entries) hit;
    (hit, 1)
  | None when any_key Match_kind.Range tab -> (hit, max 1 (List.length t.entries))
  | None when all_exact tab -> (hit, 1)
  | None when any_key Match_kind.Ternary tab -> (hit, groups)
  | None when t.groups = [] -> (hit, 1)
  | None ->
    let matched =
      List.filter_map
        (fun e -> if entry_matches st tab.keys e then Some (shape e) else None)
        t.entries
    in
    (hit, match List.find_index (fun g -> List.mem g matched) t.groups with
     | Some i -> i + 1
     | None -> groups)

(* A fill in flight: what the packet fired in the cache's covered region. *)
type fill = {
  f_table : table;
  f_keys : Pattern.t list;
  f_covered : string list;
  mutable f_fired : (string * string) list;
}

let record fills name outcome =
  List.iter
    (fun f ->
      if List.mem name f.f_covered && not (List.mem_assoc name f.f_fired) then
        f.f_fired <- f.f_fired @ [ (name, outcome) ])
    fills

let complete ~now f =
  let fired =
    List.filter_map (fun n -> Option.map (fun a -> (n, a)) (List.assoc_opt n f.f_fired)) f.f_covered
  in
  let fused = Profile.Counter_map.fuse fired in
  match f.f_table.cache with
  | Some c when fired <> [] && Table.find_action f.f_table.def fused <> None ->
    if c.limit > 0. then begin
      c.tokens <- Float.min c.limit (c.tokens +. (Float.max 0. (now -. c.stamp) *. c.limit));
      c.stamp <- now
    end;
    if c.limit > 0. && c.tokens < 1. then c.limited <- c.limited + 1
    else begin
      if c.limit > 0. then c.tokens <- c.tokens -. 1.;
      c.fills <- c.fills + 1;
      add f.f_table (Table.entry f.f_keys fused)
    end
  | _ -> ()

let send s ~seq ~now flow =
  let tg = s.cfg.target in
  let st = fresh flow in
  let sampled = s.cfg.instrumented && seq mod s.cfg.sample_rate = 0 in
  let factor = function Costmodel.Cost.Asic -> 1.0 | Costmodel.Cost.Cpu -> tg.cpu_slowdown in
  let root = Program.root s.prog in
  let core0 = match root with Some r -> s.cfg.placement r | None -> Costmodel.Cost.Asic in
  let lat = ref tg.l_fixed in
  let add x = lat := !lat +. x in
  if core0 = Costmodel.Cost.Cpu then add tg.migration_latency;
  let fills = ref [] and steps = ref [] in
  let limit = Program.num_nodes s.prog + 1 in
  let rec walk node prev =
    match node with
    | None -> if prev = Costmodel.Cost.Cpu then add tg.migration_latency
    | Some id ->
      if List.compare_length_with !steps limit >= 0 then
        failwith "Refsim: node revisited (cycle?)";
      let core = s.cfg.placement id in
      if core <> prev then add tg.migration_latency;
      let l0 = !lat in
      let name, outcome, hit, next =
        match Program.find_exn s.prog id with
        | Program.Cond c ->
          add (tg.l_cond *. factor core);
          let taken = eval_cmp c.op (get st c.field) c.arg in
          let outcome = if taken then "true" else "false" in
          record !fills c.cond_name outcome;
          (c.cond_name, outcome, None, if taken then c.on_true else c.on_false)
        | Program.Table (tab, nxt) ->
          let t = state s tab in
          let result, accesses = probe st t tab in
          add (float_of_int accesses *. tg.l_mat *. factor core);
          let action_name =
            match result with Some e -> e.Table.action | None -> tab.default_action
          in
          let h, m = Option.value ~default:(0, 0) (Hashtbl.find_opt s.hits tab.name) in
          Hashtbl.replace s.hits tab.name (if result = None then (h, m + 1) else (h + 1, m));
          (match (tab.role, result) with
           | Table.Cache m, None when m.auto_insert ->
             let keys = List.map (fun (k : Table.key) -> Pattern.Exact (get st k.field)) tab.keys in
             let fill = { f_table = t; f_keys = keys; f_covered = m.cached_tables; f_fired = [] } in
             fills := fill :: !fills
           | (Table.Regular | Table.Merged _), _ -> record !fills tab.name action_name
           | _ -> ());
          let action = Table.find_action_exn tab action_name in
          List.iter (apply_primitive st) action.Action.prims;
          add (float_of_int (List.length action.Action.prims) *. tg.l_act *. factor core);
          (tab.name, action_name, Some (result <> None), successor nxt action_name)
      in
      st.trace <- (name, outcome) :: st.trace;
      if sampled then begin
        let key = (name, outcome) in
        Hashtbl.replace s.ctrs key (1 + Option.value ~default:0 (Hashtbl.find_opt s.ctrs key));
        add tg.counter_update_cost
      end;
      steps := { node = id; name; outcome; hit; start = l0; dur = !lat -. l0 } :: !steps;
      if st.dropped then s.dropped <- s.dropped + 1 else walk next core
  in
  walk root core0;
  List.iter (complete ~now) !fills;
  s.seen <- s.seen + 1;
  { obs = obs_of st; latency = !lat; steps = List.rev !steps }

(* A stateless run: a session holding no tables answers every lookup
   from the static entries; the latency is dropped, so any target
   serves. *)
let run prog flow =
  let cfg =
    { target = Costmodel.Target.bluefield2; instrumented = false; sample_rate = 1;
      placement = Costmodel.Cost.all_asic }
  in
  let none () = Hashtbl.create 1 in
  let s =
    { cfg; prog; tables = none (); ctrs = none (); hits = none (); seen = 0; dropped = 0 }
  in
  (send s ~seq:1 ~now:0. flow).obs

let report s =
  let sorted tbl = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []) in
  { packets = s.seen;
    drops = s.dropped;
    counters = sorted s.ctrs;
    tables = sorted s.hits;
    caches =
      List.filter_map
        (fun (name, t) ->
          Option.map
            (fun c ->
              ( name,
                { lru = List.rev t.entries; fills = c.fills; evictions = c.evictions;
                  rate_limited = c.limited } ))
            t.cache)
        (sorted s.tables) }

(* --- comparison --- *)

let diff_obs ?(compare_trace = false) (a : obs) (b : obs) =
  let trace_diff () =
    if compare_trace && a.trace <> b.trace then begin
      let render t =
        String.concat " " (List.map (fun (n, o) -> Printf.sprintf "%s:%s" n o) t)
      in
      Some (Printf.sprintf "trace: [%s] vs [%s]" (render a.trace) (render b.trace))
    end
    else None
  in
  if a.dropped <> b.dropped then
    Some (Printf.sprintf "dropped: %b vs %b" a.dropped b.dropped)
  else if a.dropped then
    (* A dropped packet never leaves the NIC: its header state and
       egress are unobservable, so transforms are free to drop early
       (reordering a dropping table forward) without being flagged. *)
    trace_diff ()
  else begin
    let field_diff =
      List.find_map
        (fun ((f, va), (g, vb)) ->
          assert (Field.equal f g);
          if Int64.equal va vb then None
          else Some (Printf.sprintf "%s: %Ld vs %Ld" (Field.to_string f) va vb))
        (List.combine a.fields b.fields)
    in
    match field_diff with
    | Some d -> Some d
    | None ->
      if a.egress <> b.egress then begin
        let p = function None -> "none" | Some p -> string_of_int p in
        Some (Printf.sprintf "egress: %s vs %s" (p a.egress) (p b.egress))
      end
      else trace_diff ()
  end

let equal_obs ?compare_trace a b = diff_obs ?compare_trace a b = None
