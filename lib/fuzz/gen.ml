module Prng = Stdx.Prng
module Program = P4ir.Program
module Table = P4ir.Table
module Field = P4ir.Field
module Action = P4ir.Action
module Pattern = P4ir.Pattern
module Match_kind = P4ir.Match_kind

type params = {
  max_tables : int;
  max_block_stmts : int;
  max_depth : int;
  max_keys : int;
  max_actions : int;
  max_entries : int;
  max_prims : int;
  drop_prob : float;
  allow_range : bool;
  rules : int option;
  value_bits : int;
}

let default_params =
  { max_tables = 8;
    max_block_stmts = 3;
    max_depth = 2;
    max_keys = 2;
    max_actions = 3;
    max_entries = 8;
    max_prims = 3;
    drop_prob = 0.08;
    allow_range = true;
    rules = None;
    value_bits = 6 }

(* Values live in the low [value_bits] bits of each field (clamped to
   the field's width), so randomly generated entries and randomly
   generated packets collide often enough for lookups to hit. The
   default of 6 bits suits the default small tables; the [rules] scale
   knob pairs with a wider value space so large tables are not all
   duplicate patterns. *)
let dom params = 1 lsl params.value_bits

(* Effective value bits for one field. Every field in the pools below is
   at least 6 bits wide, so at the default this never clamps — and the
   raw draw below is masked, not re-drawn, keeping the rng stream
   identical to the historical fixed-6-bit generator. *)
let field_bits params f = min params.value_bits (Field.width f)

let readable_fields =
  [| Field.Ipv4_src; Field.Ipv4_dst; Field.Tcp_sport; Field.Tcp_dport;
     Field.Udp_sport; Field.Udp_dport; Field.Eth_type; Field.Ipv4_proto;
     Field.Ipv4_dscp; Field.Ipv4_ttl; Field.Meta 0; Field.Meta 1 |]

(* Overlaps with the readable pool on Meta 0/1 and Ipv4_dscp so that
   tables read what earlier tables wrote (data dependencies constrain
   reordering and exercise cache live-in computation). *)
let writable_fields =
  [| Field.Meta 2; Field.Meta 3; Field.Meta 4; Field.Meta 5;
     Field.Ipv4_dscp; Field.Tcp_flags; Field.Meta 0; Field.Meta 1 |]

(* One raw draw from the full value space, masked down to the field's
   effective bits. Draw first, mask second: at the default 6 bits the
   mask is a no-op and the rng stream matches the historical generator
   draw for draw (OCaml evaluates tuple arguments right to left, so the
   value draw precedes the field choice in [gen_primitive]). *)
let rand_value_for params rng f =
  let raw = Prng.int rng (dom params) in
  Int64.of_int (raw land ((1 lsl field_bits params f) - 1))

(* --- actions --- *)

let gen_primitive params rng =
  match Prng.int rng 12 with
  | 0 | 1 | 2 ->
    let raw = Prng.int rng (dom params) in
    let f = Prng.choice rng writable_fields in
    Action.Set_field (f, Int64.of_int (raw land ((1 lsl field_bits params f) - 1)))
  | 3 | 4 -> Action.Set_from (Prng.choice rng writable_fields, Prng.choice rng readable_fields)
  | 5 | 6 -> Action.Add_const (Prng.choice rng writable_fields, Int64.of_int (1 + Prng.int rng 7))
  | 7 -> Action.Dec_ttl
  | 8 | 9 -> Action.Forward (1 + Prng.int rng 8)
  | _ -> Action.Nop

let gen_action params rng ~name =
  if Prng.bool rng params.drop_prob then Action.make name [ Action.Drop ]
  else
    Action.make name
      (List.init (1 + Prng.int rng params.max_prims) (fun _ -> gen_primitive params rng))

(* --- tables --- *)

(* At most one non-exact key per table, as the leading key. Combined
   with the priority discipline below this keeps lookup unambiguous; see
   the interface comment. *)
type shape = Sh_exact | Sh_lpm | Sh_ternary | Sh_range

let gen_shape params rng =
  let roll = Prng.int rng 100 in
  if roll < 40 then Sh_exact
  else if roll < 65 then Sh_lpm
  else if roll < 85 then Sh_ternary
  else if params.allow_range then Sh_range
  else Sh_exact

let gen_keys params rng shape =
  let nkeys = 1 + Prng.int rng params.max_keys in
  let pool = Array.copy readable_fields in
  Prng.shuffle rng pool;
  List.init (min nkeys (Array.length pool)) (fun i ->
      let kind =
        if i > 0 then Match_kind.Exact
        else
          match shape with
          | Sh_exact -> Match_kind.Exact
          | Sh_lpm -> Match_kind.Lpm
          | Sh_ternary -> Match_kind.Ternary
          | Sh_range -> Match_kind.Range
      in
      Table.key pool.(i) kind)

let gen_pattern params ?mask_pool rng (k : Table.key) =
  let width = Field.width k.field in
  match k.kind with
  | Match_kind.Exact -> Pattern.Exact (rand_value_for params rng k.field)
  | Match_kind.Lpm ->
    (* Prefix covers all but the low [suffix] bits; the value's masked
       bits are cleared so the pattern is canonical. *)
    let suffix = Prng.int rng (field_bits params k.field + 1) in
    let v =
      Int64.shift_left (Int64.shift_right_logical (rand_value_for params rng k.field) suffix) suffix
    in
    Pattern.Lpm (v, width - suffix)
  | Match_kind.Ternary ->
    (* At rule scale ([mask_pool]) masks come from a bounded per-table
       pool: free-form masks would put nearly every entry in its own
       hash-table group, which no hardware target (or access model)
       resembles. *)
    let mask =
      match mask_pool with
      | Some pool -> Prng.choice rng pool
      | None -> rand_value_for params rng k.field
    in
    Pattern.Ternary (Int64.logand (rand_value_for params rng k.field) mask, mask)
  | Match_kind.Range ->
    let lo = rand_value_for params rng k.field in
    let hi = Int64.add lo (Int64.of_int (Prng.int rng 8)) in
    let hi = if Int64.compare hi (Field.max_value k.field) > 0 then Field.max_value k.field else hi in
    Pattern.Range (lo, hi)

let gen_table params rng ~name =
  let shape = gen_shape params rng in
  let keys = gen_keys params rng shape in
  let n_actions = 1 + Prng.int rng params.max_actions in
  let actions =
    List.init n_actions (fun i -> gen_action params rng ~name:(Printf.sprintf "%s_a%d" name i))
  in
  let action_names = Array.of_list (List.map (fun (a : Action.t) -> a.name) actions) in
  (* Ternary/range entries carry unique priorities so overlapping
     matches have a single well-defined winner in every lookup engine;
     LPM/exact entries keep priority 0 (longest-prefix / exact-hit
     semantics) and rely on pattern deduplication instead. *)
  let prioritized = shape = Sh_ternary || shape = Sh_range in
  let n_entries =
    match params.rules with
    | None -> 1 + Prng.int rng params.max_entries
    | Some r ->
      (* Rule-scale mode: every table lands within a factor of two of
         the requested size. *)
      let r = max 1 r in
      (r / 2) + 1 + Prng.int rng (max 1 ((r + 1) / 2))
  in
  let mask_pool =
    match (params.rules, shape) with
    | Some _, Sh_ternary ->
      (* Prefix-pair masks (a prefix over each half of the field's value
         window), not free-form random bits: that is the shape ACL rule
         sets and TCAM range expansions actually have. One rng draw per
         mask, split into the two prefix lengths. *)
      let k0 = List.hd keys in
      let w = field_bits params k0.Table.field in
      let hi = (w + 1) / 2
      and lo = w / 2 in
      let amin = max 1 ((hi + 1) / 2) in
      let ra = hi - amin + 1 in
      Some
        (Array.init (min 64 (max 2 (n_entries / 16))) (fun _ ->
             let raw = Prng.int rng (dom params) in
             let a = amin + (raw mod ra) in
             let b = raw / ra mod (lo + 1) in
             let hi_mask = ((1 lsl a) - 1) lsl (w - a) in
             let lo_mask = ((1 lsl b) - 1) lsl (lo - b) in
             Int64.of_int (hi_mask lor lo_mask)))
    | _ -> None
  in
  (* Pattern dedup via a hash set: the historical list scan is O(n^2)
     and dominates generation at rule scale. Drawing no rng of its own,
     the switch leaves generated cases untouched. *)
  let seen = Hashtbl.create (min 4096 (2 * n_entries)) in
  let entries = ref [] in
  for i = 0 to n_entries - 1 do
    let patterns = List.map (gen_pattern params ?mask_pool rng) keys in
    if not (Hashtbl.mem seen patterns) then begin
      Hashtbl.add seen patterns ();
      let priority = if prioritized then n_entries - i else 0 in
      entries := Table.entry ~priority patterns (Prng.choice rng action_names) :: !entries
    end
  done;
  Table.make ~entries:(List.rev !entries)
    ~max_entries:(max 16 (2 * n_entries))
    ~name ~keys ~actions
    ~default_action:(Prng.choice rng action_names)
    ()

(* --- structured control flow --- *)

type stmt =
  | S_apply of Table.t
  | S_if of string * Field.t * Program.cmp * P4ir.Value.t * stmt list * stmt list
  | S_switch of Table.t * (string * stmt list) list
      (** one arm per action of the table, in action order; an empty arm
          falls through to the statement after the switch *)

type namer = { mutable tabs : int; mutable conds : int }

let fresh_table nm =
  let n = nm.tabs in
  nm.tabs <- n + 1;
  Printf.sprintf "t%d" n

let fresh_cond nm =
  let n = nm.conds in
  nm.conds <- n + 1;
  Printf.sprintf "c%d" n

let cmp_ops = [| Program.Eq; Program.Neq; Program.Lt; Program.Gt; Program.Le; Program.Ge |]

let rec gen_block params rng nm ~depth ~budget =
  let stmts = ref [] in
  let n = 1 + Prng.int rng params.max_block_stmts in
  for _ = 1 to n do
    if !budget > 0 then begin
      let roll = Prng.float rng in
      if depth < params.max_depth && roll < 0.20 then begin
        let field = Prng.choice rng readable_fields in
        let op = Prng.choice rng cmp_ops in
        let arg = rand_value_for params rng field in
        let bt =
          if Prng.bool rng 0.85 then gen_block params rng nm ~depth:(depth + 1) ~budget else []
        in
        let bf =
          if Prng.bool rng 0.6 then gen_block params rng nm ~depth:(depth + 1) ~budget else []
        in
        stmts := S_if (fresh_cond nm, field, op, arg, bt, bf) :: !stmts
      end
      else if depth < params.max_depth && roll < 0.35 then begin
        decr budget;
        let tab = gen_table params rng ~name:(fresh_table nm) in
        let arms =
          List.map
            (fun (a : Action.t) ->
              let arm =
                if Prng.bool rng 0.5 then gen_block params rng nm ~depth:(depth + 1) ~budget
                else []
              in
              (a.name, arm))
            tab.actions
        in
        stmts := S_switch (tab, arms) :: !stmts
      end
      else begin
        decr budget;
        stmts := S_apply (gen_table params rng ~name:(fresh_table nm)) :: !stmts
      end
    end
  done;
  List.rev !stmts

(* Lowering mirrors P4lite.Lower: blocks are threaded back-to-front so
   each statement's successor already has an id, and both arms of a
   branch rejoin at the continuation node. The resulting DAGs stay
   structured, so P4lite.Emit can reconstruct source for them. *)
let rec lower_block prog stmts ~next =
  List.fold_left
    (fun (prog, next) stmt -> lower_stmt prog stmt ~next)
    (prog, next) (List.rev stmts)

and lower_stmt prog stmt ~next =
  match stmt with
  | S_apply tab ->
    let prog, id = Program.add_node prog (Program.Table (tab, Program.Uniform next)) in
    (prog, Some id)
  | S_if (cond_name, field, op, arg, bt, bf) ->
    let prog, on_true = lower_block prog bt ~next in
    let prog, on_false = lower_block prog bf ~next in
    let prog, id =
      Program.add_node prog (Program.Cond { cond_name; field; op; arg; on_true; on_false })
    in
    (prog, Some id)
  | S_switch (tab, arms) ->
    let prog, branches =
      List.fold_left
        (fun (prog, acc) (a, arm) ->
          match arm with
          | [] -> (prog, (a, next) :: acc)
          | _ ->
            let prog, entry = lower_block prog arm ~next in
            (prog, (a, entry) :: acc))
        (prog, []) arms
    in
    let prog, id = Program.add_node prog (Program.Table (tab, Program.Per_action (List.rev branches))) in
    (prog, Some id)

let program ?(params = default_params) ?(name = "fuzz") rng =
  let nm = { tabs = 0; conds = 0 } in
  let budget = ref (max 1 (1 + Prng.int rng params.max_tables)) in
  let top = gen_block params rng nm ~depth:0 ~budget in
  (* A roll of empty branches can produce a table-free program; anchor
     it with one table so there is something to execute. *)
  let top =
    if nm.tabs = 0 then top @ [ S_apply (gen_table params rng ~name:(fresh_table nm)) ]
    else top
  in
  let prog, root = lower_block (Program.empty name) top ~next:None in
  let prog = Program.with_root prog root in
  Program.validate_exn prog;
  prog

(* --- profiles --- *)

let profile rng prog =
  let prof = Profile.with_default_cache_hit (Prng.uniform rng 0.5 0.95) Profile.empty in
  let prof =
    List.fold_left
      (fun prof (_, (tab : Table.t)) ->
        (* Misses are rare in realistic workloads: damp the default
           action's weight so high-hit-rate rewrites (fallback merges,
           caches) see the profiles that make them profitable. *)
        let weights =
          List.map
            (fun (a : Action.t) ->
              let w = 0.05 +. Prng.exponential rng 1.0 in
              if String.equal a.name tab.default_action then 0.02 +. (0.1 *. w) else w)
            tab.actions
        in
        let total = List.fold_left ( +. ) 0. weights in
        let action_probs =
          List.map2 (fun (a : Action.t) w -> (a.name, w /. total)) tab.actions weights
        in
        Profile.set_table tab.name
          { Profile.action_probs;
            update_rate = Prng.uniform rng 0. 50.;
            locality = Prng.uniform rng 0.3 0.99 }
          prof)
      prof (Program.tables prog)
  in
  List.fold_left
    (fun prof (_, (c : Program.cond)) ->
      Profile.set_cond c.cond_name { Profile.true_prob = Prng.uniform rng 0.05 0.95 } prof)
    prof (Program.conds prog)

(* --- packets --- *)

type flow = (Field.t * P4ir.Value.t) list

let read_fields prog =
  let of_tables = List.concat_map (fun (_, t) -> Table.reads_of t) (Program.tables prog) in
  let of_conds = List.map (fun (_, (c : Program.cond)) -> c.field) (Program.conds prog) in
  List.sort_uniq Field.compare (of_tables @ of_conds)

(* Constants the program itself compares against: entry patterns and
   branch arguments. Sampling packet fields from these (plus small
   perturbations) makes hits, near-misses and range boundaries common
   instead of vanishingly rare. *)
let interesting_values prog : (Field.t * int64) list =
  let acc = ref [] in
  let add f v = acc := (f, v) :: !acc in
  List.iter
    (fun (_, (tab : Table.t)) ->
      List.iter
        (fun (e : Table.entry) ->
          List.iter2
            (fun (k : Table.key) p ->
              match p with
              | Pattern.Exact v | Pattern.Lpm (v, _) | Pattern.Ternary (v, _) -> add k.field v
              | Pattern.Range (lo, hi) ->
                add k.field lo;
                add k.field hi)
            tab.keys e.patterns)
        tab.entries)
    (Program.tables prog);
  List.iter
    (fun (_, (c : Program.cond)) ->
      add c.field c.arg;
      add c.field (Int64.add c.arg 1L))
    (Program.conds prog);
  !acc

let clamp_value f v =
  let v = if Int64.compare v 0L < 0 then 0L else v in
  Int64.logand v (Field.max_value f)

(* [buckets] pre-splits the interesting-value pool per field (preserving
   pool order, so index draws land on the same values the historical
   per-flow [List.filter] found): at rule scale the pool holds one value
   per entry key and re-filtering it per flow was quadratic. *)
let gen_flow params rng ~fields ~buckets =
  List.filter_map
    (fun (f, (candidates : int64 array)) ->
      if Prng.bool rng 0.12 then None (* leave the field at its packet default *)
      else
        let v =
          if Array.length candidates > 0 && Prng.bool rng 0.7 then begin
            let v = candidates.(Prng.int rng (Array.length candidates)) in
            if Prng.bool rng 0.25 then Int64.add v (Int64.of_int (Prng.int rng 3 - 1)) else v
          end
          else rand_value_for params rng f
        in
        Some (f, clamp_value f v))
    (List.map (fun f -> (f, buckets f)) fields)

let packets ?(params = default_params) rng prog ~n =
  let fields = read_fields prog in
  let pool = interesting_values prog in
  let tbl : (Field.t, int64 list ref) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (f, v) ->
      match Hashtbl.find_opt tbl f with
      | Some l -> l := v :: !l
      | None -> Hashtbl.add tbl f (ref [ v ]))
    pool;
  let bucket_arr =
    List.map
      (fun f ->
        ( f,
          match Hashtbl.find_opt tbl f with
          | Some l -> Array.of_list (List.rev !l)
          | None -> [||] ))
      fields
  in
  let buckets f = List.assoc f bucket_arr in
  let n_flows = 4 + Prng.int rng 29 in
  let flows = Array.init n_flows (fun _ -> gen_flow params rng ~fields ~buckets) in
  let zipf = Traffic.Zipf.create ~n:n_flows ~s:(Prng.uniform rng 0. 1.3) in
  List.init n (fun _ -> flows.(Traffic.Zipf.sample zipf rng))

type case = {
  program : Program.t;
  profile : Profile.t;
  packets : flow list;
}

let case ?(params = default_params) ?(n_packets = 64) rng =
  let prog = program ~params rng in
  { program = prog; profile = profile rng prog; packets = packets ~params rng prog ~n:n_packets }
