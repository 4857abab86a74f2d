(* Per-key "shape": which bits of the field participate in the hash.
   Entries sharing a shape live in the same hash table; the number of
   distinct shapes is the paper's [m]. *)
type shape_elem =
  | S_exact
  | S_prefix of int  (* LPM prefix length *)
  | S_mask of int64  (* ternary mask *)

(* One stored entry together with its pre-masked key values: hash tables
   are keyed by a 63-bit mixing hash of the masked values, and the masked
   arrays disambiguate the (rare) hash collisions. This keeps the probe
   path free of string keys. *)
type slot = {
  masked : int64 array;  (* one per key, already masked *)
  entry : P4ir.Table.entry;
}

(* A shaped group's slot also carries the [Some entry] its straight probe
   returns, preallocated at insert so the probe allocates nothing. Only
   shaped groups pay for it: the exact store's probe answers from its
   own index. *)
type gslot = {
  gmasked : int64 array;
  gentry : P4ir.Table.entry;
  ghit : P4ir.Table.entry option;  (* [Some gentry] *)
}

type group = {
  shape : shape_elem array;
  masks : int64 array;  (* per-key mask, precomputed from the shape *)
  total_prefix : int;  (* for LPM ordering: longer prefixes probed first *)
  mutable max_priority : int;
  tbl : (int, gslot list) Hashtbl.t;
}

(* Learned-index LPM plan (single-LPM-key tables). The prefix set is
   flattened into disjoint elementary intervals over the key domain; a
   piecewise-linear model over the sorted interval start keys predicts
   the slot holding a query's interval within a bounded error window,
   and a last-mile binary search inside the window finishes the job.
   Interval runs the model cannot fit are diverted to a small sorted
   remainder store probed exactly — the NuevoMatchUp remainder
   discipline. Entry options are preallocated at build, model
   coefficients live in floatarrays, so the probe allocates nothing. *)
type learned = {
  l_bounds : int64 array;  (* interval start keys, ascending; slot 0 holds 0 *)
  l_ent : P4ir.Table.entry option array;  (* winner per interval *)
  l_acc : int array;  (* modeled access count per interval *)
  seg_key : int64 array;  (* per segment, first covered bound *)
  seg_pos : int array;  (* length nseg+1: slot range of each segment *)
  seg_slope : floatarray;
  seg_inter : floatarray;
  l_window : int;  (* last-mile search radius around the prediction *)
  r_bounds : int64 array;  (* remainder store: outlier bounds, ascending *)
  r_ent : P4ir.Table.entry option array;
  r_acc : int array;
  l_dom : int64;  (* key domain mask: 2^width - 1 *)
}

(* Decision-tree ternary plan: internal nodes test one key bit (packed
   as [key*64 + bit]), leaves hold candidate lists pre-sorted in the
   probe's winner order (priority desc, then group probe order), so the
   first matching candidate is the answer. Candidates wildcarded on a
   split bit are duplicated down both sides, bounded by a duplication
   budget. Nodes live in a flat int array (3 slots each), candidates in
   parallel arrays with preallocated entry options. *)
type tree = {
  tn : int array;  (* node i at 3i: [bit; left; right] or [-1; start; len] *)
  c_masked : int64 array array;  (* per candidate: masked key values *)
  c_rank : int array;  (* per candidate: owning group's probe rank *)
  c_ent : P4ir.Table.entry option array;  (* preallocated [Some entry] *)
  t_masks : int64 array array;  (* per group rank: per-key masks *)
  t_acc : int;  (* modeled accesses: every mask group is always charged *)
  t_maxleaf : int;  (* largest leaf candidate list: worst-case scan length *)
}

(* Which compiled plan a shaped table is currently running. *)
type splan =
  | P_none  (* straight probe: longest-first LPM scan / ternary skip probe *)
  | P_learned of learned
  | P_tree of tree

(* Per-table override for the plan selector. [Auto] picks from the table
   alone at plan-build time; a forced hint that does not apply to the
   table's shape falls back to [Auto]'s choice. *)
type backend_hint = Auto | Force_linear | Force_learned | Force_tree

type shaped = {
  mutable groups : group array;  (* only the first [ngroups] are live *)
  mutable ngroups : int;
  lpm_ordered : bool;
  mutable nentries : int;  (* live slots across all groups, tracked exactly *)
  mutable plan : splan;
  mutable plan_stale : bool;
}

(* Compiled probe index over an exact-hash store: open addressing keyed
   by the same mixing hash, entry options preallocated at build so the
   steady-state probe allocates nothing. Rebuilt lazily after any
   control-plane mutation ([eidx = None] marks it stale), so the compiled
   data path always sees live table state. *)
type xindex = {
  xmask : int;  (* capacity - 1, capacity a power of two *)
  xhash : int array;  (* per-slot mixing hash (occupancy lives in xent) *)
  xvals : int64 array array;  (* per-slot key values *)
  xent : P4ir.Table.entry option array;  (* preallocated [Some entry] *)
}

type exact_store = {
  etbl : (int, slot list) Hashtbl.t;
  mutable ecount : int;  (* live entries, tracked exactly *)
  mutable eidx : xindex option;  (* compiled probe index; None = stale *)
}

(* Flow-cache store (§3.2.2): the exact store's mixing hash over key
   values, an open-addressed index of node ids (linear probing,
   backward-shift delete) and an index-linked recency list. Node arrays
   start small and grow geometrically up to [ccap]; a hit touches only
   int arrays and returns the node's preallocated [Some entry]. *)
type cache_store = {
  ccap : int;  (* most live entries; a fill beyond it evicts the tail *)
  mutable ckeys : int64 array array;  (* per node: key values *)
  mutable chash : int array;  (* per node: mixing hash of the key *)
  mutable cent : P4ir.Table.entry option array;  (* per node: [Some entry]; None = free *)
  mutable cprev : int array;  (* per node: next more recent node, -1 at the head *)
  mutable cnext : int array;  (* per node: next less recent node (free list too) *)
  mutable chead : int;  (* most recent node, -1 when empty *)
  mutable ctail : int;  (* least recent node, -1 when empty *)
  mutable cfree : int;  (* free-node list through [cnext], -1 when empty *)
  mutable cused : int;  (* nodes handed out so far *)
  mutable clen : int;  (* live entries *)
  mutable cidx : int array;  (* open-addressed node ids, -1 = empty; power-of-two length *)
}

(* Range tables scan their entries in [P4ir.Table.lookup]'s winner order
   (priority desc, specificity desc, insertion order), so the first
   match is the answer. Per (entry, key) cell: a masked compare
   [v land hi = lo] for exact/LPM/ternary patterns, or an unsigned range
   test with both bounds pre-flipped by [min_int] into signed order. *)
type scan = {
  sc_nk : int;  (* keys per entry *)
  sc_range : bool array;  (* n*nk: range cell? *)
  sc_lo : int64 array;  (* n*nk: masked value, or flipped low bound *)
  sc_hi : int64 array;  (* n*nk: mask, or flipped high bound *)
  sc_ent : P4ir.Table.entry option array;  (* per sorted entry: [Some entry] *)
  sc_acc : int;  (* modeled accesses: the reference scan's [max 1 n] *)
}

type linear = {
  mutable lentries : P4ir.Table.entry list;  (* insertion order *)
  mutable lcount : int;
  mutable lscan : scan option;  (* compiled scan; None = stale *)
}

type backend =
  | Exact_hash of exact_store
  | Cache_lru of cache_store
  | Shaped of shaped
  | Linear of linear

type t = {
  table : P4ir.Table.t;
  fields : P4ir.Field.t array;  (* key fields, in key order *)
  scratch : int64 array;  (* reusable per-lookup key-value buffer *)
  backend : backend;
  hint : backend_hint;  (* plan selector override, fixed at [create] *)
  mutable updates : int;
  mutable last_acc : int;  (* accesses of the most recent plan probe *)
  mutable tokens : float;  (* cache-fill token bucket *)
  mutable token_time : float;
  mutable fills : int;  (* cache fills admitted, refreshes included *)
  mutable evictions : int;
  mutable limited : int;  (* cache fills the bucket refused *)
}

let def t = t.table

let key_fields (tab : P4ir.Table.t) = List.map (fun (k : P4ir.Table.key) -> k.field) tab.keys

let all_exact (tab : P4ir.Table.t) =
  List.for_all
    (fun (k : P4ir.Table.key) -> P4ir.Match_kind.equal k.kind P4ir.Match_kind.Exact)
    tab.keys

let has_range (tab : P4ir.Table.t) =
  List.exists
    (fun (k : P4ir.Table.key) -> P4ir.Match_kind.equal k.kind P4ir.Match_kind.Range)
    tab.keys

(* --- hashing --- *)

let hash_seed = 0x9E3779B97F4A7C15L

(* Local copy of Stdx.Prng.mix64 (same constants, same bits): keeping
   the mixer in-module lets the compiler inline it and unbox the whole
   int64 chain, where the cross-module call boxes its argument and
   result on every probe. *)
let[@inline always] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let hash_masked (vals : int64 array) (masks : int64 array) =
  let h = ref hash_seed in
  for i = 0 to Array.length masks - 1 do
    h :=
      mix64
        (Int64.logxor !h
           (Int64.logand (Array.unsafe_get vals i) (Array.unsafe_get masks i)))
  done;
  Int64.to_int (Int64.shift_right_logical !h 1)

let hash_exact (vals : int64 array) =
  let h = ref hash_seed in
  for i = 0 to Array.length vals - 1 do
    h := mix64 (Int64.logxor !h (Array.unsafe_get vals i))
  done;
  Int64.to_int (Int64.shift_right_logical !h 1)

(* [hash_exact] of a one-element array, with every intermediate in
   registers. The mixer is expanded by hand rather than calling [mix64]:
   the non-flambda backend never inlines across a call, and an int64
   call boxes its argument and result — two allocations per probe on the
   compiled path's hottest line. Fully chained in one body, every
   intermediate stays unboxed. Constants and shift counts must match
   [mix64] (and Stdx.Prng.mix64) bit for bit. *)
let[@inline always] hash_exact1 (v : int64) =
  let z = Int64.logxor hash_seed v in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  let z = Int64.logxor z (Int64.shift_right_logical z 31) in
  Int64.to_int (Int64.shift_right_logical z 1)

let rec arrays_equal_from (a : int64 array) (b : int64 array) i n =
  i >= n
  || Int64.equal (Array.unsafe_get a i) (Array.unsafe_get b i) && arrays_equal_from a b (i + 1) n

let arrays_equal (a : int64 array) (b : int64 array) =
  let n = Array.length a in
  n = Array.length b && arrays_equal_from a b 0 n

(* Do the stored masked values [cm] equal the masked projection of
   [vals] on keys [i, n)? A top-level recursion, not a closure, so the
   probes calling it allocate nothing. *)
let rec masked_match (cm : int64 array) (masks : int64 array) (vals : int64 array) i n =
  i >= n
  || Int64.equal (Array.unsafe_get cm i)
       (Int64.logand (Array.unsafe_get vals i) (Array.unsafe_get masks i))
     && masked_match cm masks vals (i + 1) n

let rec gbucket_find masks vals = function
  | [] -> None
  | s :: rest ->
    if masked_match s.gmasked masks vals 0 (Array.length masks) then s.ghit
    else gbucket_find masks vals rest

let exact_slot_matches (vals : int64 array) (s : slot) = arrays_equal s.masked vals

let rec exact_bucket_find vals = function
  | [] -> None
  | s :: rest -> if exact_slot_matches vals s then Some s else exact_bucket_find vals rest

(* Two entries with the same masked key collapse to one slot; keep the
   one the reference list scan would pick — higher priority, ties to the
   earlier insertion. (Same shape means same masks, so specificity cannot
   break the tie either.) True iff the store grew (the slot's masked key
   was new): collapsing onto an existing slot keeps the live-entry count
   unchanged. *)
let hash_insert ~masked ~priority tbl key slot =
  let bucket = match Hashtbl.find_opt tbl key with Some b -> b | None -> [] in
  let rec keep acc = function
    | [] -> (slot :: bucket, true)
    | s :: rest ->
      if arrays_equal (masked s) (masked slot) then
        if priority s >= priority slot then (bucket, false)
        else (List.rev_append acc (slot :: rest), false)
      else keep (s :: acc) rest
  in
  let bucket', grew = keep [] bucket in
  Hashtbl.replace tbl key bucket';
  grew

(* --- shapes --- *)

let shape_of_pattern (k : P4ir.Table.key) (p : P4ir.Pattern.t) =
  match p with
  | P4ir.Pattern.Exact _ -> S_exact
  | P4ir.Pattern.Lpm (_, len) -> S_prefix len
  | P4ir.Pattern.Ternary (_, mask) -> S_mask mask
  | P4ir.Pattern.Range _ ->
    invalid_arg
      (Printf.sprintf "Engine: range pattern on %s needs the linear backend"
         (P4ir.Field.to_string k.field))

let mask_of_shape (k : P4ir.Table.key) = function
  | S_exact -> P4ir.Value.truncate ~width:(P4ir.Field.width k.field) Int64.minus_one
  | S_prefix len -> P4ir.Value.prefix_mask ~width:(P4ir.Field.width k.field) ~prefix_len:len
  | S_mask m -> m

let entry_values (e : P4ir.Table.entry) =
  List.map
    (fun (p : P4ir.Pattern.t) ->
      match p with
      | P4ir.Pattern.Exact v | P4ir.Pattern.Lpm (v, _) | P4ir.Pattern.Ternary (v, _) -> v
      | P4ir.Pattern.Range (lo, _) -> lo)
    e.patterns

let shape_of_entry (tab : P4ir.Table.t) (e : P4ir.Table.entry) =
  Array.of_list (List.map2 shape_of_pattern tab.keys e.patterns)

let total_prefix_of_shape shape =
  Array.fold_left
    (fun acc s ->
      acc + match s with S_exact -> 64 | S_prefix len -> len | S_mask _ -> 0)
    0 shape

let masks_of_shape (tab : P4ir.Table.t) shape =
  let keys = Array.of_list tab.keys in
  Array.mapi (fun i s -> mask_of_shape keys.(i) s) shape

(* --- shaped group array management --- *)

let invalidate_plan s =
  s.plan <- P_none;
  s.plan_stale <- true

let find_group s shape =
  let rec go i =
    if i >= s.ngroups then None
    else if s.groups.(i).shape = shape then Some s.groups.(i)
    else go (i + 1)
  in
  go 0

(* Insert the group at its probe position without rebuilding the rest:
   LPM keeps descending total-prefix order (new group ahead of equal
   lengths, matching the old stable sort over a prepended list); ternary
   keeps newest-shape-first probe order. *)
let add_group s (g : group) =
  let idx =
    if s.lpm_ordered then begin
      let rec pos i =
        if i >= s.ngroups || s.groups.(i).total_prefix <= g.total_prefix then i
        else pos (i + 1)
      in
      pos 0
    end
    else 0
  in
  let cap = Array.length s.groups in
  if s.ngroups = cap then begin
    let bigger = Array.make (max 4 (2 * cap)) g in
    Array.blit s.groups 0 bigger 0 s.ngroups;
    s.groups <- bigger
  end;
  Array.blit s.groups idx s.groups (idx + 1) (s.ngroups - idx);
  s.groups.(idx) <- g;
  s.ngroups <- s.ngroups + 1

let shaped_insert s (tab : P4ir.Table.t) (e : P4ir.Table.entry) =
  let shape = shape_of_entry tab e in
  let g =
    match find_group s shape with
    | Some g ->
      g.max_priority <- max g.max_priority e.priority;
      g
    | None ->
      let g =
        { shape;
          masks = masks_of_shape tab shape;
          total_prefix = total_prefix_of_shape shape;
          max_priority = e.priority;
          tbl = Hashtbl.create 64 }
      in
      add_group s g;
      g
  in
  let values = Array.of_list (entry_values e) in
  let masked = Array.mapi (fun i v -> Int64.logand v g.masks.(i)) values in
  if
    hash_insert
      ~masked:(fun s -> s.gmasked)
      ~priority:(fun s -> s.gentry.priority)
      g.tbl (hash_masked masked g.masks)
      { gmasked = masked; gentry = e; ghit = Some e }
  then s.nentries <- s.nentries + 1;
  invalidate_plan s

(* [Hashtbl.mem] then [find] rather than [find_opt] (whose [Some]
   allocates) or [find] under a handler (a miss raises, twice as slow). *)
let group_probe (g : group) vals =
  let h = hash_masked vals g.masks in
  if Hashtbl.mem g.tbl h then gbucket_find g.masks vals (Hashtbl.find g.tbl h) else None

(* --- learned-index LPM plan --- *)

(* Tunables. [learned_epsilon] is the model's maximum slot error; the
   last-mile search window is epsilon + 2 (queries between two sample
   keys can land one slot past either bound). Segments shorter than
   [learned_min_run] are outliers the cone could not extend over — they
   go to the remainder store instead of earning coefficients. The auto
   selector gives an LPM table the learned index once it has
   [learned_min_groups] prefix lengths (below that the longest-first
   scan is a handful of probes) or [learned_threshold] entries, and a
   ternary table the decision tree at [tree_threshold] entries. *)
let learned_epsilon = 32
let learned_min_run = 4
let learned_min_groups = 4
let learned_threshold = 4096
let tree_threshold = 4096

(* Degeneracy guard for the decision tree. Unstructured mask sets (no
   bits shared across masks) exhaust the wildcard-duplication budget
   near the root and leave giant leaves, so a probe scans thousands of
   candidates — far slower than the skip probe it replaced. The auto
   selector keeps a tree only when its worst leaf scan stays within a
   small factor of the skip probe's per-group cost (a leaf compare is
   much cheaper than a masked hash probe); forced hints bypass the
   guard. *)
let tree_leaf_budget ngroups = 4 * max 8 ngroups

(* The learned plan models one key dimension: a single LPM key, whose
   width (<= 48 bits) converts to float exactly. Multi-key LPM tables
   keep the linear plan. *)
let learned_applicable t s =
  s.lpm_ordered
  && Array.length t.fields = 1
  &&
  let rec ok i =
    i >= s.ngroups
    || (match s.groups.(i).shape.(0) with S_prefix _ -> ok (i + 1) | S_exact | S_mask _ -> false)
  in
  ok 0

let build_learned t s =
  let width = P4ir.Field.width t.fields.(0) in
  let dom = Int64.shift_left 1L width in
  let dom_mask = Int64.sub dom 1L in
  let miss_acc = max 1 s.ngroups in
  (* Collect every prefix with its probe rank: a hit in group i costs
     i+1 accesses under the modeled longest-first scan. *)
  let n = s.nentries in
  let it_lo = Array.make (max 1 n) 0L in
  let it_hi = Array.make (max 1 n) 0L in
  let it_len = Array.make (max 1 n) 0 in
  let it_ent = Array.make (max 1 n) None in
  let it_acc = Array.make (max 1 n) 0 in
  let nit = ref 0 in
  for i = 0 to s.ngroups - 1 do
    let g = s.groups.(i) in
    let len = match g.shape.(0) with S_prefix l -> l | S_exact | S_mask _ -> width in
    let span = Int64.sub (Int64.shift_left 1L (width - len)) 1L in
    Hashtbl.iter
      (fun _ bucket ->
        List.iter
          (fun s0 ->
            let k = !nit in
            it_lo.(k) <- s0.gmasked.(0);
            it_hi.(k) <- Int64.add s0.gmasked.(0) span;
            it_len.(k) <- len;
            it_ent.(k) <- s0.ghit;
            it_acc.(k) <- i + 1;
            incr nit)
          bucket)
      g.tbl
  done;
  let n = !nit in
  let order = Array.init n (fun i -> i) in
  (* Prefix intervals nest or are disjoint; sorting by (lo asc, wider
     first) makes a single stack sweep flatten them into disjoint
     elementary intervals whose winner is the innermost live prefix. *)
  Array.sort
    (fun a b ->
      let c = Int64.compare it_lo.(a) it_lo.(b) in
      if c <> 0 then c else compare it_len.(a) it_len.(b))
    order;
  let cap = (2 * n) + 2 in
  let b_bound = Array.make cap 0L in
  let b_ent = Array.make cap None in
  let b_acc = Array.make cap miss_acc in
  let bn = ref 0 in
  let emit bound ent acc =
    if Int64.compare bound dom < 0 then
      if !bn > 0 && Int64.equal b_bound.(!bn - 1) bound then begin
        (* Same start key: the later (narrower) item wins the interval. *)
        b_ent.(!bn - 1) <- ent;
        b_acc.(!bn - 1) <- acc
      end
      else begin
        b_bound.(!bn) <- bound;
        b_ent.(!bn) <- ent;
        b_acc.(!bn) <- acc;
        incr bn
      end
  in
  emit 0L None miss_acc;
  let stack = Array.make (max 1 n) 0 in
  let top = ref 0 in
  let emit_top_after bound =
    if !top > 0 then begin
      let p = stack.(!top - 1) in
      emit bound it_ent.(p) it_acc.(p)
    end
    else emit bound None miss_acc
  in
  Array.iter
    (fun idx ->
      while !top > 0 && Int64.compare it_hi.(stack.(!top - 1)) it_lo.(idx) < 0 do
        let popped = stack.(!top - 1) in
        decr top;
        emit_top_after (Int64.add it_hi.(popped) 1L)
      done;
      stack.(!top) <- idx;
      incr top;
      emit it_lo.(idx) it_ent.(idx) it_acc.(idx))
    order;
  while !top > 0 do
    let popped = stack.(!top - 1) in
    decr top;
    emit_top_after (Int64.add it_hi.(popped) 1L)
  done;
  let nb = !bn in
  (* Greedy shrinking-cone piecewise-linear regression over the points
     (bound as float, slot index): extend the current segment while some
     slope keeps every point within epsilon slots; close it when the
     feasible cone empties. *)
  let eps = float_of_int learned_epsilon in
  let segs = ref [] in
  let j0 = ref 0 in
  let x0 = ref (Int64.to_float b_bound.(0)) in
  let slo = ref neg_infinity and shi = ref infinity in
  let close stop =
    let slope =
      if stop - !j0 <= 1 then 0.
      else begin
        let mid = (!slo +. !shi) /. 2. in
        if Float.is_finite mid then mid else 0.
      end
    in
    let inter = float_of_int !j0 -. (slope *. !x0) in
    segs := (!j0, stop, slope, inter) :: !segs
  in
  for j = 1 to nb - 1 do
    let x = Int64.to_float b_bound.(j) in
    let dx = x -. !x0 in
    let dy = float_of_int (j - !j0) in
    let lo_req = (dy -. eps) /. dx and hi_req = (dy +. eps) /. dx in
    let nlo = Float.max !slo lo_req and nhi = Float.min !shi hi_req in
    if nlo > nhi then begin
      close j;
      j0 := j;
      x0 := x;
      slo := neg_infinity;
      shi := infinity
    end
    else begin
      slo := nlo;
      shi := nhi
    end
  done;
  close nb;
  let segs = List.rev !segs in
  (* Divert runt segments to the remainder store (the segment holding
     bound 0 always stays: every query then finds a main-array floor).
     Accepted segments keep their slope — removing whole earlier runs
     shifts their slots by a constant, absorbed into the intercept. *)
  let rem_cap = (nb / 16) + 4 in
  let m_bound = Array.make (max 1 nb) 0L in
  let m_ent = Array.make (max 1 nb) None in
  let m_acc = Array.make (max 1 nb) miss_acc in
  let mn = ref 0 in
  let r_bound = Array.make rem_cap 0L in
  let r_ent = Array.make rem_cap None in
  let r_acc = Array.make rem_cap 0 in
  let rn = ref 0 in
  let skeys = ref [] and sposs = ref [] and sslopes = ref [] and sinters = ref [] in
  let nseg = ref 0 in
  List.iter
    (fun (start, stop, slope, inter) ->
      let cnt = stop - start in
      if cnt < learned_min_run && start > 0 && !rn + cnt <= rem_cap then
        for j = start to stop - 1 do
          r_bound.(!rn) <- b_bound.(j);
          r_ent.(!rn) <- b_ent.(j);
          r_acc.(!rn) <- b_acc.(j);
          incr rn
        done
      else begin
        let removed = start - !mn in
        skeys := b_bound.(start) :: !skeys;
        sposs := !mn :: !sposs;
        sslopes := slope :: !sslopes;
        sinters := (inter -. float_of_int removed) :: !sinters;
        incr nseg;
        for j = start to stop - 1 do
          m_bound.(!mn) <- b_bound.(j);
          m_ent.(!mn) <- b_ent.(j);
          m_acc.(!mn) <- b_acc.(j);
          incr mn
        done
      end)
    segs;
  sposs := !mn :: !sposs;
  { l_bounds = Array.sub m_bound 0 !mn;
    l_ent = Array.sub m_ent 0 !mn;
    l_acc = Array.sub m_acc 0 !mn;
    seg_key = Array.of_list (List.rev !skeys);
    seg_pos = Array.of_list (List.rev !sposs);
    seg_slope = Float.Array.of_list (List.rev !sslopes);
    seg_inter = Float.Array.of_list (List.rev !sinters);
    l_window = learned_epsilon + 2;
    r_bounds = Array.sub r_bound 0 !rn;
    r_ent = Array.sub r_ent 0 !rn;
    r_acc = Array.sub r_acc 0 !rn;
    l_dom = dom_mask }

(* Rightmost index in [lo, hi] whose key is <= v; [ans] if none. A
   top-level tail-recursive function, not a local closure, so the probe
   path allocates nothing. *)
let rec bsearch_le (a : int64 array) (v : int64) lo hi ans =
  if lo > hi then ans
  else begin
    let mid = (lo + hi) / 2 in
    if Int64.compare (Array.unsafe_get a mid) v <= 0 then bsearch_le a v (mid + 1) hi mid
    else bsearch_le a v lo (mid - 1) ans
  end

let learned_find t (l : learned) (v : int64) =
  let v = Int64.logand v l.l_dom in
  let s = bsearch_le l.seg_key v 0 (Array.length l.seg_key - 1) 0 in
  let lo_pos = l.seg_pos.(s) and hi_pos = l.seg_pos.(s + 1) - 1 in
  let pred =
    int_of_float ((Float.Array.get l.seg_slope s *. Int64.to_float v) +. Float.Array.get l.seg_inter s)
  in
  let pred = if pred < lo_pos then lo_pos else if pred > hi_pos then hi_pos else pred in
  let wlo = if pred - l.l_window < lo_pos then lo_pos else pred - l.l_window in
  let whi = if pred + l.l_window > hi_pos then hi_pos else pred + l.l_window in
  let j = bsearch_le l.l_bounds v wlo whi (wlo - 1) in
  (* The window provably contains the answer for non-negative segment
     slopes; verify and fall back to the whole segment otherwise. *)
  let j =
    if j >= wlo && (j = hi_pos || Int64.compare l.l_bounds.(j + 1) v > 0) then j
    else bsearch_le l.l_bounds v lo_pos hi_pos lo_pos
  in
  let rn = Array.length l.r_bounds in
  if rn > 0 then begin
    let rj = bsearch_le l.r_bounds v 0 (rn - 1) (-1) in
    if rj >= 0 && Int64.compare l.r_bounds.(rj) l.l_bounds.(j) > 0 then begin
      t.last_acc <- l.r_acc.(rj);
      l.r_ent.(rj)
    end
    else begin
      t.last_acc <- l.l_acc.(j);
      l.l_ent.(j)
    end
  end
  else begin
    t.last_acc <- l.l_acc.(j);
    l.l_ent.(j)
  end

(* --- decision-tree ternary plan --- *)

let tree_leaf_max = 8
let tree_max_depth = 20
let tree_sample_cap = 512

let build_tree s =
  let g_masks = Array.init s.ngroups (fun i -> s.groups.(i).masks) in
  let nk = if s.ngroups = 0 then 0 else Array.length g_masks.(0) in
  let n = s.nentries in
  let a_masked = Array.make (max 1 n) [||] in
  let a_rank = Array.make (max 1 n) 0 in
  let a_ent = Array.make (max 1 n) None in
  let a_prio = Array.make (max 1 n) 0 in
  let na = ref 0 in
  for i = 0 to s.ngroups - 1 do
    Hashtbl.iter
      (fun _ bucket ->
        List.iter
          (fun s0 ->
            let k = !na in
            a_masked.(k) <- s0.gmasked;
            a_rank.(k) <- i;
            a_ent.(k) <- s0.ghit;
            a_prio.(k) <- s0.gentry.priority;
            incr na)
          bucket)
      s.groups.(i).tbl
  done;
  let n = !na in
  (* Pre-sort once in winner order (priority desc, probe rank asc);
     stable partitions below preserve it, so every leaf list is sorted
     and the first match wins — exactly the skip probe's answer. *)
  let order = Array.init n (fun i -> i) in
  Array.sort
    (fun a b ->
      let c = compare a_prio.(b) a_prio.(a) in
      if c <> 0 then c else compare a_rank.(a) a_rank.(b))
    order;
  (* Split-bit candidates: bits set in at least one group mask. *)
  let bits = ref [] in
  for k = nk - 1 downto 0 do
    let u = ref 0L in
    for i = 0 to s.ngroups - 1 do
      u := Int64.logor !u g_masks.(i).(k)
    done;
    for b = 63 downto 0 do
      if Int64.equal (Int64.logand (Int64.shift_right_logical !u b) 1L) 1L then
        bits := ((k * 64) + b) :: !bits
    done
  done;
  let bits = Array.of_list !bits in
  let tn = ref (Array.make 96 0) in
  let nnodes = ref 0 in
  let new_node a b c =
    if 3 * !nnodes >= Array.length !tn then begin
      let bigger = Array.make (2 * Array.length !tn) 0 in
      Array.blit !tn 0 bigger 0 (3 * !nnodes);
      tn := bigger
    end;
    let id = !nnodes in
    incr nnodes;
    (!tn).((3 * id) + 0) <- a;
    (!tn).((3 * id) + 1) <- b;
    (!tn).((3 * id) + 2) <- c;
    id
  in
  let c_masked = ref (Array.make (max 1 n) [||]) in
  let c_rank = ref (Array.make (max 1 n) 0) in
  let c_ent = ref (Array.make (max 1 n) None) in
  let nc = ref 0 in
  let push_cand i =
    if !nc >= Array.length !c_ent then begin
      let grow (type a) (a : a array) (z : a) =
        let bigger = Array.make (2 * Array.length a) z in
        Array.blit a 0 bigger 0 !nc;
        bigger
      in
      c_masked := grow !c_masked [||];
      c_rank := grow !c_rank 0;
      c_ent := grow !c_ent None
    end;
    (!c_masked).(!nc) <- a_masked.(i);
    (!c_rank).(!nc) <- a_rank.(i);
    (!c_ent).(!nc) <- a_ent.(i);
    incr nc
  in
  (* Wildcard duplication budget: once splits have copied this many
     extra candidates, the remaining subtrees become leaves. *)
  let dup_allow = ref ((8 * n) + 64) in
  let maxleaf = ref 0 in
  let bit_set v b = Int64.equal (Int64.logand (Int64.shift_right_logical v b) 1L) 1L in
  let rec build cands depth =
    let cn = Array.length cands in
    let make_leaf () =
      if cn > !maxleaf then maxleaf := cn;
      let start = !nc in
      Array.iter push_cand cands;
      new_node (-1) start cn
    in
    if cn <= tree_leaf_max || depth >= tree_max_depth || !dup_allow <= 0 then make_leaf ()
    else begin
      (* Pick the bit separating the most candidates, scored on a
         strided sample for large nodes (a sample underestimates both
         sides, so a positive score still guarantees the split shrinks). *)
      let step = if cn <= tree_sample_cap then 1 else cn / tree_sample_cap in
      let best_bit = ref (-1) and best_score = ref 0 in
      Array.iter
        (fun kb ->
          let k = kb lsr 6 and b = kb land 63 in
          let zeros = ref 0 and ones = ref 0 in
          let i = ref 0 in
          while !i < cn do
            let c = cands.(!i) in
            if bit_set g_masks.(a_rank.(c)).(k) b then
              if bit_set a_masked.(c).(k) b then incr ones else incr zeros;
            i := !i + step
          done;
          let score = min !zeros !ones in
          if score > !best_score then begin
            best_score := score;
            best_bit := kb
          end)
        bits;
      if !best_bit < 0 then make_leaf ()
      else begin
        let kb = !best_bit in
        let k = kb lsr 6 and b = kb land 63 in
        let nl = ref 0 and nr = ref 0 in
        Array.iter
          (fun c ->
            if bit_set g_masks.(a_rank.(c)).(k) b then
              if bit_set a_masked.(c).(k) b then incr nr else incr nl
            else begin
              incr nl;
              incr nr
            end)
          cands;
        let left = Array.make !nl 0 and right = Array.make !nr 0 in
        let il = ref 0 and ir = ref 0 in
        Array.iter
          (fun c ->
            if bit_set g_masks.(a_rank.(c)).(k) b then begin
              if bit_set a_masked.(c).(k) b then begin
                right.(!ir) <- c;
                incr ir
              end
              else begin
                left.(!il) <- c;
                incr il
              end
            end
            else begin
              left.(!il) <- c;
              incr il;
              right.(!ir) <- c;
              incr ir
            end)
          cands;
        dup_allow := !dup_allow - (!nl + !nr - cn);
        let me = new_node kb 0 0 in
        let l = build left (depth + 1) in
        let r = build right (depth + 1) in
        (!tn).((3 * me) + 1) <- l;
        (!tn).((3 * me) + 2) <- r;
        me
      end
    end
  in
  let root = build order 0 in
  assert (root = 0);
  { tn = Array.sub !tn 0 (3 * !nnodes);
    c_masked = Array.sub !c_masked 0 !nc;
    c_rank = Array.sub !c_rank 0 !nc;
    c_ent = Array.sub !c_ent 0 !nc;
    t_masks = g_masks;
    t_acc = max 1 s.ngroups;
    t_maxleaf = !maxleaf }

(* Leaf scan: first candidate whose masked projection of the packet
   values matches. *)
let rec tree_scan (tr : tree) (vals : int64 array) i stop =
  if i >= stop then None
  else begin
    let masks = tr.t_masks.(Array.unsafe_get tr.c_rank i) in
    if masked_match (Array.unsafe_get tr.c_masked i) masks vals 0 (Array.length masks) then
      Array.unsafe_get tr.c_ent i
    else tree_scan tr vals (i + 1) stop
  end

let rec tree_descend (tr : tree) (vals : int64 array) node =
  let tag = Array.unsafe_get tr.tn (3 * node) in
  if tag < 0 then begin
    let start = Array.unsafe_get tr.tn ((3 * node) + 1) in
    tree_scan tr vals start (start + Array.unsafe_get tr.tn ((3 * node) + 2))
  end
  else begin
    let v = Array.unsafe_get vals (tag lsr 6) in
    if Int64.equal (Int64.logand (Int64.shift_right_logical v (tag land 63)) 1L) 1L then
      tree_descend tr vals (Array.unsafe_get tr.tn ((3 * node) + 2))
    else tree_descend tr vals (Array.unsafe_get tr.tn ((3 * node) + 1))
  end

(* --- plan selection --- *)

let select_plan t s =
  s.plan_stale <- false;
  let auto () =
    if s.lpm_ordered then
      if
        learned_applicable t s
        && (s.ngroups >= learned_min_groups || s.nentries >= learned_threshold)
      then P_learned (build_learned t s)
      else P_none
    else if s.nentries >= tree_threshold && s.ngroups >= 2 then begin
      let tr = build_tree s in
      if tr.t_maxleaf <= tree_leaf_budget s.ngroups then P_tree tr else P_none
    end
    else P_none
  in
  s.plan <-
    (match t.hint with
     | Auto -> auto ()
     | Force_linear -> P_none
     | Force_learned -> if learned_applicable t s then P_learned (build_learned t s) else auto ()
     | Force_tree -> if (not s.lpm_ordered) && s.ngroups > 0 then P_tree (build_tree s) else auto ())

(* --- flow-cache store --- *)

let cache_initial_nodes = 8

(* Open-addressing slots for [n] keys: a power of two keeping the load
   factor at most 1/2, so linear-probe chains stay short. *)
let index_size n =
  let s = ref 8 in
  while !s < 2 * n do
    s := 2 * !s
  done;
  !s

(* Back to the initial small arrays, as [Hashtbl.reset] would. *)
let cache_reset c =
  let n = min c.ccap cache_initial_nodes in
  c.ckeys <- Array.make n [||];
  c.chash <- Array.make n 0;
  c.cent <- Array.make n None;
  c.cprev <- Array.make n (-1);
  c.cnext <- Array.make n (-1);
  c.chead <- -1;
  c.ctail <- -1;
  c.cfree <- -1;
  c.cused <- 0;
  c.clen <- 0;
  c.cidx <- Array.make (index_size n) (-1)

let cache_make cap =
  let c =
    { ccap = cap; ckeys = [||]; chash = [||]; cent = [||]; cprev = [||]; cnext = [||];
      chead = -1; ctail = -1; cfree = -1; cused = 0; clen = 0; cidx = [||] }
  in
  cache_reset c;
  c

(* The node holding key [vals] (mixing hash [h]), probing from index
   slot [j]; -1 if absent. [cfind1] is the single-key form. *)
let rec cfind c (vals : int64 array) h j =
  let n = Array.unsafe_get c.cidx j in
  if n < 0 then -1
  else if Array.unsafe_get c.chash n = h && arrays_equal (Array.unsafe_get c.ckeys n) vals then n
  else cfind c vals h ((j + 1) land (Array.length c.cidx - 1))

let rec cfind1 c (v : int64) h j =
  let n = Array.unsafe_get c.cidx j in
  if n < 0 then -1
  else if
    Array.unsafe_get c.chash n = h
    && Int64.equal (Array.unsafe_get (Array.unsafe_get c.ckeys n) 0) v
  then n
  else cfind1 c v h ((j + 1) land (Array.length c.cidx - 1))

let cache_unlink c n =
  let p = c.cprev.(n) and q = c.cnext.(n) in
  if p >= 0 then c.cnext.(p) <- q else c.chead <- q;
  if q >= 0 then c.cprev.(q) <- p else c.ctail <- p

let cache_push_front c n =
  c.cprev.(n) <- -1;
  c.cnext.(n) <- c.chead;
  if c.chead >= 0 then c.cprev.(c.chead) <- n else c.ctail <- n;
  c.chead <- n

let cache_touch c n =
  if c.chead <> n then begin
    cache_unlink c n;
    cache_push_front c n
  end

let rec cidx_place c n j =
  if c.cidx.(j) < 0 then c.cidx.(j) <- n
  else cidx_place c n ((j + 1) land (Array.length c.cidx - 1))

(* Backward-shift delete: walk the probe run after the hole and pull
   back every node whose home slot lies at or before the hole, so the
   index never needs tombstones. *)
let rec cidx_shift c hole k =
  let mask = Array.length c.cidx - 1 in
  let m = c.cidx.(k) in
  if m >= 0 then
    if (k - (c.chash.(m) land mask)) land mask >= (k - hole) land mask then begin
      c.cidx.(hole) <- m;
      c.cidx.(k) <- -1;
      cidx_shift c k ((k + 1) land mask)
    end
    else cidx_shift c hole ((k + 1) land mask)

let rec cidx_slot c n j =
  if c.cidx.(j) = n then j else cidx_slot c n ((j + 1) land (Array.length c.cidx - 1))

let cache_remove c n =
  let mask = Array.length c.cidx - 1 in
  let j = cidx_slot c n (c.chash.(n) land mask) in
  c.cidx.(j) <- -1;
  cidx_shift c j ((j + 1) land mask);
  cache_unlink c n;
  c.ckeys.(n) <- [||];
  c.cent.(n) <- None;
  c.cnext.(n) <- c.cfree;
  c.cfree <- n;
  c.clen <- c.clen - 1

(* Double the node arrays (up to [ccap]) and rebuild the index. *)
let cache_grow c =
  let old = Array.length c.cent in
  let n = min c.ccap (2 * old) in
  let extend a z =
    let b = Array.make n z in
    Array.blit a 0 b 0 old;
    b
  in
  c.ckeys <- extend c.ckeys [||];
  c.chash <- extend c.chash 0;
  c.cent <- extend c.cent None;
  c.cprev <- extend c.cprev (-1);
  c.cnext <- extend c.cnext (-1);
  c.cidx <- Array.make (index_size n) (-1);
  for m = 0 to c.cused - 1 do
    if Option.is_some c.cent.(m) then cidx_place c m (c.chash.(m) land (Array.length c.cidx - 1))
  done

let cache_alloc c =
  if c.cfree >= 0 then begin
    let n = c.cfree in
    c.cfree <- c.cnext.(n);
    n
  end
  else begin
    if c.cused = Array.length c.cent then cache_grow c;
    let n = c.cused in
    c.cused <- n + 1;
    n
  end

(* Insert or refresh [keys] -> [e] as the most recent entry; true iff
   the least recent entry was evicted to make room. Evicting before the
   insert picks the same victim as inserting first and trimming the
   tail, and never grows the arrays past [ccap]. *)
let cache_put c (keys : int64 array) e =
  let h = hash_exact keys in
  let n = cfind c keys h (h land (Array.length c.cidx - 1)) in
  if n >= 0 then begin
    c.cent.(n) <- Some e;
    cache_touch c n;
    false
  end
  else begin
    let evict = c.clen >= c.ccap in
    if evict then cache_remove c c.ctail;
    let n = cache_alloc c in
    c.ckeys.(n) <- keys;
    c.chash.(n) <- h;
    c.cent.(n) <- Some e;
    cidx_place c n (h land (Array.length c.cidx - 1));
    cache_push_front c n;
    c.clen <- c.clen + 1;
    evict
  end

(* Least recent first: replaying the list through [cache_put] rebuilds
   the same recency order. *)
let cache_entries c =
  let rec walk n acc =
    if n < 0 then acc
    else walk c.cnext.(n) (match c.cent.(n) with Some e -> e :: acc | None -> acc)
  in
  walk c.chead []

let cache_copy c =
  { c with
    ckeys = Array.copy c.ckeys;
    chash = Array.copy c.chash;
    cent = Array.copy c.cent;
    cprev = Array.copy c.cprev;
    cnext = Array.copy c.cnext;
    cidx = Array.copy c.cidx }

let exact_values (patterns : P4ir.Pattern.t list) =
  Array.of_list
    (List.map
       (function
         | P4ir.Pattern.Exact v -> v
         | _ -> invalid_arg "Engine: non-exact pattern in exact table")
       patterns)

(* --- compiled range scan --- *)

let build_scan t l =
  let widths = Array.map P4ir.Field.width t.fields in
  let nk = Array.length widths in
  let ents = Array.of_list l.lentries in
  let n = Array.length ents in
  let spec =
    Array.map
      (fun (e : P4ir.Table.entry) ->
        List.fold_left (fun acc p -> acc + P4ir.Pattern.specificity p) 0 e.patterns)
      ents
  in
  let order = Array.init n Fun.id in
  Array.stable_sort
    (fun a b ->
      match compare ents.(b).priority ents.(a).priority with
      | 0 -> compare spec.(b) spec.(a)
      | c -> c)
    order;
  let sc_range = Array.make (n * nk) false in
  let sc_lo = Array.make (n * nk) 0L in
  let sc_hi = Array.make (n * nk) 0L in
  Array.iteri
    (fun i src ->
      List.iteri
        (fun k (p : P4ir.Pattern.t) ->
          let c = (i * nk) + k in
          let masked mask v =
            sc_lo.(c) <- Int64.logand v mask;
            sc_hi.(c) <- mask
          in
          match p with
          | P4ir.Pattern.Exact v ->
            masked (P4ir.Value.truncate ~width:widths.(k) Int64.minus_one) v
          | P4ir.Pattern.Lpm (v, len) ->
            masked (P4ir.Value.prefix_mask ~width:widths.(k) ~prefix_len:len) v
          | P4ir.Pattern.Ternary (v, mask) -> masked mask v
          | P4ir.Pattern.Range (lo, hi) ->
            sc_range.(c) <- true;
            sc_lo.(c) <- Int64.logxor lo Int64.min_int;
            sc_hi.(c) <- Int64.logxor hi Int64.min_int)
        ents.(src).patterns)
    order;
  let sc =
    { sc_nk = nk;
      sc_range;
      sc_lo;
      sc_hi;
      sc_ent = Array.map (fun i -> Some ents.(i)) order;
      sc_acc = max 1 n }
  in
  l.lscan <- Some sc;
  sc

let rec scan_cells sc (vals : int64 array) base k =
  k >= sc.sc_nk
  || (let v = Array.unsafe_get vals k and c = base + k in
      if Array.unsafe_get sc.sc_range c then begin
        let fv = Int64.logxor v Int64.min_int in
        Int64.compare (Array.unsafe_get sc.sc_lo c) fv <= 0
        && Int64.compare fv (Array.unsafe_get sc.sc_hi c) <= 0
      end
      else Int64.equal (Int64.logand v (Array.unsafe_get sc.sc_hi c)) (Array.unsafe_get sc.sc_lo c))
     && scan_cells sc vals base (k + 1)

let rec scan_from sc (vals : int64 array) i =
  if i >= Array.length sc.sc_ent then None
  else if scan_cells sc vals (i * sc.sc_nk) 0 then Array.unsafe_get sc.sc_ent i
  else scan_from sc vals (i + 1)

(* --- engine construction --- *)

let raw_insert t (e : P4ir.Table.entry) =
  match t.backend with
  | Exact_hash ex ->
    let masked = Array.of_list (entry_values e) in
    if
      hash_insert
        ~masked:(fun s -> s.masked)
        ~priority:(fun s -> s.entry.priority)
        ex.etbl (hash_exact masked) { masked; entry = e }
    then ex.ecount <- ex.ecount + 1;
    ex.eidx <- None
  | Cache_lru c -> ignore (cache_put c (exact_values e.patterns) e)
  | Linear l ->
    l.lentries <- l.lentries @ [ e ];
    l.lcount <- l.lcount + 1;
    l.lscan <- None
  | Shaped s -> shaped_insert s t.table e

let create ?(hint = Auto) (tab : P4ir.Table.t) =
  let backend =
    match tab.role with
    | P4ir.Table.Cache meta when all_exact tab -> Cache_lru (cache_make (max 1 meta.capacity))
    | _ when has_range tab ->
      Linear { lentries = tab.entries; lcount = List.length tab.entries; lscan = None }
    | _ when all_exact tab ->
      Exact_hash
        { etbl = Hashtbl.create (max 64 (List.length tab.entries)); ecount = 0; eidx = None }
    | _ ->
      let lpm_ordered =
        P4ir.Match_kind.equal (P4ir.Table.effective_kind tab) P4ir.Match_kind.Lpm
      in
      Shaped
        { groups = [||];
          ngroups = 0;
          lpm_ordered;
          nentries = 0;
          plan = P_none;
          plan_stale = true }
  in
  let nkeys = List.length tab.keys in
  let tokens =
    (* Cache fill buckets start full: a freshly deployed cache may warm at
       up to one second's insertion allowance immediately. *)
    match tab.role with P4ir.Table.Cache meta -> meta.insert_limit | _ -> 0.
  in
  let t =
    { table = tab;
      fields = Array.of_list (key_fields tab);
      scratch = Array.make (max 1 nkeys) 0L;
      backend;
      hint;
      updates = 0;
      last_acc = 1;
      tokens;
      token_time = 0.;
      fills = 0;
      evictions = 0;
      limited = 0 }
  in
  (match backend with
   | Exact_hash _ | Cache_lru _ | Shaped _ -> List.iter (raw_insert t) tab.entries
   | Linear _ -> ());
  t

(* Fill the reusable key buffer with the packet's key-field values. *)
let read_values t pkt =
  for i = 0 to Array.length t.fields - 1 do
    t.scratch.(i) <- Packet.get pkt (Array.unsafe_get t.fields i)
  done;
  t.scratch

(* Longest-prefix groups first; the first hit is the answer. *)
let rec lpm_probe_from t s vals i =
  if i >= s.ngroups then begin
    t.last_acc <- max 1 s.ngroups;
    None
  end
  else
    match group_probe (Array.unsafe_get s.groups i) vals with
    | Some _ as r ->
      t.last_acc <- i + 1;
      r
    | None -> lpm_probe_from t s vals (i + 1)

(* Ternary: the model probes every mask group; highest priority wins.
   [skip] elides hash probes that cannot change the winner (the group's
   max priority does not beat the current best) — the reported access
   count still charges every group, as the hardware would. *)
let rec ternary_probe_from ~skip s vals i (best : P4ir.Table.entry option) =
  if i >= s.ngroups then best
  else begin
    let g = Array.unsafe_get s.groups i in
    let best =
      match best with
      | Some b when skip && b.priority >= g.max_priority -> best
      | _ -> (
        match group_probe g vals with
        | Some e as r -> (
          match best with Some b when b.priority >= e.priority -> best | _ -> r)
        | None -> best)
    in
    ternary_probe_from ~skip s vals (i + 1) best
  end

(* The straight probe; the access count goes to [t.last_acc]. *)
let straight_probe ~skip t s vals =
  if s.lpm_ordered then lpm_probe_from t s vals 0
  else begin
    t.last_acc <- max 1 s.ngroups;
    ternary_probe_from ~skip s vals 0 None
  end

let shaped_probe t s pkt =
  if s.plan_stale then select_plan t s;
  match s.plan with
  | P_learned l -> learned_find t l (Packet.get pkt (Array.unsafe_get t.fields 0))
  | P_tree tr ->
    let vals = read_values t pkt in
    t.last_acc <- tr.t_acc;
    tree_descend tr vals 0
  | P_none -> straight_probe ~skip:true t s (read_values t pkt)

(* --- compiled exact-probe index --- *)

let build_xindex (ex : exact_store) =
  let cap = index_size ex.ecount in
  let idx =
    { xmask = cap - 1; xhash = Array.make cap 0; xvals = Array.make cap [||]; xent = Array.make cap None }
  in
  Hashtbl.iter
    (fun h bucket ->
      List.iter
        (fun (s : slot) ->
          let rec place j =
            match idx.xent.(j) with
            | Some _ -> place ((j + 1) land idx.xmask)
            | None ->
              idx.xhash.(j) <- h;
              idx.xvals.(j) <- s.masked;
              idx.xent.(j) <- Some s.entry
          in
          place (h land idx.xmask))
        bucket)
    ex.etbl;
  ex.eidx <- Some idx;
  idx

(* The probe answers exactly what the hash store's lookup answers (same
   mixing hash, same full-key disambiguation, same physical entries).
   Occupancy is the entry option itself — [hash_exact] ranges over the
   whole native int (bit 62 lands in the sign bit), so no integer
   sentinel is safe — and a hit returns the slot's preallocated [Some]. *)
(* The probe loops are top-level recursive functions, not local [rec go]
   closures: a local closure captures its free variables, which is a
   fresh block on every probe — the compiled walk's only allocation. *)
let rec xfind_from idx (vals : int64 array) h j =
  match Array.unsafe_get idx.xent j with
  | None -> None
  | Some _ as r ->
    if Array.unsafe_get idx.xhash j = h && arrays_equal (Array.unsafe_get idx.xvals j) vals
    then r
    else xfind_from idx vals h ((j + 1) land idx.xmask)

let xindex_find idx (vals : int64 array) h = xfind_from idx vals h (h land idx.xmask)

(* Single-key probe: no scratch fill, no array loop — one field read,
   one inlined mix, one indexed compare. *)
let rec xfind1_from idx (v : int64) h j =
  match Array.unsafe_get idx.xent j with
  | None -> None
  | Some _ as r ->
    if
      Array.unsafe_get idx.xhash j = h
      && Int64.equal (Array.unsafe_get (Array.unsafe_get idx.xvals j) 0) v
    then r
    else xfind1_from idx v h ((j + 1) land idx.xmask)

let xindex_find1 idx (v : int64) =
  let h = hash_exact1 v in
  xfind1_from idx v h (h land idx.xmask)

(* --- the probe --- *)

let probe t pkt =
  match t.backend with
  | Exact_hash ex ->
    t.last_acc <- 1;
    let idx = match ex.eidx with Some idx -> idx | None -> build_xindex ex in
    if Array.length t.fields = 1 then
      xindex_find1 idx (Packet.get pkt (Array.unsafe_get t.fields 0))
    else begin
      let vals = read_values t pkt in
      xindex_find idx vals (hash_exact vals)
    end
  | Cache_lru c ->
    t.last_acc <- 1;
    let n =
      if Array.length t.fields = 1 then begin
        let v = Packet.get pkt (Array.unsafe_get t.fields 0) in
        let h = hash_exact1 v in
        cfind1 c v h (h land (Array.length c.cidx - 1))
      end
      else begin
        let vals = read_values t pkt in
        let h = hash_exact vals in
        cfind c vals h (h land (Array.length c.cidx - 1))
      end
    in
    if n < 0 then None
    else begin
      cache_touch c n;
      Array.unsafe_get c.cent n
    end
  | Linear l ->
    let sc = match l.lscan with Some sc -> sc | None -> build_scan t l in
    t.last_acc <- sc.sc_acc;
    scan_from sc (read_values t pkt) 0
  | Shaped s -> shaped_probe t s pkt

let last_accesses t = t.last_acc
let cache_counts t = (t.fills, t.evictions, t.limited)

let plan_kind t =
  match t.backend with
  | Exact_hash _ -> "exact-hash"
  | Cache_lru _ -> "exact-lru"
  | Linear _ -> "linear"
  | Shaped s ->
    if s.plan_stale then select_plan t s;
    (match s.plan with
     | P_learned _ -> "learned"
     | P_tree _ -> "tree"
     | P_none -> if s.lpm_ordered then "lpm-linear" else "ternary-skip")

let lookup_linear t pkt =
  match t.backend with
  | Exact_hash ex ->
    let vals = read_values t pkt in
    let res =
      match Hashtbl.find_opt ex.etbl (hash_exact vals) with
      | None -> None
      | Some bucket -> (
        match exact_bucket_find vals bucket with
        | Some slot -> Some slot.entry
        | None -> None)
    in
    (res, 1)
  | Linear l ->
    let tab = { t.table with P4ir.Table.entries = l.lentries } in
    (P4ir.Table.lookup tab (Packet.get pkt), max 1 l.lcount)
  | Shaped s ->
    let r = straight_probe ~skip:false t s (read_values t pkt) in
    (r, t.last_acc)
  | Cache_lru _ ->
    let r = probe t pkt in
    (r, t.last_acc)

let validate_entry t e =
  (* Reuse Table.make's validation by round-tripping through add_entry. *)
  ignore (P4ir.Table.add_entry { t.table with P4ir.Table.entries = [] } e)

let insert t e =
  validate_entry t e;
  raw_insert t e;
  t.updates <- t.updates + 1

let delete t ~patterns =
  let matches (e : P4ir.Table.entry) = List.for_all2 P4ir.Pattern.equal e.patterns patterns in
  let removed = ref false in
  (match t.backend with
   | Exact_hash ex ->
     let vals = exact_values patterns in
     let key = hash_exact vals in
     (match Hashtbl.find_opt ex.etbl key with
      | Some bucket ->
        let survivors = List.filter (fun s -> not (exact_slot_matches vals s)) bucket in
        let gone = List.length bucket - List.length survivors in
        if gone > 0 then begin
          removed := true;
          ex.ecount <- ex.ecount - gone;
          ex.eidx <- None;
          if survivors = [] then Hashtbl.remove ex.etbl key
          else Hashtbl.replace ex.etbl key survivors
        end
      | None -> ())
   | Cache_lru c ->
     let vals = exact_values patterns in
     let h = hash_exact vals in
     let n = cfind c vals h (h land (Array.length c.cidx - 1)) in
     if n >= 0 then begin
       cache_remove c n;
       removed := true
     end
   | Linear l ->
     let survivors = List.filter (fun e -> not (matches e)) l.lentries in
     let n = List.length survivors in
     if n < l.lcount then begin
       removed := true;
       l.lentries <- survivors;
       l.lcount <- n;
       l.lscan <- None
     end
   | Shaped s ->
     for i = 0 to s.ngroups - 1 do
       let g = s.groups.(i) in
       let victims =
         Hashtbl.fold
           (fun k bucket acc ->
             if List.exists (fun s0 -> matches s0.gentry) bucket then (k, bucket) :: acc
             else acc)
           g.tbl []
       in
       List.iter
         (fun (k, bucket) ->
           removed := true;
           let survivors = List.filter (fun s0 -> not (matches s0.gentry)) bucket in
           s.nentries <- s.nentries - (List.length bucket - List.length survivors);
           if survivors = [] then Hashtbl.remove g.tbl k else Hashtbl.replace g.tbl k survivors)
         victims
     done;
     (* Emptied groups stay in place: the modeled hardware still probes
        their hash table, so the access count must keep charging them. *)
     if !removed then invalidate_plan s);
  if !removed then t.updates <- t.updates + 1;
  !removed

(* Drop every entry, back to the initial empty store. *)
let invalidate t =
  match t.backend with
  | Exact_hash ex ->
    Hashtbl.reset ex.etbl;
    ex.ecount <- 0;
    ex.eidx <- None
  | Cache_lru c -> cache_reset c
  | Linear l ->
    l.lentries <- [];
    l.lcount <- 0;
    l.lscan <- None
  | Shaped s ->
    s.groups <- [||];
    s.ngroups <- 0;
    s.nentries <- 0;
    invalidate_plan s

let load_entries t new_entries =
  List.iter (validate_entry t) new_entries;
  invalidate t;
  match t.backend with
  | Linear l ->
    l.lentries <- new_entries;
    l.lcount <- List.length new_entries
  | Exact_hash _ | Cache_lru _ | Shaped _ -> List.iter (raw_insert t) new_entries

let replace_all t new_entries =
  load_entries t new_entries;
  t.updates <- t.updates + List.length new_entries

let entries t =
  match t.backend with
  | Exact_hash ex ->
    Hashtbl.fold (fun _ bucket acc -> List.map (fun s -> s.entry) bucket @ acc) ex.etbl []
  | Cache_lru c -> cache_entries c
  | Linear l -> l.lentries
  | Shaped s ->
    let acc = ref [] in
    for i = 0 to s.ngroups - 1 do
      Hashtbl.iter
        (fun _ bucket -> List.iter (fun s0 -> acc := s0.gentry :: !acc) bucket)
        s.groups.(i).tbl
    done;
    !acc

let num_entries t =
  match t.backend with
  | Exact_hash ex -> ex.ecount
  | Cache_lru c -> c.clen
  | Linear l -> l.lcount
  | Shaped s -> s.nentries

let take_update_count t =
  let n = t.updates in
  t.updates <- 0;
  n

let copy t =
  let copy_group (g : group) = { g with tbl = Hashtbl.copy g.tbl } in
  let backend =
    match t.backend with
    | Exact_hash ex -> Exact_hash { etbl = Hashtbl.copy ex.etbl; ecount = ex.ecount; eidx = None }
    | Cache_lru c -> Cache_lru (cache_copy c)
    | Linear l -> Linear { lentries = l.lentries; lcount = l.lcount; lscan = l.lscan }
    | Shaped s ->
      Shaped
        { groups = Array.init s.ngroups (fun i -> copy_group s.groups.(i));
          ngroups = s.ngroups;
          lpm_ordered = s.lpm_ordered;
          nentries = s.nentries;
          plan = P_none;
          plan_stale = true }
  in
  { t with backend; scratch = Array.copy t.scratch }

let cache_fill t ~now e =
  match (t.table.role, t.backend) with
  | P4ir.Table.Cache meta, Cache_lru c ->
    (* Token bucket: [insert_limit] tokens/sec, burst of one second. *)
    let limit = meta.insert_limit in
    if limit > 0. then begin
      let elapsed = Float.max 0. (now -. t.token_time) in
      t.tokens <- Float.min limit (t.tokens +. (elapsed *. limit));
      t.token_time <- now
    end
    else t.tokens <- 1.;
    if limit > 0. && t.tokens < 1. then begin
      t.limited <- t.limited + 1;
      `Rate_limited
    end
    else begin
      if limit > 0. then t.tokens <- t.tokens -. 1.;
      t.fills <- t.fills + 1;
      if cache_put c (exact_values e.P4ir.Table.patterns) e then begin
        t.evictions <- t.evictions + 1;
        `Full_replace
      end
      else `Inserted
    end
  | _ -> invalid_arg "Engine.cache_fill: not a cache table"
