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
   path free of the string keys the engine used to build per lookup. *)
type slot = {
  masked : int64 array;  (* one per key, already masked *)
  entry : P4ir.Table.entry;
}

type group = {
  shape : shape_elem array;
  masks : int64 array;  (* per-key mask, precomputed from the shape *)
  total_prefix : int;  (* for LPM ordering: longer prefixes probed first *)
  mutable max_priority : int;
  tbl : (int, slot list) Hashtbl.t;
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
  xkeyi : int array;
      (* Single-key slots only: the key as a tagged int, so a probe whose
         key is a nonnegative native int (burst-walk columns are masked
         to < 62 bits) resolves each slot with one int load instead of
         chasing [xvals]'s singleton-array indirection. -1 = empty slot,
         -2 = occupied but not representable (multi-key, negative, or
         >= 2^62 — values no such probe key can ever equal). *)
}

(* Read-only window onto a single-key exact index for the burst walk
   ({!Compile.run_burst}): the walk hashes a whole burst of keys first,
   touching the slot arrays as a software prefetch, then probes. The
   arrays alias the live [xindex], so a view is only valid as long as
   that index is — [exact_view] hands out a cached view tied to the
   current index and rebuilds both after any control-plane mutation. *)
type exact_view = {
  ev_mask : int;  (* capacity - 1, capacity a power of two *)
  ev_hash : int array;  (* per-slot mixing hash *)
  ev_vals : int64 array array;  (* per-slot key values (singleton arrays) *)
  ev_ent : P4ir.Table.entry option array;  (* occupancy: [Some] iff filled *)
  ev_keyi : int array;  (* per-slot tagged-int key; -1 empty, -2 unrepresentable *)
}

type exact_store = {
  etbl : (int, slot list) Hashtbl.t;
  mutable eidx : xindex option;  (* compiled probe index; None = stale *)
  mutable eview : exact_view option;  (* burst-walk view of [eidx] *)
}

type backend =
  | Exact_hash of exact_store
  | Exact_lru of P4ir.Table.entry Lru.t
  | Shaped of shaped
  | Linear of P4ir.Table.entry list ref

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

(* String keys survive only for the LRU cache store, whose map is keyed
   by strings; the hash engines use the allocation-free mixing hash. *)
let exact_key_of_entry (e : P4ir.Table.entry) =
  let buf = Buffer.create 32 in
  List.iter
    (fun p ->
      match p with
      | P4ir.Pattern.Exact v ->
        Buffer.add_int64_le buf v;
        Buffer.add_char buf '|'
      | _ -> invalid_arg "Engine: non-exact pattern in exact table")
    e.patterns;
  Buffer.contents buf

let exact_key_of_values values =
  let buf = Buffer.create 32 in
  Array.iter
    (fun v ->
      Buffer.add_int64_le buf v;
      Buffer.add_char buf '|')
    values;
  Buffer.contents buf

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

let arrays_equal (a : int64 array) (b : int64 array) =
  let n = Array.length a in
  n = Array.length b
  &&
  let rec go i = i >= n || (Int64.equal a.(i) b.(i) && go (i + 1)) in
  go 0

(* Does [slot] hold the masked projection of [vals]? *)
let slot_matches (masks : int64 array) (vals : int64 array) (s : slot) =
  let n = Array.length masks in
  let rec go i =
    i >= n
    || Int64.equal s.masked.(i) (Int64.logand vals.(i) masks.(i)) && go (i + 1)
  in
  go 0

let rec bucket_find masks vals = function
  | [] -> None
  | s :: rest -> if slot_matches masks vals s then Some s else bucket_find masks vals rest

let exact_slot_matches (vals : int64 array) (s : slot) = arrays_equal s.masked vals

let rec exact_bucket_find vals = function
  | [] -> None
  | s :: rest -> if exact_slot_matches vals s then Some s else exact_bucket_find vals rest

(* Two entries with the same masked key collapse to one slot; keep the
   one the reference list scan would pick — higher priority, ties to the
   earlier insertion. (Same shape means same masks, so specificity cannot
   break the tie either.) *)
let bucket_keep bucket (slot : slot) =
  let rec go acc = function
    | [] -> slot :: bucket
    | (s : slot) :: rest ->
      if arrays_equal s.masked slot.masked then
        if s.entry.priority >= slot.entry.priority then bucket
        else List.rev_append acc (slot :: rest)
      else go (s :: acc) rest
  in
  go [] bucket

(* True iff the store grew (the slot's masked key was new): collapsing
   onto an existing slot keeps the live-entry count unchanged. *)
let hash_insert tbl key slot =
  let bucket = match Hashtbl.find_opt tbl key with Some b -> b | None -> [] in
  let bucket' = bucket_keep bucket slot in
  Hashtbl.replace tbl key bucket';
  List.length bucket' > List.length bucket

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
  if hash_insert g.tbl (hash_masked masked g.masks) { masked; entry = e } then
    s.nentries <- s.nentries + 1;
  invalidate_plan s

let group_probe (g : group) vals =
  match Hashtbl.find_opt g.tbl (hash_masked vals g.masks) with
  | None -> None
  | Some bucket -> bucket_find g.masks vals bucket

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
          (fun (s0 : slot) ->
            let k = !nit in
            it_lo.(k) <- s0.masked.(0);
            it_hi.(k) <- Int64.add s0.masked.(0) span;
            it_len.(k) <- len;
            it_ent.(k) <- Some s0.entry;
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
          (fun (s0 : slot) ->
            let k = !na in
            a_masked.(k) <- s0.masked;
            a_rank.(k) <- i;
            a_ent.(k) <- Some s0.entry;
            a_prio.(k) <- s0.entry.priority;
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
   values matches. Top-level recursion keeps the probe allocation-free. *)
let rec tree_cand_match (cm : int64 array) (masks : int64 array) (vals : int64 array) k nk =
  k >= nk
  || Int64.equal (Array.unsafe_get cm k)
       (Int64.logand (Array.unsafe_get vals k) (Array.unsafe_get masks k))
     && tree_cand_match cm masks vals (k + 1) nk

let rec tree_scan (tr : tree) (vals : int64 array) i stop =
  if i >= stop then None
  else begin
    let masks = tr.t_masks.(Array.unsafe_get tr.c_rank i) in
    if tree_cand_match (Array.unsafe_get tr.c_masked i) masks vals 0 (Array.length masks) then
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

(* --- engine construction --- *)

let raw_insert t (e : P4ir.Table.entry) =
  match t.backend with
  | Exact_hash ex ->
    let masked = Array.of_list (entry_values e) in
    ignore (hash_insert ex.etbl (hash_exact masked) { masked; entry = e });
    ex.eidx <- None
  | Exact_lru lru -> ignore (Lru.put lru (exact_key_of_entry e) e)
  | Linear entries -> entries := !entries @ [ e ]
  | Shaped s -> shaped_insert s t.table e

let create ?(hint = Auto) (tab : P4ir.Table.t) =
  let backend =
    match tab.role with
    | P4ir.Table.Cache meta when all_exact tab ->
      let lru = Lru.create ~capacity:(max 1 meta.capacity) in
      List.iter (fun e -> ignore (Lru.put lru (exact_key_of_entry e) e)) tab.entries;
      Exact_lru lru
    | _ when has_range tab -> Linear (ref tab.entries)
    | _ when all_exact tab ->
      Exact_hash
        { etbl = Hashtbl.create (max 64 (List.length tab.entries)); eidx = None; eview = None }
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
      token_time = 0. }
  in
  (match backend with
   | Exact_hash _ | Shaped _ -> List.iter (raw_insert t) tab.entries
   | Exact_lru _ | Linear _ -> ());
  t

(* Fill the reusable key buffer with the packet's key-field values. *)
let read_values t pkt =
  for i = 0 to Array.length t.fields - 1 do
    t.scratch.(i) <- Packet.get pkt (Array.unsafe_get t.fields i)
  done;
  t.scratch

let linear_lookup t entries pkt =
  let read f = Packet.get pkt f in
  let tab = { t.table with P4ir.Table.entries } in
  (P4ir.Table.lookup tab read, max 1 (List.length entries))

(* Longest-prefix groups first; the first hit is the answer. *)
let lpm_linear_probe s vals =
  let rec probe i =
    if i >= s.ngroups then (None, max 1 s.ngroups)
    else
      let g = s.groups.(i) in
      match group_probe g vals with
      | Some slot -> (Some slot.entry, i + 1)
      | None -> probe (i + 1)
  in
  probe 0

(* Ternary: the model probes every mask group; highest priority wins.
   [skip] elides hash probes that cannot change the winner (the group's
   max priority does not beat the current best) — the reported access
   count still charges every group, as the hardware would. *)
let ternary_probe ~skip s vals =
  let best = ref None in
  for i = 0 to s.ngroups - 1 do
    let g = s.groups.(i) in
    let skippable =
      skip
      && match !best with
         | Some (b : P4ir.Table.entry) -> b.priority >= g.max_priority
         | None -> false
    in
    if not skippable then
      match group_probe g vals with
      | Some slot -> (
        match !best with
        | Some (b : P4ir.Table.entry) when b.priority >= slot.entry.priority -> ()
        | _ -> best := Some slot.entry)
      | None -> ()
  done;
  (!best, max 1 s.ngroups)

(* One plan-directed probe. Leaves the access count in [t.last_acc]
   instead of returning a tuple: the learned and tree paths return a
   preallocated entry option, so the compiled walk stays allocation-free
   through here. *)
let shaped_probe t s pkt =
  if s.plan_stale then select_plan t s;
  match s.plan with
  | P_learned l -> learned_find t l (Packet.get pkt (Array.unsafe_get t.fields 0))
  | P_tree tr ->
    let vals = read_values t pkt in
    t.last_acc <- tr.t_acc;
    tree_descend tr vals 0
  | P_none ->
    let vals = read_values t pkt in
    let r, a =
      if s.lpm_ordered then lpm_linear_probe s vals else ternary_probe ~skip:true s vals
    in
    t.last_acc <- a;
    r

let shaped_lookup ~use_plan t s pkt =
  if use_plan then begin
    let r = shaped_probe t s pkt in
    (r, t.last_acc)
  end
  else begin
    let vals = read_values t pkt in
    if s.lpm_ordered then lpm_linear_probe s vals else ternary_probe ~skip:false s vals
  end

(* --- compiled exact-probe index --- *)

let build_xindex (ex : exact_store) =
  let n = Hashtbl.fold (fun _ bucket acc -> acc + List.length bucket) ex.etbl 0 in
  (* Load factor <= 1/2 keeps linear-probe chains short. *)
  let cap = ref 8 in
  while !cap < 2 * n do
    cap := !cap * 2
  done;
  let idx =
    { xmask = !cap - 1;
      xhash = Array.make !cap 0;
      xvals = Array.make !cap [||];
      xent = Array.make !cap None;
      xkeyi = Array.make !cap (-1) }
  in
  Hashtbl.iter
    (fun h bucket ->
      List.iter
        (fun (s : slot) ->
          let keyi =
            if Array.length s.masked = 1 then begin
              let v = s.masked.(0) in
              let i = Int64.to_int v in
              if i >= 0 && Int64.equal (Int64.of_int i) v then i else -2
            end
            else -2
          in
          let rec place j =
            match idx.xent.(j) with
            | Some _ -> place ((j + 1) land idx.xmask)
            | None ->
              idx.xhash.(j) <- h;
              idx.xvals.(j) <- s.masked;
              idx.xent.(j) <- Some s.entry;
              idx.xkeyi.(j) <- keyi
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

let exact_probe t =
  match t.backend with
  | Exact_hash ex ->
    Some
      (if Array.length t.fields = 1 then begin
         let field = t.fields.(0) in
         fun pkt ->
           let idx = match ex.eidx with Some idx -> idx | None -> build_xindex ex in
           xindex_find1 idx (Packet.get pkt field)
       end
       else
         fun pkt ->
           let idx = match ex.eidx with Some idx -> idx | None -> build_xindex ex in
           let vals = read_values t pkt in
           xindex_find idx vals (hash_exact vals))
  | Exact_lru _ | Shaped _ | Linear _ -> None

(* The view is cached on the store and keyed to the index it aliases by
   physical equality on the entry array, so steady-state bursts get it
   without allocating; any mutation clears [eidx] and the next call
   rebuilds index and view together. *)
let exact_view t =
  match t.backend with
  | Exact_hash ex when Array.length t.fields = 1 ->
    let idx = match ex.eidx with Some idx -> idx | None -> build_xindex ex in
    (match ex.eview with
     | Some v when v.ev_ent == idx.xent ->
       ex.eview (* the stored option itself: rebuilding [Some v] here
                   would allocate once per table per burst *)
     | _ ->
       let v =
         { ev_mask = idx.xmask;
           ev_hash = idx.xhash;
           ev_vals = idx.xvals;
           ev_ent = idx.xent;
           ev_keyi = idx.xkeyi }
       in
       ex.eview <- Some v;
       ex.eview)
  | Exact_hash _ | Exact_lru _ | Shaped _ | Linear _ -> None

let plan_probe t =
  match t.backend with
  | Shaped s -> Some (fun pkt -> shaped_probe t s pkt)
  | Exact_hash _ | Exact_lru _ | Linear _ -> None

let last_accesses t = t.last_acc

let plan_kind t =
  match t.backend with
  | Exact_hash _ -> "exact-hash"
  | Exact_lru _ -> "exact-lru"
  | Linear _ -> "linear"
  | Shaped s ->
    if s.plan_stale then select_plan t s;
    (match s.plan with
     | P_learned _ -> "learned"
     | P_tree _ -> "tree"
     | P_none -> if s.lpm_ordered then "lpm-linear" else "ternary-skip")

let plan_stats t =
  match t.backend with
  | Exact_hash _ | Exact_lru _ | Linear _ -> []
  | Shaped s ->
    if s.plan_stale then select_plan t s;
    (match s.plan with
     | P_learned l ->
       [ ("segments", Array.length l.seg_key);
         ("intervals", Array.length l.l_bounds);
         ("remainder", Array.length l.r_bounds) ]
     | P_tree tr ->
       [ ("tree_nodes", Array.length tr.tn / 3);
         ("tree_candidates", Array.length tr.c_ent);
         ("tree_max_leaf", tr.t_maxleaf) ]
     | P_none -> [])

let lookup_gen ~use_plan t pkt =
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
  | Exact_lru lru ->
    let vals = read_values t pkt in
    (Lru.find lru (exact_key_of_values vals), 1)
  | Linear entries -> linear_lookup t !entries pkt
  | Shaped s -> shaped_lookup ~use_plan t s pkt

let lookup t pkt = lookup_gen ~use_plan:true t pkt
let lookup_linear t pkt = lookup_gen ~use_plan:false t pkt

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
     let vals =
       Array.of_list
         (List.map
            (function
              | P4ir.Pattern.Exact v -> v
              | _ -> invalid_arg "Engine.delete: non-exact pattern for exact table")
            patterns)
     in
     let key = hash_exact vals in
     (match Hashtbl.find_opt ex.etbl key with
      | Some bucket ->
        let survivors = List.filter (fun s -> not (exact_slot_matches vals s)) bucket in
        if List.length survivors < List.length bucket then begin
          removed := true;
          ex.eidx <- None;
          if survivors = [] then Hashtbl.remove ex.etbl key
          else Hashtbl.replace ex.etbl key survivors
        end
      | None -> ())
   | Exact_lru lru ->
     let key =
       exact_key_of_values
         (Array.of_list
            (List.map
               (function
                 | P4ir.Pattern.Exact v -> v
                 | _ -> invalid_arg "Engine.delete: non-exact pattern for exact table")
               patterns))
     in
     if Lru.mem lru key then begin
       Lru.remove lru key;
       removed := true
     end
   | Linear entries ->
     let before = List.length !entries in
     entries := List.filter (fun e -> not (matches e)) !entries;
     removed := List.length !entries < before
   | Shaped s ->
     for i = 0 to s.ngroups - 1 do
       let g = s.groups.(i) in
       let victims =
         Hashtbl.fold
           (fun k bucket acc ->
             if List.exists (fun (s0 : slot) -> matches s0.entry) bucket then (k, bucket) :: acc
             else acc)
           g.tbl []
       in
       List.iter
         (fun (k, bucket) ->
           removed := true;
           let survivors = List.filter (fun (s0 : slot) -> not (matches s0.entry)) bucket in
           s.nentries <- s.nentries - (List.length bucket - List.length survivors);
           if survivors = [] then Hashtbl.remove g.tbl k else Hashtbl.replace g.tbl k survivors)
         victims
     done;
     (* Emptied groups stay in place: the modeled hardware still probes
        their hash table, so the access count must keep charging them. *)
     if !removed then invalidate_plan s);
  if !removed then t.updates <- t.updates + 1;
  !removed

let load_entries t new_entries =
  List.iter (validate_entry t) new_entries;
  match t.backend with
  | Exact_hash ex ->
    Hashtbl.reset ex.etbl;
    ex.eidx <- None;
    List.iter (raw_insert t) new_entries
  | Exact_lru lru ->
    Lru.clear lru;
    List.iter (fun e -> ignore (Lru.put lru (exact_key_of_entry e) e)) new_entries
  | Linear entries -> entries := new_entries
  | Shaped s ->
    s.groups <- [||];
    s.ngroups <- 0;
    s.nentries <- 0;
    invalidate_plan s;
    List.iter (fun e -> shaped_insert s t.table e) new_entries

let replace_all t new_entries =
  load_entries t new_entries;
  t.updates <- t.updates + List.length new_entries

let entries t =
  match t.backend with
  | Exact_hash ex ->
    Hashtbl.fold (fun _ bucket acc -> List.map (fun s -> s.entry) bucket @ acc) ex.etbl []
  | Exact_lru lru ->
    let acc = ref [] in
    Lru.iter (fun _ e -> acc := e :: !acc) lru;
    !acc
  | Linear entries -> !entries
  | Shaped s ->
    let acc = ref [] in
    for i = 0 to s.ngroups - 1 do
      Hashtbl.iter
        (fun _ bucket -> List.iter (fun (s0 : slot) -> acc := s0.entry :: !acc) bucket)
        s.groups.(i).tbl
    done;
    !acc

let num_entries t =
  match t.backend with
  | Shaped s -> s.nentries  (* tracked exactly; avoids building the list *)
  | Exact_hash _ | Exact_lru _ | Linear _ -> List.length (entries t)

let shape_groups t =
  match t.backend with Shaped s -> s.ngroups | Exact_hash _ | Exact_lru _ | Linear _ -> 0

let update_count t = t.updates

let take_update_count t =
  let n = t.updates in
  t.updates <- 0;
  n

let copy t =
  let copy_group (g : group) = { g with tbl = Hashtbl.copy g.tbl } in
  let backend =
    match t.backend with
    | Exact_hash ex -> Exact_hash { etbl = Hashtbl.copy ex.etbl; eidx = None; eview = None }
    | Exact_lru lru -> Exact_lru (Lru.copy lru)
    | Linear entries -> Linear (ref !entries)
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
  | P4ir.Table.Cache meta, Exact_lru lru ->
    (* Token bucket: [insert_limit] tokens/sec, burst of one second. *)
    let limit = meta.insert_limit in
    if limit > 0. then begin
      let elapsed = Float.max 0. (now -. t.token_time) in
      t.tokens <- Float.min limit (t.tokens +. (elapsed *. limit));
      t.token_time <- now
    end
    else t.tokens <- 1.;
    if limit > 0. && t.tokens < 1. then `Rate_limited
    else begin
      if limit > 0. then t.tokens <- t.tokens -. 1.;
      match Lru.put lru (exact_key_of_entry e) e with
      | Some _ -> `Full_replace
      | None -> `Inserted
    end
  | _ -> invalid_arg "Engine.cache_fill: not a cache table"

let invalidate t =
  match t.backend with
  | Exact_lru lru -> Lru.clear lru
  | Exact_hash ex ->
    Hashtbl.reset ex.etbl;
    ex.eidx <- None
  | Linear entries -> entries := []
  | Shaped s ->
    s.groups <- [||];
    s.ngroups <- 0;
    s.nentries <- 0;
    invalidate_plan s
