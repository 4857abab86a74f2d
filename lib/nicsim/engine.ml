(* Per-key "shape": which bits of the field participate in the hash.
   Entries sharing a shape live in the same hash table; the number of
   distinct shapes is the paper's [m]. An exact table is the one-shape
   case: every key [S_exact]. *)
type shape_elem =
  | S_exact
  | S_prefix of int  (* LPM prefix length *)
  | S_mask of int64  (* ternary mask *)

(* One shape group: an open-addressed hash table (linear probing over
   the mixing hash, load factor at most 1/2, doubled when full) of its
   entries' masked keys. Each slot holds the masked key, its hash and
   the preallocated [Some entry] the probe returns, so a probe allocates
   nothing. Inserts and deletes update the slots in place; a delete
   shifts the rest of its probe run back, so there are no tombstones and
   nothing is ever rebuilt. *)
type group = {
  shape : shape_elem array;
  masks : int64 array;  (* per-key mask, precomputed from the shape *)
  exact : bool;  (* every key exact: a packet value, already truncated to its field, needs no mask *)
  total_prefix : int;  (* for LPM ordering: longer prefixes probed first *)
  mutable max_priority : int;
  mutable gcount : int;  (* live slots *)
  mutable ghash : int array;  (* per slot: mixing hash of the masked key *)
  mutable gkeys : int64 array array;  (* per slot: masked key values *)
  mutable gent : P4ir.Table.entry option array;  (* per slot: [Some entry]; None = empty *)
}

type shaped = {
  mutable groups : group array;  (* only the first [ngroups] are live *)
  mutable ngroups : int;
  lpm_ordered : bool;
  mutable nentries : int;  (* live slots across all groups, tracked exactly *)
}

(* Flow-cache store (§3.2.2): the shape groups' mixing hash over key
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
  | Cache_lru of cache_store
  | Shaped of shaped
  | Linear of linear

type t = {
  table : P4ir.Table.t;
  fields : P4ir.Field.t array;  (* key fields, in key order *)
  scratch : int64 array;  (* reusable per-lookup key-value buffer *)
  backend : backend;
  mutable updates : int;
  mutable last_acc : int;  (* accesses of the most recent probe *)
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

(* Open-addressing slots for [n] keys: a power of two keeping the load
   factor at most 1/2, so linear-probe chains stay short. *)
let index_size n =
  let s = ref 8 in
  while !s < 2 * n do
    s := 2 * !s
  done;
  !s

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

let pattern_values (patterns : P4ir.Pattern.t list) =
  Array.of_list
    (List.map
       (fun (p : P4ir.Pattern.t) ->
         match p with
         | P4ir.Pattern.Exact v | P4ir.Pattern.Lpm (v, _) | P4ir.Pattern.Ternary (v, _) -> v
         | P4ir.Pattern.Range (lo, _) -> lo)
       patterns)

let shape_of_patterns (tab : P4ir.Table.t) patterns =
  Array.of_list (List.map2 shape_of_pattern tab.keys patterns)

let total_prefix_of_shape shape =
  Array.fold_left
    (fun acc s ->
      acc + match s with S_exact -> 64 | S_prefix len -> len | S_mask _ -> 0)
    0 shape

let masks_of_shape (tab : P4ir.Table.t) shape =
  let keys = Array.of_list tab.keys in
  Array.mapi (fun i s -> mask_of_shape keys.(i) s) shape

(* --- one shape group's index --- *)

(* The slot of a group's index holding masked key [key] (hash [h]), or
   the empty slot ending its probe run, probing from slot [j]. The
   group's [gent] at that slot is the probe's answer: [Some entry] on a
   hit, [None] on a miss. Occupancy is the entry option itself, since
   the mixing hash ranges over the whole native int and no integer
   sentinel is safe. The walks are top-level recursions, not local
   closures, so a probe allocates nothing. *)
let rec gslot g (key : int64 array) h j =
  match Array.unsafe_get g.gent j with
  | None -> j
  | Some _ ->
    if
      Array.unsafe_get g.ghash j = h
      && arrays_equal_from (Array.unsafe_get g.gkeys j) key 0 (Array.length key)
    then j
    else gslot g key h ((j + 1) land (Array.length g.gent - 1))

(* [gslot] for packet values [vals] of a group with a non-exact key:
   each value is masked as it is compared. *)
let rec gslot_masked g (vals : int64 array) h j =
  match Array.unsafe_get g.gent j with
  | None -> j
  | Some _ ->
    if
      Array.unsafe_get g.ghash j = h
      && masked_match (Array.unsafe_get g.gkeys j) g.masks vals 0 (Array.length g.masks)
    then j
    else gslot_masked g vals h ((j + 1) land (Array.length g.gent - 1))

(* Single-key forms: no scratch fill, no array loop — one field read,
   one inlined mix, one indexed compare ([v land m] for a masked key).
   The exact one, the probe of every single-key exact table, returns
   the slot's entry option itself rather than its index, which
   measured ~2 ns faster per lookup. *)
let rec gfind1 g (v : int64) h j =
  match Array.unsafe_get g.gent j with
  | None -> None
  | Some _ as r ->
    if
      Array.unsafe_get g.ghash j = h
      && Int64.equal (Array.unsafe_get (Array.unsafe_get g.gkeys j) 0) v
    then r
    else gfind1 g v h ((j + 1) land (Array.length g.gent - 1))

let rec gslot1_masked g (v : int64) (m : int64) h j =
  match Array.unsafe_get g.gent j with
  | None -> j
  | Some _ ->
    if
      Array.unsafe_get g.ghash j = h
      && Int64.equal (Array.unsafe_get (Array.unsafe_get g.gkeys j) 0) (Int64.logand v m)
    then j
    else gslot1_masked g v m h ((j + 1) land (Array.length g.gent - 1))

(* The group's entry for a packet: [v] is the key value of a single-key
   group, [vals] the key values of a wider one. An exact group's hash of
   the packet values is its hash of the masked key, since a packet value
   is already truncated to its field; any other group masks first. *)
let[@inline] group_probe g (vals : int64 array) (v : int64) =
  let m = Array.length g.gent - 1 in
  let single = Array.length g.masks = 1 in
  if single && g.exact then begin
    let h = hash_exact1 v in
    gfind1 g v h (h land m)
  end
  else begin
    let j =
      if single then begin
        let mask = Array.unsafe_get g.masks 0 in
        let h = hash_exact1 (Int64.logand v mask) in
        gslot1_masked g v mask h (h land m)
      end
      else if g.exact then begin
        let h = hash_exact vals in
        gslot g vals h (h land m)
      end
      else begin
        let h = hash_masked vals g.masks in
        gslot_masked g vals h (h land m)
      end
    in
    Array.unsafe_get g.gent j
  end

let gplace g key h e =
  let j = gslot g key h (h land (Array.length g.gent - 1)) in
  g.ghash.(j) <- h;
  g.gkeys.(j) <- key;
  g.gent.(j) <- e

(* The masked key of [patterns] in group [g], its hash and its slot. *)
let key_slot g patterns =
  let key = Array.mapi (fun i v -> Int64.logand v g.masks.(i)) (pattern_values patterns) in
  let h = hash_exact key in
  (key, h, gslot g key h (h land (Array.length g.gent - 1)))

(* Double the index, re-placing every live slot. *)
let ggrow g =
  let hashes = g.ghash and keys = g.gkeys and ents = g.gent in
  let n = 2 * Array.length ents in
  g.ghash <- Array.make n 0;
  g.gkeys <- Array.make n [||];
  g.gent <- Array.make n None;
  Array.iteri (fun j e -> if Option.is_some e then gplace g keys.(j) hashes.(j) e) ents

(* Backward-shift delete: walk the probe run after the hole and pull
   back every slot whose home slot lies at or before the hole, so the
   index never needs tombstones. *)
let rec gshift g hole k =
  let m = Array.length g.gent - 1 in
  if Option.is_some g.gent.(k) then
    if (k - (g.ghash.(k) land m)) land m >= (k - hole) land m then begin
      g.ghash.(hole) <- g.ghash.(k);
      g.gkeys.(hole) <- g.gkeys.(k);
      g.gent.(hole) <- g.gent.(k);
      g.gkeys.(k) <- [||];
      g.gent.(k) <- None;
      gshift g k ((k + 1) land m)
    end
    else gshift g hole ((k + 1) land m)

(* --- shaped group array management --- *)

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

(* Two entries with the same masked key collapse to one slot; keep the
   one the reference list scan would pick — higher priority, ties to the
   earlier insertion. (Same shape means same masks, so specificity cannot
   break the tie either.) Collapsing onto a live slot keeps the
   live-entry count unchanged. *)
let shaped_insert s (tab : P4ir.Table.t) (e : P4ir.Table.entry) =
  let shape = shape_of_patterns tab e.patterns in
  let g =
    match find_group s shape with
    | Some g ->
      g.max_priority <- max g.max_priority e.priority;
      g
    | None ->
      let n = index_size 0 in
      let g =
        { shape;
          masks = masks_of_shape tab shape;
          exact = Array.for_all (fun k -> k = S_exact) shape;
          total_prefix = total_prefix_of_shape shape;
          max_priority = e.priority;
          gcount = 0;
          ghash = Array.make n 0;
          gkeys = Array.make n [||];
          gent = Array.make n None }
      in
      add_group s g;
      g
  in
  let key, h, j = key_slot g e.patterns in
  match g.gent.(j) with
  | Some (old : P4ir.Table.entry) -> if old.priority < e.priority then g.gent.(j) <- Some e
  | None ->
    if 2 * (g.gcount + 1) > Array.length g.gent then ggrow g;
    gplace g key h (Some e);
    g.gcount <- g.gcount + 1;
    s.nentries <- s.nentries + 1

(* Remove the entry whose patterns are [patterns] exactly: it lives in
   the group of their shape, at the slot of their masked key. A range
   pattern has no shape and matches no entry of a shaped table. An
   emptied group stays in place: the modeled hardware still probes its
   hash table, so the access count must keep charging it. *)
let shaped_delete s (tab : P4ir.Table.t) patterns =
  let has_range = List.exists (function P4ir.Pattern.Range _ -> true | _ -> false) patterns in
  match if has_range then None else find_group s (shape_of_patterns tab patterns) with
  | None -> false
  | Some g -> (
    let _, _, j = key_slot g patterns in
    match g.gent.(j) with
    | Some (e : P4ir.Table.entry) when List.for_all2 P4ir.Pattern.equal e.patterns patterns ->
      g.gkeys.(j) <- [||];
      g.gent.(j) <- None;
      gshift g j ((j + 1) land (Array.length g.gent - 1));
      g.gcount <- g.gcount - 1;
      s.nentries <- s.nentries - 1;
      true
    | _ -> false)

(* --- flow-cache store --- *)

let cache_initial_nodes = 8

(* Back to the initial small arrays. *)
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
  | Cache_lru c -> ignore (cache_put c (exact_values e.patterns) e)
  | Linear l ->
    l.lentries <- l.lentries @ [ e ];
    l.lcount <- l.lcount + 1;
    l.lscan <- None
  | Shaped s -> shaped_insert s t.table e

let create (tab : P4ir.Table.t) =
  let backend =
    match tab.role with
    | P4ir.Table.Cache meta when all_exact tab -> Cache_lru (cache_make (max 1 meta.capacity))
    | _ when has_range tab ->
      Linear { lentries = tab.entries; lcount = List.length tab.entries; lscan = None }
    | _ ->
      let lpm_ordered =
        P4ir.Match_kind.equal (P4ir.Table.effective_kind tab) P4ir.Match_kind.Lpm
      in
      Shaped { groups = [||]; ngroups = 0; lpm_ordered; nentries = 0 }
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
      updates = 0;
      last_acc = 1;
      tokens;
      token_time = 0.;
      fills = 0;
      evictions = 0;
      limited = 0 }
  in
  (match backend with
   | Cache_lru _ | Shaped _ -> List.iter (raw_insert t) tab.entries
   | Linear _ -> ());
  t

(* Fill the reusable key buffer with the packet's key-field values. *)
let read_values t pkt =
  for i = 0 to Array.length t.fields - 1 do
    t.scratch.(i) <- Packet.get pkt (Array.unsafe_get t.fields i)
  done;
  t.scratch

(* Longest-prefix groups first; the first hit is the answer. *)
let rec lpm_probe_from t s vals v i =
  if i >= s.ngroups then begin
    t.last_acc <- max 1 s.ngroups;
    None
  end
  else
    match group_probe (Array.unsafe_get s.groups i) vals v with
    | Some _ as r ->
      t.last_acc <- i + 1;
      r
    | None -> lpm_probe_from t s vals v (i + 1)

(* Ternary: the model probes every mask group; highest priority wins.
   [skip] elides hash probes that cannot change the winner (the group's
   max priority does not beat the current best) — the reported access
   count still charges every group, as the hardware would. *)
let rec ternary_probe_from ~skip s vals v i (best : P4ir.Table.entry option) =
  if i >= s.ngroups then best
  else begin
    let g = Array.unsafe_get s.groups i in
    let best =
      match best with
      | Some b when skip && b.priority >= g.max_priority -> best
      | _ -> (
        match group_probe g vals v with
        | Some e as r -> (
          match best with Some b when b.priority >= e.priority -> best | _ -> r)
        | None -> best)
    in
    ternary_probe_from ~skip s vals v (i + 1) best
  end

(* The probe of every shape group, the access count left in
   [t.last_acc]. A table of one group (every exact table) probes it
   once, one access; otherwise LPM probes longest first and ternary
   every group. A single-key table passes its key value as [v] and
   leaves the scratch buffer unfilled. *)
let[@inline] shaped_probe ~skip t s pkt =
  let one = Array.length t.fields = 1 in
  let v = if one then Packet.get pkt (Array.unsafe_get t.fields 0) else 0L in
  let vals = if one then t.scratch else read_values t pkt in
  if s.ngroups = 1 then begin
    t.last_acc <- 1;
    group_probe (Array.unsafe_get s.groups 0) vals v
  end
  else if s.lpm_ordered then lpm_probe_from t s vals v 0
  else begin
    t.last_acc <- max 1 s.ngroups;
    ternary_probe_from ~skip s vals v 0 None
  end

(* --- the probe --- *)

let probe t pkt =
  match t.backend with
  | Shaped s -> shaped_probe ~skip:true t s pkt
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

let last_accesses t = t.last_acc
let cache_counts t = (t.fills, t.evictions, t.limited)

let lookup_linear t pkt =
  match t.backend with
  | Linear l ->
    let tab = { t.table with P4ir.Table.entries = l.lentries } in
    (P4ir.Table.lookup tab (Packet.get pkt), max 1 l.lcount)
  | Shaped s ->
    let r = shaped_probe ~skip:false t s pkt in
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
  if List.compare_lengths patterns t.table.keys <> 0 then
    invalid_arg
      (Printf.sprintf "Engine.delete: table %s has %d keys, the delete gives %d patterns"
         t.table.name (List.length t.table.keys) (List.length patterns));
  let removed =
    match t.backend with
    | Cache_lru c ->
      let vals = exact_values patterns in
      let h = hash_exact vals in
      let n = cfind c vals h (h land (Array.length c.cidx - 1)) in
      n >= 0 && (cache_remove c n; true)
    | Linear l ->
      let survivors =
        List.filter
          (fun (e : P4ir.Table.entry) -> not (List.for_all2 P4ir.Pattern.equal e.patterns patterns))
          l.lentries
      in
      let n = List.length survivors in
      n < l.lcount
      && begin
        l.lentries <- survivors;
        l.lcount <- n;
        l.lscan <- None;
        true
      end
    | Shaped s -> shaped_delete s t.table patterns
  in
  if removed then t.updates <- t.updates + 1;
  removed

(* Drop every entry, back to the initial empty store. *)
let invalidate t =
  match t.backend with
  | Cache_lru c -> cache_reset c
  | Linear l ->
    l.lentries <- [];
    l.lcount <- 0;
    l.lscan <- None
  | Shaped s ->
    s.groups <- [||];
    s.ngroups <- 0;
    s.nentries <- 0

let load_entries t new_entries =
  List.iter (validate_entry t) new_entries;
  invalidate t;
  match t.backend with
  | Linear l ->
    l.lentries <- new_entries;
    l.lcount <- List.length new_entries
  | Cache_lru _ | Shaped _ -> List.iter (raw_insert t) new_entries

let replace_all t new_entries =
  load_entries t new_entries;
  t.updates <- t.updates + List.length new_entries

(* A shaped table lists its last group first, so {!load_entries} on the
   list recreates the groups in the same probe order. *)
let entries t =
  match t.backend with
  | Cache_lru c -> cache_entries c
  | Linear l -> l.lentries
  | Shaped s ->
    let acc = ref [] in
    for i = 0 to s.ngroups - 1 do
      Array.iter (function Some e -> acc := e :: !acc | None -> ()) s.groups.(i).gent
    done;
    !acc

let num_entries t =
  match t.backend with
  | Cache_lru c -> c.clen
  | Linear l -> l.lcount
  | Shaped s -> s.nentries

let take_update_count t =
  let n = t.updates in
  t.updates <- 0;
  n

let copy t =
  let copy_group (g : group) =
    { g with ghash = Array.copy g.ghash; gkeys = Array.copy g.gkeys; gent = Array.copy g.gent }
  in
  let backend =
    match t.backend with
    | Cache_lru c -> Cache_lru (cache_copy c)
    | Linear l -> Linear { lentries = l.lentries; lcount = l.lcount; lscan = l.lscan }
    | Shaped s ->
      Shaped { s with groups = Array.init s.ngroups (fun i -> copy_group s.groups.(i)) }
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
