type key = { owner : string; label : string }

(* Counts live as native ints: an [int ref] increments without
   allocating, where an [int64 ref] boxes a fresh Int64 on every add —
   the compiled data path bumps one cell per executed op per sampled
   packet, so that box was the hot path's dominant allocation. 62 bits
   of packet count cannot overflow in practice; the public API stays
   int64. *)
type t = (key, int ref) Hashtbl.t

let create () : t = Hashtbl.create 64
let clear = Hashtbl.reset

let incr ?(by = 1L) t ~owner ~label =
  let by = Int64.to_int by in
  let k = { owner; label } in
  match Hashtbl.find_opt t k with
  | Some r -> r := !r + by
  | None -> Hashtbl.add t k (ref by)

(* Pre-resolved handle: the compiled data path resolves each (owner,
   label) once at deploy time and pays a plain int add per packet. A
   fresh cell registers a zero entry, which is invisible everywhere
   ([dump] filters zeros, [diff] keeps positive deltas only, [get]
   returns 0 either way), so resolving cells for actions that never fire
   does not change any observable dump. *)
type cell = int ref

let cell t ~owner ~label =
  let k = { owner; label } in
  match Hashtbl.find_opt t k with
  | Some r -> r
  | None ->
    let r = ref 0 in
    Hashtbl.add t k r;
    r

let get t ~owner ~label =
  match Hashtbl.find_opt t { owner; label } with
  | Some r -> Int64.of_int !r
  | None -> 0L

let owner_total t owner =
  Hashtbl.fold
    (fun k r acc -> if String.equal k.owner owner then Int64.add acc (Int64.of_int !r) else acc)
    t 0L

let dump t =
  Hashtbl.fold (fun k r acc -> (k, Int64.of_int !r) :: acc) t []
  |> List.filter (fun (_, v) -> not (Int64.equal v 0L))
  |> List.sort (fun (a, _) (b, _) -> compare (a.owner, a.label) (b.owner, b.label))

let merge_into ~dst ~src =
  Hashtbl.iter
    (fun k r -> incr ~by:(Int64.of_int !r) dst ~owner:k.owner ~label:k.label)
    src

let snapshot t =
  let copy = create () in
  merge_into ~dst:copy ~src:t;
  copy

let diff ~current ~baseline =
  let result = create () in
  Hashtbl.iter
    (fun k r ->
      let base = match Hashtbl.find_opt baseline k with Some b -> !b | None -> 0 in
      let d = !r - base in
      if d > 0 then incr ~by:(Int64.of_int d) result ~owner:k.owner ~label:k.label)
    current;
  result
