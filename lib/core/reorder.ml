let order_valid tabs order =
  let n = Array.length tabs in
  if List.length order <> n || List.sort compare order <> List.init n Fun.id then false
  else
    (* For every pair appearing swapped relative to the original order,
       the two tables must be independent. *)
    let arr = Array.of_list order in
    let ok = ref true in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        if arr.(i) > arr.(j) && not (P4ir.Deps.independent tabs.(arr.(j)) tabs.(arr.(i)))
        then ok := false
      done
    done;
    !ok

let rec permutations = function
  | [] -> [ [] ]
  | xs ->
    List.concat_map
      (fun x ->
        let rest = List.filter (fun y -> y <> x) xs in
        List.map (fun p -> x :: p) (permutations rest))
      xs

let greedy_drop_order prof tabs =
  let arr = Array.of_list tabs in
  let order = Array.init (Array.length arr) Fun.id in
  (* Insertion-sort by descending drop rate, moving a table earlier only
     while it is independent of the table it passes. *)
  let drop i = Profile.drop_prob prof arr.(i) in
  let n = Array.length order in
  for i = 1 to n - 1 do
    let j = ref i in
    while
      !j > 0
      && drop order.(!j) > drop order.(!j - 1)
      && P4ir.Deps.independent arr.(order.(!j - 1)) arr.(order.(!j))
    do
      let tmp = order.(!j) in
      order.(!j) <- order.(!j - 1);
      order.(!j - 1) <- tmp;
      decr j
    done
  done;
  Array.to_list order

(* Beyond this many tables the permutations are too many to enumerate. *)
let max_enumerate = 5

let candidate_orders tabs =
  let n = List.length tabs in
  let identity = List.init n Fun.id in
  if n <= 1 then [ identity ]
  else if n <= max_enumerate then begin
    let arr = Array.of_list tabs in
    let valid = List.filter (order_valid arr) (permutations identity) in
    identity :: List.filter (fun o -> o <> identity) valid
  end
  else identity :: []

let apply_order xs order =
  let arr = Array.of_list xs in
  if List.length order <> Array.length arr then
    invalid_arg "Reorder.apply_order: length mismatch";
  List.map
    (fun i ->
      if i < 0 || i >= Array.length arr then
        invalid_arg "Reorder.apply_order: index out of range"
      else arr.(i))
    order
