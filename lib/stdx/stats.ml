let mean = function
  | [] -> invalid_arg "Stats.mean: empty list"
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let percentile p xs =
  if xs = [] then invalid_arg "Stats.percentile: empty list";
  if p < 0. || p > 100. then invalid_arg "Stats.percentile: p out of range";
  let sorted = Array.of_list (List.sort compare xs) in
  let n = Array.length sorted in
  let rank = p /. 100. *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor rank) in
  let hi = int_of_float (Float.ceil rank) in
  if lo = hi then sorted.(lo)
  else
    let frac = rank -. float_of_int lo in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))

let median xs = percentile 50. xs

let linear_regression points =
  if List.length points < 2 then invalid_arg "Stats.linear_regression: need >= 2 points";
  let n = float_of_int (List.length points) in
  let sx = List.fold_left (fun acc (x, _) -> acc +. x) 0. points in
  let sy = List.fold_left (fun acc (_, y) -> acc +. y) 0. points in
  let sxx = List.fold_left (fun acc (x, _) -> acc +. (x *. x)) 0. points in
  let sxy = List.fold_left (fun acc (x, y) -> acc +. (x *. y)) 0. points in
  let denom = (n *. sxx) -. (sx *. sx) in
  if Float.abs denom < 1e-12 then invalid_arg "Stats.linear_regression: degenerate x";
  let slope = ((n *. sxy) -. (sx *. sy)) /. denom in
  let intercept = (sy -. (slope *. sx)) /. n in
  (slope, intercept)

let r_squared points ~slope ~intercept =
  let ys = List.map snd points in
  let ybar = mean ys in
  let ss_tot = List.fold_left (fun acc y -> acc +. ((y -. ybar) ** 2.)) 0. ys in
  let ss_res =
    List.fold_left
      (fun acc (x, y) -> acc +. ((y -. (slope *. x) -. intercept) ** 2.))
      0. points
  in
  if ss_tot < 1e-12 then 1. else 1. -. (ss_res /. ss_tot)

let normalize weights =
  let total = List.fold_left ( +. ) 0. weights in
  if total <= 0. then
    let n = List.length weights in
    if n = 0 then [] else List.map (fun _ -> 1. /. float_of_int n) weights
  else List.map (fun w -> w /. total) weights

let entropy dist =
  let dist = normalize dist in
  List.fold_left
    (fun acc p -> if p <= 0. then acc else acc -. (p *. (log p /. log 2.)))
    0. dist
