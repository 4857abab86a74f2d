type t = { mutable state : int64 }

let create seed = { state = seed }

let golden = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let next64 t =
  t.state <- Int64.add t.state golden;
  mix64 t.state

let fork t i =
  if i < 0 then invalid_arg "Prng.fork: negative index";
  let salted = Int64.add t.state (Int64.mul golden (Int64.of_int (i + 1))) in
  create (mix64 (Int64.logxor (mix64 salted) 0xA3EC647659359ACDL))

let float t =
  (* 53 high-quality bits to a double in [0, 1). *)
  let bits = Int64.shift_right_logical (next64 t) 11 in
  Int64.to_float bits /. 9007199254740992.0

let int t n =
  if n <= 0 then invalid_arg "Prng.int: bound must be positive";
  let v = Int64.shift_right_logical (next64 t) 1 in
  Int64.to_int (Int64.rem v (Int64.of_int n))

let bool t p = float t < p
let uniform t lo hi = lo +. ((hi -. lo) *. float t)

let exponential t rate =
  if rate <= 0. then invalid_arg "Prng.exponential: rate must be positive";
  -.log (1. -. float t) /. rate

let choice t arr =
  if Array.length arr = 0 then invalid_arg "Prng.choice: empty array";
  arr.(int t (Array.length arr))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
