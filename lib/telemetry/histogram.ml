(* Log-linear (HDR-style) buckets. A value v > 0 with frexp v = (m, e),
   m in [0.5, 1), lands in octave e and sub-bucket floor((2m - 1) * sub):
   writing v = (2m) * 2^(e-1) with 2m in [1, 2), the octave is split into
   [sub] equal mantissa slices. Bucket 0 is reserved for v <= 0 (and NaN);
   out-of-range octaves clamp to the first/last real bucket, so every
   float maps somewhere and recording can never fail. *)

(* Octaves e in [e_min, e_max) cover ~5.4e-20 .. 1.8e19 — far beyond any
   latency in latency-units, seconds, or nanoseconds we ever record. *)
let e_min = -64
let e_max = 64
let octaves = e_max - e_min

(* sum/min/max live in a floatarray rather than mutable float fields: in
   a mixed record (without flambda) every store to a mutable float field
   allocates a fresh box and runs the write barrier, and [record] fires
   once per packet in the simulator's window loop. Floatarray stores are
   guaranteed unboxed. Slots: 0 = sum, 1 = min, 2 = max. *)
type t = {
  sbits : int;
  sub : int;  (* 1 lsl sbits *)
  counts : int array;  (* 1 zero-bucket + octaves * sub log buckets *)
  mutable total : int;
  fstats : floatarray;
}

let fresh_fstats () =
  let a = Float.Array.make 3 0. in
  Float.Array.set a 1 infinity;
  Float.Array.set a 2 neg_infinity;
  a

let create ?(sub_bits = 5) () =
  if sub_bits < 0 || sub_bits > 10 then invalid_arg "Histogram.create: sub_bits out of range";
  let sub = 1 lsl sub_bits in
  { sbits = sub_bits;
    sub;
    counts = Array.make (1 + (octaves * sub)) 0;
    total = 0;
    fstats = fresh_fstats () }

let sub_bits t = t.sbits
let count t = t.total
let sum t = Float.Array.get t.fstats 0
let mean t = if t.total = 0 then nan else Float.Array.get t.fstats 0 /. float_of_int t.total
let min_value t = if t.total = 0 then nan else Float.Array.get t.fstats 1
let max_value t = if t.total = 0 then nan else Float.Array.get t.fstats 2

(* Allocation-free equivalent of the frexp formulation: for a normal
   v = (1.f) x 2^(E-1023), frexp's exponent is E - 1022 and
   floor((2m - 1) * sub) is exactly the top [sbits] fraction bits (2m - 1
   = 0.f is computed exactly, and scaling by the power of two [sub] is
   exact), so the bucket is bit-identical to the spec above. *)
let[@inline] bucket_index t v =
  (* NaN > 0. is false, so NaN joins v <= 0 in bucket 0. *)
  if not (v > 0.) then 0
  else begin
    let bits = Int64.bits_of_float v in
    let ebits = Int64.to_int (Int64.shift_right_logical bits 52) land 0x7FF in
    if ebits = 0x7FF then Array.length t.counts - 1 (* infinity *)
    else if ebits = 0 then 1 (* subnormal: octave below e_min, clamps up *)
    else begin
      let s =
        Int64.to_int
          (Int64.shift_right_logical (Int64.logand bits 0xF_FFFF_FFFF_FFFFL) (52 - t.sbits))
      in
      let k = 1 + ((ebits - 1023 - e_min) * t.sub) + s in
      if k < 1 then 1
      else if k >= Array.length t.counts then Array.length t.counts - 1
      else k
    end
  end

(* Inlined (and [bucket_index] with it) so a caller's unboxed float flows
   straight into the comparison/bit-twiddling/floatarray stores without
   being boxed for the call — [record] fires once per packet in the
   simulator's window loop, which must not allocate. *)
let[@inline] record_n t v ~n =
  if n > 0 then begin
    let k = bucket_index t v in
    (* [bucket_index] clamps k into [0, length). *)
    Array.unsafe_set t.counts k (Array.unsafe_get t.counts k + n);
    t.total <- t.total + n;
    let fs = t.fstats in
    Float.Array.unsafe_set fs 0 (Float.Array.unsafe_get fs 0 +. (v *. float_of_int n));
    (* NaN comparisons are false, so NaN samples leave min/max alone. *)
    if v < Float.Array.unsafe_get fs 1 then Float.Array.unsafe_set fs 1 v;
    if v > Float.Array.unsafe_get fs 2 then Float.Array.unsafe_set fs 2 v
  end

let[@inline] record t v = record_n t v ~n:1

(* Bulk form of [record] for hot window loops: without flambda the
   compiler does not reliably inline [record] across modules, so a
   per-sample call from another compilation unit boxes the float
   argument — one minor-heap block per packet. Looping here keeps the
   value unboxed from the array load into [record_n]. The internal sum
   accumulates in array order, so [sum] is bit-identical to a caller's
   own left-to-right summation of the same prefix ([v *. 1.0] is exact). *)
let record_array t ?n a =
  let n = match n with Some n -> n | None -> Array.length a in
  if n < 0 || n > Array.length a then
    invalid_arg "Histogram.record_array: range outside the array";
  for i = 0 to n - 1 do
    record_n t (Array.unsafe_get a i) ~n:1
  done

(* Upper bound of bucket k >= 1, which covers octave j / sub slice s of
   [1, 2). *)
let bucket_hi t k =
  if k = 0 then 0.
  else
    let j = (k - 1) / t.sub and s = (k - 1) mod t.sub in
    Float.ldexp (1. +. (float_of_int (s + 1) /. float_of_int t.sub)) (e_min + j)

let quantile t q =
  if t.total = 0 then nan
  else begin
    let q = Float.max 0. (Float.min 1. q) in
    let target = max 1 (int_of_float (Float.ceil (q *. float_of_int t.total))) in
    let n = Array.length t.counts in
    let max_v = Float.Array.get t.fstats 2 in
    let rec go k cum =
      if k >= n then max_v
      else
        let cum = cum + t.counts.(k) in
        if cum >= target then
          if k = 0 then 0. else Float.min (bucket_hi t k) max_v
        else go (k + 1) cum
    in
    go 0 0
  end

let merge_into ~dst ~src =
  if dst.sbits <> src.sbits then invalid_arg "Histogram.merge_into: sub_bits mismatch";
  for k = 0 to Array.length src.counts - 1 do
    let c = Array.unsafe_get src.counts k in
    if c <> 0 then dst.counts.(k) <- dst.counts.(k) + c
  done;
  dst.total <- dst.total + src.total;
  let d = dst.fstats and s = src.fstats in
  Float.Array.set d 0 (Float.Array.get d 0 +. Float.Array.get s 0);
  if Float.Array.get s 1 < Float.Array.get d 1 then Float.Array.set d 1 (Float.Array.get s 1);
  if Float.Array.get s 2 > Float.Array.get d 2 then Float.Array.set d 2 (Float.Array.get s 2)

let clear t =
  Array.fill t.counts 0 (Array.length t.counts) 0;
  t.total <- 0;
  Float.Array.set t.fstats 0 0.;
  Float.Array.set t.fstats 1 infinity;
  Float.Array.set t.fstats 2 neg_infinity

let copy t =
  { t with
    counts = Array.copy t.counts;
    fstats = Float.Array.copy t.fstats }

let bucket_counts t = Array.copy t.counts
