(** HDR-style log-bucketed histograms for latency-like values.

    Values are assigned to log-linear buckets: each power-of-two octave
    is split into [2^sub_bits] equal sub-buckets, so any recorded value
    is reproduced by {!quantile} with relative error at most
    [1 / 2^sub_bits] (3.125% at the default 5 bits) while the whole
    structure is a flat preallocated int array — recording is a couple of
    arithmetic ops and one increment, with no allocation on the hot path.

    Histograms with the same [sub_bits] merge losslessly: bucket counts
    add, so quantiles of a merged histogram are *bit-identical* to the
    quantiles of a single histogram fed the union of the samples, in any
    merge order. That is what lets a fleet rollup combine per-member
    latency histograms without distorting the tail. *)

type t

val create : ?sub_bits:int -> unit -> t
(** [sub_bits] (default 5) sets the sub-buckets per octave
    ([2^sub_bits]); higher means finer quantiles and a bigger array.
    @raise Invalid_argument unless [0 <= sub_bits <= 10]. *)

val sub_bits : t -> int

val relative_error : t -> float
(** Worst-case relative quantile error, [1 / 2^sub_bits]. *)

val record : t -> float -> unit
(** Add one sample. Non-positive and NaN values land in the dedicated
    zero bucket ({!quantile} reports them as [0.]); values beyond the
    representable range clamp to the edge buckets. *)

val record_n : t -> float -> n:int -> unit
(** Add [n] identical samples with one bucket update. *)

val record_array : t -> ?pos:int -> ?n:int -> float array -> unit
(** Record [a.(pos) .. a.(pos + n - 1)] in order ([pos] defaults to [0],
    [n] to the rest of the array). Equivalent to [n] calls of {!record}
    but allocation-free: a cross-module per-sample [record] call boxes
    its float argument without flambda, so hot window loops should hand
    the whole latency array over in one call. {!sum} afterwards is
    bit-identical to a left-to-right summation of the same range. *)

val count : t -> int
val sum : t -> float

val mean : t -> float
(** [nan] when empty. *)

val min_value : t -> float
(** Exact smallest recorded sample; [nan] when empty. *)

val max_value : t -> float
(** Exact largest recorded sample; [nan] when empty. *)

val quantile : t -> float -> float
(** [quantile h q] with [q] in [0, 1]: the upper bound of the bucket
    holding the sample at rank [ceil (q * count)], clamped to
    {!max_value} (so [quantile h 1.] is the exact maximum). [nan] when
    empty. Deterministic and merge-stable: equal bucket contents give
    bit-identical results. *)

val merge_into : dst:t -> src:t -> unit
(** Add [src]'s buckets, count, sum and min/max into [dst]. [src] is
    unchanged. Commutative and associative across any shard split.
    @raise Invalid_argument if the two histograms' [sub_bits] differ. *)

val clear : t -> unit
(** Reset to empty, keeping the allocation. *)

val copy : t -> t

val bucket_counts : t -> int array
(** Snapshot of the raw bucket array (index 0 is the zero bucket); used
    by tests to check merge losslessness bucket-by-bucket. *)

val nonzero_buckets : t -> (float * float * int) list
(** [(lower, upper, count)] for every occupied bucket, in value order.
    The zero bucket reports as [(0., 0., n)]. *)
