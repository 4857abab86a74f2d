(** Deterministic pseudo-random number generator (splitmix64).

    Every stochastic component (traffic, program/profile synthesis) takes
    an explicit generator so experiments are reproducible run-to-run. *)

type t

val create : int64 -> t
(** Seeded generator. Equal seeds give equal streams. *)

val split : t -> t
(** An independent generator derived from the current state. *)

val fork : t -> int -> t
(** [fork t i] is an independent stream for shard [i], a pure function of
    [t]'s current state and the index: the parent is not advanced, equal
    (state, index) pairs give equal streams, and distinct indices give
    decorrelated streams. Used to hand each worker domain its own
    deterministic splitmix64 stream.
    @raise Invalid_argument if [i < 0]. *)

val mix64 : int64 -> int64
(** The raw splitmix64 finalizer: a bijective 64-bit mixing function.
    Building block for allocation-free hash keys. *)

val next64 : t -> int64
val float : t -> float
(** Uniform in [0, 1). *)

val int : t -> int -> int
(** [int t n] is uniform in [0, n). @raise Invalid_argument if [n <= 0]. *)

val bool : t -> float -> bool
(** [bool t p] is true with probability [p]. *)

val uniform : t -> float -> float -> float
(** Uniform in [lo, hi). *)

val exponential : t -> float -> float
(** Exponential with the given rate. *)

val choice : t -> 'a array -> 'a
val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val weighted_index : t -> float array -> int
(** Sample an index proportionally to the (non-negative) weights.
    @raise Invalid_argument if all weights are zero. *)
