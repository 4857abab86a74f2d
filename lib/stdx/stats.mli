(** Small statistics toolbox: summaries, CDFs, regression, entropy. *)

val mean : float list -> float
(** @raise Invalid_argument on an empty list. *)

val median : float list -> float

val percentile : float -> float list -> float
(** [percentile p xs] with [p] in [0, 100], linear interpolation.
    @raise Invalid_argument on an empty list or p outside [0, 100]. *)

val linear_regression : (float * float) list -> float * float
(** Least-squares fit returning (slope, intercept).
    @raise Invalid_argument with fewer than two points. *)

val r_squared : (float * float) list -> slope:float -> intercept:float -> float

val entropy : float list -> float
(** Shannon entropy (base 2) of a distribution; zero-probability entries
    are skipped. The input is normalized first. *)

val normalize : float list -> float list
(** Scale non-negative weights to sum to 1. All-zero input maps to the
    uniform distribution. *)
