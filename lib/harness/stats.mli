(** Small descriptive-statistics toolkit for benchmark results. *)

val mean : float array -> float
val stddev : float array -> float
(** Sample standard deviation; 0 for fewer than two samples. *)

val median : float array -> float
val percentile : float array -> float -> float
(** [percentile xs p] with [p] in [0, 100]; linear interpolation.
    Raises [Invalid_argument] on an empty array. *)

val minimum : float array -> float
val maximum : float array -> float

val format_si : float -> string
(** Human-readable engineering notation: 12.3k, 4.56M, ... *)
