(** Online analyzers over flight-record series: drift detection for
    slowly-degrading tails, ETA estimation for bounded explorations,
    and shard-imbalance attribution.  All pure functions of the sample
    arrays, so the same record always yields the same findings. *)

(** {1 Drift} *)

type verdict =
  | Flat  (** no sustained direction *)
  | Rising  (** window means monotone up and the total change exceeds
                the threshold — e.g. p99 creep or heap growth *)
  | Falling
  | Insufficient  (** too few samples to split into windows *)

val verdict_to_string : verdict -> string
(** ["flat"], ["rising"], ["falling"], ["insufficient"]. *)

type drift = {
  metric : string;
  verdict : verdict;
  first : float;  (** mean of the first window ([nan] if insufficient) *)
  last : float;  (** mean of the last window *)
  change_frac : float;  (** (last - first) / |first|; [nan] if insufficient *)
}

val drift : ?windows:int -> ?threshold:float -> metric:string -> float array -> drift
(** Split the series into [windows] (default 4) equal contiguous
    windows and compare their means: {!Rising} iff the means are
    monotone non-decreasing (2% jitter tolerance) and the relative
    first-to-last change exceeds [threshold] (default 0.10); dually
    {!Falling}; {!Insufficient} below [2 * windows] samples.  Window
    means, not a line fit, so a single spike cannot fake a drift. *)

(** {1 Completion ETA} *)

type eta = {
  remaining_s : float;  (** point estimate to reach the target *)
  lo_s : float;  (** optimistic band edge (rate + 2 stderr) *)
  hi_s : float;  (** pessimistic band edge; [infinity] when the rate is
                     statistically indistinguishable from zero *)
  rate : float;  (** fitted progress per second *)
  samples : int;
}

val eta : target:float -> t:float array -> y:float array -> eta option
(** Least-squares rate of [y] over [t] and the time still needed for
    the last observation to reach [target].  Honest about uncertainty:
    the band comes from the slope's standard error, and the result is
    [None] when the fit fails or the fitted rate is non-positive —
    never a made-up number.  [remaining_s] is [0.] once the last
    observation passed the target. *)

(** {1 Shard balance} *)

val imbalance : occ_min:float array -> occ_max:float array -> float option
(** Worst max/min shard-occupancy ratio across paired samples
    (minimum occupancy clamped to 1 state).  [None] without data. *)
