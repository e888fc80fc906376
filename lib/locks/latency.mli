(** A generic acquire-latency histogram wrapper for the lock zoo.

    Wraps any {!Lock_intf.instance} so every [acquire] is timed on the
    monotonic clock ({!Telemetry.Clock.now_s}) into a fixed-bucket
    histogram, and the wrapped instance's [stats] report latency
    percentiles through the existing [LOCK.stats] hook — so the E5/E7
    harness tables get percentile columns for free, for every lock,
    with no per-lock changes.

    The timing adds two clock reads and one atomic increment per
    acquire; wrap only when the numbers are wanted. *)

val buckets_s : float array
(** {!Telemetry.Quantile.latency_buckets_s}: 100 ns to 5 s, 1–2–5
    steps (seconds).  The top extends past 1 s because open-loop
    backlogs (see {!Open_loop}) can legitimately accumulate
    multi-second queueing delays. *)

type mode =
  | Closed_loop
      (** Latency runs from the moment [acquire] was called — the
          classical measurement, blind to coordinated omission: a
          stalled lock delays the *next* call, and that queueing time
          is never charged to anyone. *)
  | Open_loop of (int -> float)
      (** [Open_loop intended]: latency runs from [intended pid], the
          operation's scheduled start on the {!Telemetry.Clock.now_s}
          scale.  An open-loop driver (Workload.Openloop) sets the
          intended time from its arrival schedule before each acquire,
          so backlog caused by a stall is charged to every operation
          that was due during it. *)

val instrument :
  ?registry:Telemetry.Metrics.t ->
  ?mode:mode ->
  Lock_intf.instance ->
  Lock_intf.instance
(** [instrument inst] returns an instance with the same name, release
    and space accounting whose [acquire] is timed under [mode] (default
    {!Closed_loop}).  [stats ()] returns the underlying stats with
    [acq_p50_ns], [acq_p95_ns], [acq_p99_ns], [acq_p999_ns] and
    [acq_max_ns] appended (integer nanoseconds; 0 until the first
    acquire).  When [registry] is given the histogram is also
    registered there as [lock.<name>.acquire_s]. *)
