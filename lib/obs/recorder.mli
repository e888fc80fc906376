(** The flight recorder: a bounded in-memory ring of {!Flight.sample}s
    plus an optional {!Telemetry.Sink.jsonl} flight record, fed either
    by explicit {!record} calls (push mode — a driver that already has
    a sampling loop, like the lock observatory) or by a background
    sampler domain polling a thunk at a fixed cadence (pull mode — the
    explorer, which is busy exploring).

    The ring keeps the last [capacity] samples and counts what it
    dropped, so a week-long soak cannot exhaust memory; the record,
    when configured, receives {e every} sample with a per-line flush,
    so it is complete and crash-safe even when the ring has wrapped.
    {!stop} is idempotent and safe from [at_exit] — the violation and
    early-exit paths rely on that. *)

type t

val create : ?capacity:int -> ?path:string -> unit -> t
(** [capacity] bounds the in-memory ring (default 4096 samples).
    [path] appends a {!Telemetry.Record.Flight} run to the record
    there, header first; omitted means in-memory only. *)

val record : t -> (string * float) list -> unit
(** Stamp the values with the next sequence number and seconds since
    {!create}, append to the ring (dropping the oldest when full) and
    the record.  Thread-safe; a no-op after {!stop}. *)

val start_sampler : ?interval_s:float -> t -> poll:(unit -> (string * float) list) -> unit
(** Spawn a background domain that {!record}s [poll ()] every
    [interval_s] (default 0.25 s) until {!stop}.  At most one sampler
    per recorder; raises [Invalid_argument] on a second call. *)

val stop : t -> unit
(** Join the sampler domain (if any; not when called on that domain,
    as a signal handler may be), take one final sample from its poll
    thunk, and close the record.  Idempotent. *)

val samples : t -> Flight.sample list
(** Ring contents, oldest first. *)

val dropped : t -> int
(** Samples evicted from the ring so far (still present in the record). *)

val of_metrics : Telemetry.Metrics.t -> (string * float) list
(** Flatten a registry snapshot into flight values: counters and
    gauges under their own names, histograms as [<name>.count],
    [<name>.p50], [<name>.p99] and [<name>.p999] (empty histograms are
    skipped — a NaN row per sample would just pollute every series). *)
