(** A process-local metrics registry: named counters, gauges and
    fixed-bucket histograms with percentile estimation.

    Instruments are registered once (by name) and then updated through
    their handle with one atomic operation — safe to hammer from any
    domain.  [snapshot] is the only traversal; it sorts by name, so two
    snapshots of the same registry state are structurally equal
    (deterministic output for tests and JSONL sinks). *)

type t

val create : unit -> t

(** {1 Counters} — monotone event counts. *)

type counter

val counter : t -> string -> counter
(** Register (or fetch, if the name exists) a counter.  Registering a
    name twice with different instrument kinds raises [Invalid_argument]. *)

val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

(** {1 Gauges} — last-written values. *)

type gauge

val gauge : t -> string -> gauge
val set : gauge -> float -> unit
val gauge_value : gauge -> float

(** {1 Histograms} — fixed upper-bound buckets plus an overflow bucket. *)

type histogram

val default_buckets : float array
(** {!Quantile.default_buckets} — a 1–2–5 ladder from 1e-6 to 10.0,
    microseconds to seconds when observations are latencies in
    seconds. *)

val histogram : t -> ?buckets:float array -> string -> histogram
(** [buckets] are strictly increasing upper bounds (defaults to
    {!default_buckets}); values above the last bound land in the
    overflow bucket. *)

val observe : histogram -> float -> unit

val percentile : histogram -> float -> float
(** [percentile h q] for [q] in [0, 1]: {!Quantile.estimate} over the
    histogram's atomic buckets — the smallest bucket upper bound such
    that at least [q * count] observations are at or below it; the
    overflow bucket reports the maximum observation.  [nan] when
    empty. *)

(** {1 GC gauges} — allocation pathologies in long soak runs. *)

val observe_gc : ?resident:bool -> t -> unit
(** Refresh three gauges from [Gc.quick_stat] (no heap traversal):
    [gc.minor_collections], [gc.major_collections] and [gc.heap_mb]
    (major-heap size in MB); and, unless [resident] is [false], two
    from the kernel's [/proc/self/status], where it can be read:
    [gc.vm_rss_mb] (resident memory now, [VmRSS]) and [gc.vm_hwm_mb]
    (its peak, [VmHWM]), in MB.  Those see what the heap size cannot,
    such as memory outside the OCaml heap, but each reading opens and
    parses a file, so a sampler polling every millisecond passes
    [~resident:false].  Call before {!snapshot} — typically once at the
    end of a run, or periodically from a sampling loop. *)

val gc_fields : unit -> (string * Json.t) list
(** The same readings as JSON fields ([gc_minor], [gc_major],
    [gc_heap_mb], and [gc_vm_rss_mb] and [gc_vm_hwm_mb] where
    [/proc/self/status] can be read) for stamping progress lines and
    datapoints. *)

(** {1 Snapshots} *)

type histogram_snapshot = {
  count : int;
  sum : float;
  min : float;  (** [nan] when empty *)
  max : float;  (** [nan] when empty *)
  p50 : float;
  p95 : float;
  p99 : float;
  p999 : float;
  buckets : (float * int) array;  (** (upper bound, count); last is [infinity] *)
}

type value =
  | Counter of int
  | Gauge of float
  | Histogram of histogram_snapshot

val snapshot : t -> (string * value) list
(** All instruments, sorted by name. *)

val value_to_json : value -> Json.t
(** Counters/gauges as numbers; histograms as an object with count,
    sum, min, max, p50/p95/p99/p999 and non-empty buckets. *)
