(** A persistent pool of worker domains for level-synchronized parallel
    exploration.

    Domains are spawned once at {!create} and parked on a condition
    variable between jobs, so handing a BFS wave to the workers costs a
    lock round-trip instead of a [Domain.spawn]/[Domain.join] pair per
    worker per wave. *)

type t

val create : int -> t
(** Spawn [n >= 1] worker domains.  They idle until {!run}. *)

val size : t -> int
(** The number of worker domains. *)

val run : t -> (int -> unit) -> unit
(** [run p job] executes [job w] on worker [w] for every
    [w in 0 .. size p - 1] and returns when all have finished (a
    barrier).  If any worker raises, one of the exceptions is re-raised
    here after the barrier.  Not reentrant: [job] must not call {!run}
    on the same pool. *)

val busy_ns : t -> int array
(** Per-worker cumulative nanoseconds spent running jobs since
    {!create}, timed with CLOCK_MONOTONIC, so a wall-clock step cannot
    make them shrink or jump.  Telemetry divides successive deltas by
    wall time to report each domain's busy fraction. *)

val jobs_run : t -> int array
(** Per-worker count of jobs completed since {!create}. *)

val shutdown : t -> unit
(** Stop and join all workers.  Idempotent; the pool is unusable
    afterwards. *)

val with_pool : int -> (t -> 'a) -> 'a
(** [create], run the callback, and {!shutdown} (also on exception). *)
