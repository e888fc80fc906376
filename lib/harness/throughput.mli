(** Multi-domain lock benchmarks.

    Domains run the canonical cyclic-process loop — acquire, critical
    work, release, think — against one lock instance.  Results are
    throughput over elapsed time, read on the monotonic clock, and
    per-domain entry counts.

    On this machine the domains may outnumber cores; every lock spins via
    {!Registers.Spin.relax}, which yields, so handoffs proceed at OS
    scheduler-round granularity.  Absolute numbers are therefore
    machine-specific; the experiments compare *shapes* across algorithms
    measured identically. *)

type result = {
  nprocs : int;
  elapsed : float;  (** seconds *)
  per_domain : int array;  (** critical-section entries per domain *)
  total : int;
  ops_per_sec : float;
  lock_stats : (string * int) list;
  space_words : int;
}

val run :
  ?workload:Workload.Shape.t ->
  ?duration:float ->
  ?seed:int ->
  ?instrument:bool ->
  Locks.Lock_intf.instance ->
  nprocs:int ->
  result
(** [run instance ~nprocs] drives [nprocs] domains for [duration]
    (default 0.3 s) under [workload] (default {!Workload.Shape.contended}).
    [instrument] (default false) wraps the lock in
    {!Locks.Latency.instrument}, so [lock_stats] additionally carries
    acquire-latency percentiles ([acq_p50_ns], [acq_p95_ns],
    [acq_p99_ns], [acq_max_ns]) at the cost of two clock reads per
    acquire. *)

type overflow_result = {
  acquires_before : int;  (** total CS entries before the first overflow *)
  seconds_before : float;
  overflowed : bool;  (** false if the step budget ran out first *)
}

val run_until_overflow :
  ?workload:Workload.Shape.t ->
  ?max_seconds:float ->
  make:(unit -> Locks.Lock_intf.instance) ->
  recover:(int -> unit) ->
  nprocs:int ->
  unit ->
  overflow_result
(** Drive a lock built over [Registers.Bounded] with the [Trap] policy
    until some domain observes [Registers.Bounded.Overflow] (experiment
    E4: time-to-first-overflow).  [recover i] is called by a domain that
    trapped, so it can reset its own registers (the paper's crash
    semantics) and unblock the others. *)
