(** Sharded level-synchronized parallel BFS over a persistent pool of
    OCaml 5 domains.

    Each state's {!Fingerprint.hash} assigns it to an owning domain;
    every domain deduplicates and stores its own shard of the visited
    set ({!Shard_table}) with no synchronization on the table itself.
    Within a wave, each domain expands only its own shard's states,
    taking the shard-local ids stored in the previous wave from the
    top down (a range per shard, no word per frontier state) and
    decoding each from its shard; it hands
    foreign-shard successors across in batches (each drained batch
    goes back to the domain that allocated it), and the wave ends by
    quiescence (a global in-flight counter).

    Waves remain globally synchronized, so the observable result is
    bit-identical to {!Explore.run}: states inserted during wave [d]
    are exactly BFS level [d+1], hence [generated], [distinct] and
    [depth] match the sequential engine on a Pass and a violation is
    reported with a shortest counterexample.  The fuzz seq-vs-par
    oracle pins this equivalence.

    On a single-core machine the extra domains add coordination
    overhead and no speedup (idle domains sleep rather than spin); the
    sharded design exists so the checker scales on real multi-core
    hosts. *)

val run :
  ?invariants:Invariant.t list ->
  ?constraint_:(System.t -> State.packed -> bool) ->
  ?max_states:int ->
  ?domains:int ->
  ?pool:Pool.t ->
  ?hash:(State.packed -> int) ->
  ?reduce:Reduce.mode ->
  ?progress:Telemetry.Progress.t ->
  ?metrics:Telemetry.Metrics.t ->
  System.t ->
  Explore.result
(** [domains] defaults to [Domain.recommended_domain_count ()], capped
    at 8, and fixes the shard count.  With [domains = 1] the whole
    search runs inline on the calling domain (one shard, no pool).
    [pool] reuses an existing pool across runs — it overrides
    [domains], is left running on return, and must not be used
    concurrently from another thread.

    Counterexample traces are rebuilt by {!Explore.trace_of} from each
    shard's log, one {!Explore.log_word} per state, and checked state
    by state against the shards, which keep their states bit-packed
    ({!Store}) and no keys.  A fingerprint collision costs one more
    state compare and never merges two states.
    [hash] overrides the fingerprint function (tests inject colliding
    or skewed hashes with it).

    [reduce] composes with the sharding exactly as in {!Explore.run}:
    successors are canonicalized ({!Reduce}) before fingerprinting, so
    shard ownership and deduplication operate on orbit
    representatives; the ample filter runs in each
    domain against read-only precomputed tables.  Traces are replayed
    in canonical coordinates and mapped back to original pids.

    [progress] reports once per BFS wave (rate-limited): depth, states
    generated/distinct, frontier size, kstates/s, shard occupancy
    spread, table MiB, and — when a pool is driving the waves — each
    worker domain's busy fraction since the previous report.
    [metrics] accumulates final stats under [par_explore.*], including
    hand-off/idle counters, the hand-off batches
    allocated ([par_explore.batches_allocated], bounded by those in
    flight at once, since each batch returns to the domain that
    allocated it), fingerprint collisions,
    shard occupancy, and a per-wave [par_explore.frontier_depth]
    gauge.  Both default to off. *)
