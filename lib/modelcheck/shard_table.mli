(** Sharded visited set for the parallel explorer: one {!Store} per
    shard, and the routing between them.

    A state's {!Fingerprint.hash} [fp] picks its owning shard
    ([fp mod nshards]); that shard's store is keyed by [fp / nshards]
    through {!Store.probe_key}, never by {!State.hash}.  The residue
    reads [fp]'s low bits and the store the quotient's bits from 31 up,
    so both ends of [fp] must depend on every word of the state: the
    fingerprint is {!State.hash}'s accumulation, whose low bits alone
    would not, finished by one finalizer that spreads it.  Each shard
    keeps its packed states and no keys, and has a single writer, so
    insertion never contends on shared memory.

    Concurrency contract: at most one domain inserts into a given shard
    at a time; cross-shard reads of counters and stored states are only
    meaningful at a synchronization point (the engine's wave barrier). *)

type mode =
  | Exact
      (** Full states, the only mode; answers bit-identical to
          {!Explore.run}. *)

type t

val create :
  ?hash:(State.packed -> int) ->
  mode:mode ->
  nshards:int ->
  words:int ->
  unit ->
  t
(** [hash] defaults to {!Fingerprint.hash}; it is injectable so tests
    can force collisions or skew the shards.  [mode] and [words] are
    not read: each shard's store keeps full states and learns their
    width from the first state it keeps.  Both stay only because the
    repository benchmark's [replay_shards] passes them; drop them there
    first, then here. *)

val fingerprint : t -> State.packed -> int
val owner : t -> int -> int
(** Owning shard of a fingerprint. *)

val gid : t -> shard:int -> local:int -> int
(** Global state id from a shard-local one (interleaved encoding). *)

val shard_of_gid : t -> int -> int
val local_of_gid : t -> int -> int

val insert : t -> shard:int -> fp:int -> State.packed -> int
(** [insert t ~shard ~fp s] adds [s] to its owning [shard] if absent:
    the new local id, or [-1] when already present.  [fp] must be
    [fingerprint t s] and [shard] its owner; only the shard's owning
    domain may call this. *)

val total : t -> int

val collisions : t -> int
(** Inserted states whose probe passed a distinct state under the same
    key tag, summed over the shards ({!Store.collisions}). *)

val get : t -> shard:int -> int -> State.packed
(** Materialize a stored state. *)

val memory_bytes : t -> int
val occupancy : t -> int * int
(** [(min, max)] shard population — balance telemetry. *)
