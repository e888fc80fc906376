(** Sharded visited set for the parallel explorer: one {!Store} per
    shard, and the routing between them.

    A state's {!Fingerprint.hash} [fp] picks its owning shard
    ([fp mod nshards]), and only that: the shard's {!Store} keys the
    state itself from its packed words ({!Store.probe}), so the routing
    residue and the store's key come from different hashes and no
    shard indexes on bits that are constant within it.  Each shard
    keeps its packed states and no keys, and has a single writer, so
    insertion never contends on shared memory.

    Concurrency contract: at most one domain inserts into a given shard
    at a time.  A shard's stored states are read by its owning domain,
    or by the main domain between waves, never by another domain while
    the owner inserts; cross-shard reads of counters are only
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
(** [hash] defaults to {!Fingerprint.hash}; it only routes, and is
    injectable so tests can skew the shards or send every state to
    one.  [mode] and [words] are not read: each shard's store keeps
    full states and learns their width from the first state it keeps.
    Both stay only because the repository benchmark's [replay_shards]
    passes them; drop them there first, then here. *)

val set_siblings : t -> int array -> unit
(** Group the fields that widen together in every shard's store
    ({!Store.set_siblings}), before the first insertion. *)

val fingerprint : t -> State.packed -> int
val owner : t -> int -> int
(** Owning shard of a fingerprint. *)

val gid : t -> shard:int -> local:int -> int
(** Global state id from a shard-local one (interleaved encoding). *)

val shard_of_gid : t -> int -> int
val local_of_gid : t -> int -> int

val insert : t -> shard:int -> fp:int -> State.packed -> int
(** [insert t ~shard ~fp s] adds [s] to its owning [shard] if absent:
    the new local id, or [-1] when already present.  [shard] must be
    the owner of [fingerprint t s]; only the shard's owning domain may
    call this.  [fp] is not read: the shard keys [s] itself.  It stays
    only because the repository benchmark's [replay_shards] passes it,
    like [create]'s [mode] and [words]. *)

val total : t -> int

val length : t -> shard:int -> int
(** States stored in one shard; its local ids are [0 .. length - 1], in
    insertion order. *)

val collisions : t -> int
(** Inserted states whose probe passed a distinct state under the same
    key tag, summed over the shards ({!Store.collisions}). *)

val get : t -> shard:int -> int -> State.packed
(** Materialize a stored state. *)

val read_into : t -> shard:int -> int -> State.packed -> unit
(** {!get} into a caller-owned buffer ({!Store.read_into}). *)

val memory_bytes : t -> int
val occupancy : t -> int * int
(** [(min, max)] shard population — balance telemetry. *)
