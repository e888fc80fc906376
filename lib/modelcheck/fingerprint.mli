(** 63-bit state fingerprints (splitmix-style mixing over the packed
    representation) for the sharded parallel explorer.

    Two hashes key the one visited-set table, {!Store}.  {!State.hash}
    (FNV-1a) keys the sequential engine's store, where the full state is
    always at hand to break ties.  These fingerprints key
    {!Shard_table}: a fingerprint picks the owning shard
    ({!Shard_table.owner}), and the fingerprint divided by the shard
    count keys that shard's store and picks the slot in its table, so
    the mixing must avalanche across the whole word. *)

val hash : State.packed -> int
(** Fingerprint of a packed state: uniform over [0, max_int]. *)

val mix : int -> int
(** The splitmix64 finalizer, exposed for tests and derived hashes. *)
