(** 63-bit state fingerprints for the sharded parallel explorer:
    {!State.hash}'s one xor-multiply per word, finished by one
    splitmix64 finalizer per state.

    Two hashes key the one visited-set table, {!Store}.  {!State.hash}
    keys the sequential engine's store, where the full state is always
    at hand to break ties.  These fingerprints key {!Shard_table}: a
    fingerprint picks the owning shard ({!Shard_table.owner}), and the
    fingerprint divided by the shard count keys that shard's store and
    picks the slot in its table, so every bit must depend on every word
    of the state.  The finalizer gives that; {!State.hash} alone leaves
    the low bits blind to the words' high bits. *)

val hash : State.packed -> int
(** Fingerprint of a packed state: uniform over [0, max_int]. *)

val mix : int -> int
(** The splitmix64 finalizer, exposed for tests and derived hashes. *)
