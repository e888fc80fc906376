(** 63-bit state fingerprints for the sharded parallel explorer:
    {!State.hash}'s one xor-multiply per word, finished by one
    splitmix64 finalizer per state.

    A fingerprint only routes: its residue modulo the shard count picks
    the shard that owns the state ({!Shard_table.owner}).  Every
    {!Store}, the shards' included, keys its states itself from their
    packed words through {!mix}, so the residue and the store's probe
    read different hashes.  The residue's low bits must still depend on
    every word of the state; the finalizer gives that, where
    {!State.hash} alone leaves the low bits blind to the words' high
    bits. *)

val hash : State.packed -> int
(** Fingerprint of a packed state: uniform over [0, max_int]. *)

val mix : int -> int
(** The splitmix64 finalizer: {!Store}'s key of a state packed into one
    word, and the last step of every other key and fingerprint. *)
