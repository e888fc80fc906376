(** The checker's visited set, and its only one: an allocation-free
    open-addressing index from a 63-bit key to an insertion-order id,
    plus the states, bit-packed in a chunked int arena.  Every search
    keeps its states, so answers never depend on the key function:
    states with equal keys but distinct contents are both stored and
    counted in {!collisions}.

    Two hashes key it.  The sequential engine ({!Explore}, {!Refine})
    calls {!probe}, {!add} and {!find_opt}, which key a state by
    {!State.hash}.  Each {!Shard_table} shard calls {!probe_key} with
    its state's {!Fingerprint.hash} divided by the shard count.  One
    store must see one key function throughout.

    A key is computed once per stored state: 31 of its bits, the tag,
    are packed into the one-word index entry, and the entry's home
    slot is the tag's low bits, so dedup lookups and table growth never
    rehash a stored state and the store keeps no key.  Probing
    allocates nothing and touches one word per step; storing a new
    state is an arena blit, not a boxed allocation — at millions of
    states the GC otherwise spends more time tracing state arrays than
    the search spends exploring.

    Each state is stored packed: every word of the state is a field
    kept in as few bits as the values stored so far need, and the
    fields share 63-bit words.  The ranges are learned from the states
    themselves; a value outside its field's range widens the field and
    re-encodes the stored states, and a field that needs more than 62
    bits gets a word of its own, so every int round-trips.  A Bakery++ state at N=4/M=2 takes one word instead
    of 16.  Keys, ids, probe sequences and collisions do not depend on
    the packing.

    All states in one store must have the same length (the layout of
    one system); another length raises [Invalid_argument].
    Single-writer: a probe encodes its candidate into a buffer the
    store owns and remembers where it ended, for the {!add_probed}
    after it, so only one thread may probe and insert. *)

type t

val create : unit -> t
val length : t -> int

val probe : t -> State.packed -> int
(** Id of an equal stored state, or [-1].  A miss remembers the final
    probe position, the key and the packed state; a following
    {!add_probed} reuses them instead of probing again.  A candidate
    that does not fit the learned ranges widens them first. *)

val probe_key : t -> int -> State.packed -> int
(** [probe_key t key s] is {!probe} with a caller-computed [key] in
    place of [State.hash s]. *)

val add_probed : t -> State.packed -> int
(** Insert a state known absent — immediately after a missed probe for
    it — by copying the packed form that probe encoded into the arena.
    The caller keeps ownership of [s] (scratch buffers can be inserted
    directly).  Returns the new id. *)

val add : t -> State.packed -> int option
(** {!probe} + {!add_probed}: [Some id] if the state was new. *)

val find_opt : t -> State.packed -> int option
(** Allocating convenience wrapper around {!probe}. *)

val get : t -> int -> State.packed
(** Decode a stored state into a fresh array. *)

val read_into : t -> int -> State.packed -> unit
(** Decode a stored state into a caller-owned buffer of the right length
    (the allocation-free {!get}). *)

val collisions : t -> int
(** Inserted states whose probe passed a distinct state under the same
    key tag, the key's bits from 31 up.  A tag collision costs one more
    state compare, and under {!State.hash} has odds 2^-31 per pair. *)

val load_factor : t -> float
(** Occupied fraction of the index (kept at or below 2/3 by growth);
    0 when empty.  For progress telemetry. *)

val arena_bytes : t -> int
(** Bytes held by allocated arena chunks of packed states and the
    index — the store's resident memory, for telemetry. *)
