(** The checker's visited set, and its only one: an allocation-free
    open-addressing index of 32-bit entries from a state's key to its
    insertion-order id, plus the states, bit-packed in a chunked int
    arena.  Every search keeps its states, so answers never depend on
    the key: states with equal key tags but distinct contents are both
    stored and counted in {!collisions}.

    The store keys every state itself, from its packed words: the
    splitmix finalizer {!Fingerprint.mix} of the one word a state
    packs into, or of an FNV-1a fold of its words when it packs into
    more.  An index entry holds the id plus one in the low log2(slots)
    bits and the key's top bits, its tag, in the rest; the entry's home
    slot is the key's low bits.  The store keeps no key: growing the
    index and widening the layout both rebuild it from the arena in id
    order, rehashing each stored state.  Probing allocates nothing and
    touches four bytes per step; storing a new state is an arena blit,
    not a boxed allocation — at millions of states the GC otherwise
    spends more time tracing state arrays than the search spends
    exploring.

    Each state is stored packed: every word of the state is a field
    kept in as few bits as the values stored so far need, and the
    fields share 63-bit words.  The ranges are learned from the states
    themselves; a value outside its field's range widens the field,
    with its siblings, and re-encodes the stored states, and a field
    that needs more than 62 bits gets a word of its own, so every int
    round-trips.  A Bakery++
    state at N=4/M=2 takes one word instead of 16, and the store then
    holds about 16 B per state: 8 in the arena, and two 4-byte slots in
    an index kept at most 2/3 full.

    All states in one store must have the same length (the layout of
    one system); another length raises [Invalid_argument].
    Single-writer: a probe encodes its candidate into a buffer the
    store owns and remembers where it ended, for the {!add_probed}
    after it, so only one thread may probe and insert. *)

type t

val create : unit -> t
val length : t -> int

val set_siblings : t -> int array -> unit
(** [set_siblings t siblings] groups the fields of the states: a field
    outside its range widens with every field of its group,
    [siblings.(f)], to the union of their ranges ({!State.siblings}
    groups each shared array and each per-process variable).  Each
    widening re-encodes the arena and rebuilds the index, so fields
    that grow alike should grow at once.  Until it is called every
    field is its own group.
    @raise Invalid_argument if [t] holds a state, and at the first
    state if [siblings] is not as long as it. *)

val probe : t -> State.packed -> int
(** Id of an equal stored state, or [-1].  A miss remembers the final
    probe position and key tag and the packed state; a following
    {!add_probed} reuses them instead of probing again.  A candidate
    that does not fit the learned ranges widens them first. *)

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
    key tag, the key's top [32 - log2 slots] bits: 12 at 2^20 slots, 2
    at 2^30.  A tag collision costs one more state compare. *)

val load_factor : t -> float
(** Occupied fraction of the index (kept at or below 2/3 by growth);
    0 when empty.  For progress telemetry. *)

val arena_bytes : t -> int
(** Bytes held by allocated arena chunks of packed states and the
    index — the store's resident memory, for telemetry. *)
