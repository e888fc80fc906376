(** Per-domain work deque of (global id, packed state) items for the
    sharded explorer: the owner pushes/pops the tail, thieves steal
    batches from the head.  Mutex-per-deque.  States are held unboxed in
    one flat int ring and copied in and out, so once the ring has grown
    to a wave's size no operation allocates. *)

type t

val create : words:int -> t
(** An empty deque for packed states of [words] words. *)

val length : t -> int

val push : t -> int -> State.packed -> unit
(** [push t gid s] copies [s] in; the caller may reuse [s] at once. *)

val pop : t -> State.packed -> int
(** Owner-side pop from the tail: copies the state into the buffer and
    returns its gid, or [-1] when the deque is empty. *)

val steal : t -> into:int array -> max:int -> int
(** Thief-side batch steal from the head: copies at most [max] items,
    and at most half the victim's load, into [into], item [k] at
    [k * (words + 1)] as its gid followed by its state; returns the
    count taken. *)
