(** Per-domain event rings for runtime lock forensics.

    Each participant records acquire/release milestones into its own
    preallocated int ring — two array stores and an increment per
    record, no allocation, no synchronisation with other domains — so
    tracing does not serialise the contention it is observing.  After
    the run the rings are merged into one time-sorted log; lib/trace
    turns that log into a causal trace with one track per domain. *)

type op =
  | Acquire_start  (** entered the acquire protocol (start of L1-wait) *)
  | Acquired  (** acquire returned: the domain holds the lock *)
  | Released  (** about to release (stamped before the releasing store) *)

type entry = { e_t_ns : int; e_pid : int; e_op : op }
(** [e_t_ns] is a CLOCK_MONOTONIC reading in nanoseconds: comparable
    across domains, not a wall-clock time. *)

type t

val create : ?capacity:int -> nprocs:int -> unit -> t
(** One ring of [capacity] entries (default 4096) per participant.
    When a ring overflows, its oldest entries are overwritten. *)

val record : t -> pid:int -> op -> unit
(** Stamp [op] with the CLOCK_MONOTONIC time in nanoseconds into
    [pid]'s ring. *)

val wrap : t -> Lock_intf.instance -> Lock_intf.instance
(** Instrument an instance: acquire records [Acquire_start] before and
    [Acquired] after the underlying acquire; release records [Released]
    before the underlying release (so a hand-over is ordered
    released < acquired on the monotonic clock). *)

val flush : t -> entry list
(** Merge all rings, oldest first (stable on timestamp ties).  Entries
    lost to ring overflow are gone; see {!dropped}. *)

val dropped : t -> int
(** Total records overwritten by ring overflow across all pids. *)
