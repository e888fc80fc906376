(** Shared BFS wave driver: a FIFO of work items with depth tracked at
    level boundaries.  Drives {!Explore}'s search and
    {!Refine.check}'s product BFS.

    The items live in a ring that reuses a handed-out item's slot and
    doubles only when the pending items fill it, so a wave holds about
    as many slots as its largest frontier, not one per item pushed. *)

type 'a t

val create : unit -> 'a t

val push : 'a t -> 'a -> unit
(** Enqueue a work item at the back (discovery order = BFS order). *)

val depth : 'a t -> int
(** Depth of the level currently being processed (0 until the first
    boundary is crossed); after {!drive} returns, the maximum BFS
    depth reached — the exact value the engines report. *)

val pending : 'a t -> int

val drive : ?on_wave:(depth:int -> frontier:int -> unit) -> 'a t -> ('a -> unit) -> unit
(** [drive t f] pops items in FIFO order and hands each to [f] (which
    may {!push} newly discovered work).  [on_wave] fires once per
    completed level with the new depth and the size of the frontier
    about to be processed — the hook behind the per-wave
    [*.frontier_depth] telemetry gauge.  Exceptions from [f] propagate
    (the engines' stop-with-result idiom). *)
