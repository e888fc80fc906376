(** A growable log: {!Refine}'s search log and the searches' level
    starts.  It grows by fixed chunks of 2{^13} entries once the first
    chunk is full, so a full chunk is never copied and a log of n
    entries holds about n slots.  (OCaml 5.1 predates [Dynarray].) *)

type 'a t

val create : ?capacity:int -> unit -> 'a t
val length : 'a t -> int
val push : 'a t -> 'a -> int
(** Append and return the index of the new element. *)

val get : 'a t -> int -> 'a
val set : 'a t -> int -> 'a -> unit

val clear : 'a t -> unit
(** Reset the length to zero, keeping the capacity (reused buffers). *)

val iter : ('a -> unit) -> 'a t -> unit
val iteri : (int -> 'a -> unit) -> 'a t -> unit
val to_list : 'a t -> 'a list
