(** Monotonic-clock span events: named durations with attached fields,
    emitted to a {!Sink} on completion. *)

type open_span

val start : name:string -> open_span
(** Stamp the start on the monotonic clock ({!Clock.now_s}). *)

val finish :
  ?fields:(string * Json.t) list -> Sink.t -> open_span -> unit
(** Emit a ["span"] event carrying [dur_s] (monotonic duration) plus
    the caller's fields. *)

val run :
  ?fields:(string * Json.t) list ->
  Sink.t ->
  name:string ->
  (unit -> 'a) ->
  'a
(** Time a callback; the span is emitted whether it returns or raises
    (with an [ok] boolean field). *)
