(** Pluggable destinations for telemetry events.

    An event is a timestamped, named bag of JSON fields: progress
    ticks, span completions and metric snapshots all flow through the
    same type, so any component can be pointed at [null] (free),
    [stderr_human] (interactive runs) or [jsonl] (machine-readable,
    one event per line) without changing its instrumentation. *)

type event = {
  time : float;  (** wall-clock seconds since the epoch *)
  kind : string;  (** ["progress"], ["span"], ["snapshot"], ... *)
  name : string;  (** emitting component, e.g. ["explore"] *)
  fields : (string * Json.t) list;
}

type t = { emit : event -> unit; close : unit -> unit }

val event :
  ?time:float -> kind:string -> name:string -> (string * Json.t) list -> event
(** [time] defaults to the current wall clock. *)

val null : t
(** Drops everything; [close] is a no-op. *)

val stderr_human : unit -> t
(** One line per event on stderr:
    [\[kind name +12.3s\] key=value key=value ...] where the offset is
    seconds since the sink was created.  Numeric fields print
    compactly; strings print bare unless they contain spaces. *)

val jsonl : Record.name -> string -> t
(** [jsonl name path] appends a run to the run record at [path]
    (created if missing): the {!Record.header} of [name], written when
    the file opens, then one JSON object per event:
    [{"t": ..., "kind": ..., "name": ..., <fields>}].  Serialized by an
    internal mutex and flushed after every line, so a run killed
    mid-flight leaves a well-formed prefix; [close] flushes and
    closes. *)

val tee : t list -> t
(** Fan out to several sinks; [close] closes them all. *)
