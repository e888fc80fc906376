(** Run records: the one on-disk layout of what a run leaves behind.

    A run record is a JSONL file that runs append to.  Each run opens
    with one header line,
    [{"kind": "header", "name": R, "schema": 1, <Runmeta fields>}],
    and owns every line up to the next header; R ({!name}) says what
    those lines are.  This module builds every header ({!Sink.jsonl}
    writes one when it opens a file) and is the one reader. *)

type name =
  | Events
      (** progress and span events: [--trace-out] of [check], [sim],
          [fuzz] and [bench] *)
  | Flight  (** flight-recorder samples: [--flight-out] *)
  | Metrics  (** one line per instrument at the end of a run: [--metrics-out] *)
  | Trace  (** a causal trace: [explain --trace-out] *)

val schema : int
(** The version of the body lines, the same for every name.  Bumped on
    an incompatible change; {!read} refuses any other. *)

val header : ?extra:(string * Json.t) list -> name -> Json.t
(** The header line: kind, name, {!schema}, the {!Runmeta.to_fields} of
    {!Runmeta.capture}, then [extra] (the causal trace's identity). *)

type 'a run = {
  name : name;
  header : Json.t;
  body : 'a list;  (** the run's lines after its header, decoded, in file order *)
}

val read :
  accept:name list ->
  decode:(name -> Json.t -> ('a, string) result) ->
  string ->
  ('a run list, string) result
(** [read ~accept ~decode path] splits the file into its runs, in file
    order, decoding each body line with [decode] of its run's name.
    Blank lines are skipped.  [Error] when the file cannot be opened;
    otherwise every [Error] reads ["PATH:LINE: reason"]: the file holds
    no header, a line is not JSON, a line comes before the first header,
    a header's name is not in [accept] or its schema is not {!schema},
    or [decode] refuses a line.  So an [Ok] list is never empty. *)
