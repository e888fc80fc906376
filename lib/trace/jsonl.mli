(** Causal traces as {!Telemetry.Record} run records.

    {!write} leaves one {!Telemetry.Record.Trace} run: a header that
    adds the trace identity (source, model, N, M, meta) to the record
    header, then one line per event.  {!read} goes through
    {!Telemetry.Record.read}, so it refuses any other record and any
    other schema, naming the file and the line. *)

val write : path:string -> Event.trace -> unit

val read : path:string -> (Event.trace, string) result
