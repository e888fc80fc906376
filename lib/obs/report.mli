(** The run-report renderer behind [bakery_cli report]: flight
    records, metric snapshots, event streams and bench rows in, one
    deterministic markdown document out.

    Determinism is the contract the golden tests enforce: the output
    is a pure function of {!input} — no clocks, no hostnames, no git
    revisions, keys always sorted, floats always formatted the same
    way — so the same files render byte-identically on any machine,
    and a report diff is a run diff. *)

type input = {
  flight_header : Telemetry.Json.t option;
  flight : Flight.sample list;
  metrics : Telemetry.Json.t list;
      (** metrics-snapshot rows ([{"metric": ..., "value": ...}]); when
          a name repeats the last row wins *)
  events : Telemetry.Json.t list;  (** progress and span events *)
  bench : Telemetry.Json.t list;  (** BENCH_*.json rows *)
}

val empty : input

val add_record : input -> string -> (input, string) result
(** Read the run record at the path ({!Telemetry.Record.read}) into
    the section its runs fill: a flight run into [flight_header] and
    [flight], a metrics run into [metrics], an events run into
    [events].  Each run replaces what an earlier one of its name put
    there, so of several appended runs the last one is rendered.  A
    causal trace, or any error of {!Telemetry.Record.read}, is an
    [Error] naming the file and the line. *)

val render : input -> string
(** Markdown: a summary with an overall verdict ([OK], or [ATTENTION]
    with the findings that earned it), per-series tables with unicode
    sparklines, drift verdicts on tail/heap series, a completion ETA
    when the flight record carries explorer progress against a known
    state-count target, shard-balance attribution, the metrics
    snapshot, scorecard cells diffed against their best prior rows,
    and event counts by kind.  Sections with no data are omitted. *)
