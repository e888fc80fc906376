(** Flight samples: the body of a {!Telemetry.Record.Flight} run.

    Each sample is a numeric key-value snapshot of whatever the
    producer chose to record — explorer throughput, live lock
    percentiles, GC gauges — stamped with a sequence number and seconds
    since the recorder started.  The record is append-only and every
    line is flushed as written, so a run killed mid-flight leaves a
    well-formed prefix ready for [bakery_cli report]. *)

type sample = {
  seq : int;  (** 0-based, gap-free as written (gaps mean ring drops) *)
  at_s : float;  (** seconds since the recorder was created *)
  values : (string * float) list;  (** sorted by metric name *)
}

val sample : seq:int -> at_s:float -> (string * float) list -> sample
(** Sorts [values] by name (deterministic JSON and lookups). *)

val sample_fields : sample -> (string * Telemetry.Json.t) list
(** [seq], [at_s] and [values]: the fields of a ["flight"] event. *)

val sample_of_json : Telemetry.Json.t -> (sample, string) result

(** {1 Series extraction} *)

val names : sample list -> string list
(** Sorted union of metric names across all samples. *)

val series : sample list -> string -> float array
(** Values of one metric in sample order, skipping samples where it is
    absent. *)

val times : sample list -> string -> float array
(** [at_s] of exactly the samples {!series} kept, so
    [times s n] and [series s n] always zip. *)
