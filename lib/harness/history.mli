(** The BENCH histories a bench run appends to, and the
    [--check-regress] gate over them: [BENCH_modelcheck.json] holds the
    E11/E12/E14/E15 datapoints, a scorecard file ([BENCH_locks.json] by
    default) the E13, E16 and [bench locks] scorecards.  Both are JSON
    arrays read and written through {!Workload.Suite.load_rows} and
    {!Workload.Suite.write_rows}. *)

val stamp :
  timestamp:float -> (string * Telemetry.Json.t) list -> Telemetry.Json.t
(** [stamp ~timestamp fields] is the row [fields] followed by
    [timestamp], the {!Telemetry.Runmeta} fields ([git_rev], [host],
    [nprocs], [os], [ocaml]) and the GC fields ([gc_minor], [gc_major],
    [gc_heap_mb]).  Every row a history gains is stamped by it. *)

val record :
  ?json:string ->
  check_regress:bool ->
  modelcheck:string ->
  scorecards:string ->
  Experiments.datapoint list ->
  (Workload.Scorecard.t * (string * Telemetry.Json.t) list) list ->
  int
(** [record ~check_regress ~modelcheck ~scorecards datapoints cards]
    persists what one bench run recorded and returns its exit status.
    Every datapoint is written to [json] when given; the E11/E12/E14/E15
    ones are appended to [modelcheck], and every scorecard with its
    extra fields to [scorecards].  A history that is not a JSON array is
    reported, treated as empty and replaced.

    With [check_regress], each fresh E11/E12/E14/E15
    [.../states_per_sec] datapoint is compared with the best prior value
    of its metric in [modelcheck] (prior rows without a string [metric]
    and a numeric [value] are skipped and counted), and each scorecard
    with the prior [scorecards] rows by {!Workload.Suite.regress}; each
    comparison prints one [regress-check] line.  The status is 1 when a
    fresh value falls below {!Workload.Suite.threshold} of its best
    prior, 2 when there is nothing to compare, and 0 otherwise. *)
