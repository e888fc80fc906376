(** The reproduction experiments, E1–E10 (see DESIGN.md §4 and
    EXPERIMENTS.md).  Each returns one or more rendered-ready tables.

    [quick:true] shrinks every run (used by the test suite to keep
    [dune runtest] fast); [bakery_cli bench] passes [--quick]'s value. *)

type experiment = {
  id : string;
  summary : string;  (** one line: which paper claim this regenerates *)
  run : quick:bool -> Table.t list;
}

val e1 : quick:bool -> Table.t list
(** §6 TLC run: Bakery++ satisfies mutex and no-overflow. *)

val e2 : quick:bool -> Table.t list
(** §3: bounded registers overflow under Bakery (and the ticket lock). *)

val e3 : quick:bool -> Table.t list
(** §6.2: Bakery++ refines Bakery (stutter-closed trace inclusion). *)

val e4 : quick:bool -> Table.t list
(** §3/§4: time/steps to first overflow vs register width M. *)

val e5 : quick:bool -> Table.t list
(** §7: throughput parity of Bakery vs Bakery++ when M is large. *)

val e6 : quick:bool -> Table.t list
(** §7: reset and gate cost of Bakery++ as M shrinks. *)

val e7 : quick:bool -> Table.t list
(** §4: algorithm-zoo comparison (throughput, space, peak ticket). *)

val e8 : quick:bool -> Table.t list
(** §1.2/§8.2: FCFS and fairness across the zoo. *)

val e9 : quick:bool -> Table.t list
(** §6.3: starvation lassos at the L1 gate. *)

val e10 : quick:bool -> Table.t list
(** §8.1: more processes than ticket values (N > M). *)

val e11 : quick:bool -> Table.t list
(** Model-checker throughput: the compiled successor engine and the
    persistent-pool parallel BFS against the AST-interpreter baseline,
    on the same exhaustive Bakery++ workloads.  Records
    (experiment, metric, value) triples via {!record_metric}. *)

val e12 : quick:bool -> Table.t list
(** Sharded explorer: exhaustive Bakery++ configurations past the old
    engine's small-N wall, using the fingerprint-sharded visited set.
    Reports the engine's collision / steal / hand-off telemetry
    alongside throughput. *)

val e13 : quick:bool -> Table.t list
(** SLO observatory: every algorithm in the sweep under identical
    seeded open-loop Poisson traffic ({!Workload.Openloop}), scored on
    goodput, coordinated-omission-free tail latency, FCFS inversions
    and Jain fairness; plus the overflow observatory — time until the
    unbounded bakery's peak ticket would have overflowed a width-M
    register, and Bakery++ reset storms under the same traffic.
    Records flat datapoints via {!record_metric} and whole scorecards
    via {!record_scorecard}. *)

val e15 : quick:bool -> Table.t list
(** Symmetry + ample-set POR reduction sweep ({!Modelcheck.Reduce}) over
    the pid-symmetric zoo models: quotient state counts and reduction
    ratios per mode, plus the C8 (N > M) configurations at sizes where
    the unreduced search exhausts its state budget.  Records
    (experiment, metric, value) datapoints with the reduce mode embedded
    in the metric name, so regression gating never compares across
    modes. *)

val e16 : quick:bool -> Table.t list
(** Flight-recorded soak: a Seconds-budget open-loop run (60 s full,
    ~1 s quick) against Bakery++ with the flight recorder riding the
    observatory sampler; the recorded p99 and heap series get
    {!Obs.Analyze.drift} verdicts, which land both in the table and in
    the BENCH_locks.json row via {!record_scorecard}'s [extra]. *)

val e15_modes : Modelcheck.Reduce.mode list ref
(** Reduction modes {!e15} sweeps, [[Off; Sym; Sym_por]] by default.
    The bench CLI's [--reduce] flag narrows it to [Off] plus the chosen
    mode — the unreduced baseline stays in as the ratio denominator. *)

type datapoint = {
  dp_exp : string;
  dp_metric : string;
  dp_value : float;
  dp_engine : string option;  (** which engine produced it (E11 rows) *)
  dp_wall_s : float option;  (** wall-clock seconds of the measured run *)
}

val record_metric :
  ?engine:string -> ?wall_s:float -> exp:string -> metric:string -> float -> unit
(** Record one machine-readable datapoint (drained by the bench driver
    into [--json] output and [BENCH_modelcheck.json]; the driver
    additionally stamps each with a timestamp and run metadata). *)

val take_metrics : unit -> datapoint list
(** All datapoints recorded since the last call, oldest first; clears
    the buffer. *)

val record_scorecard :
  ?extra:(string * Telemetry.Json.t) list -> Workload.Scorecard.t -> unit
(** Buffer one whole lock scorecard (E13, E16); drained separately from
    the flat datapoints because the bench driver persists the full rows
    to [BENCH_locks.json].  [extra] (default none) carries fields the
    scorecard schema has no slot for — E16's drift verdicts — appended
    verbatim to the persisted JSON row. *)

val take_scorecards :
  unit -> (Workload.Scorecard.t * (string * Telemetry.Json.t) list) list
(** All (scorecard, extra-fields) pairs recorded since the last call,
    oldest first; clears the buffer. *)

val ns_cell : int -> string
(** Nanoseconds as a table cell: ["850ns"], ["1.2us"], ["3.45ms"]; ["-"] for 0. *)

val slo_cell : Workload.Scorecard.t -> string
(** ["pass"], or ["FAIL: "] and the scorecard's SLO reasons. *)

val lock_resolver : ?bound:int -> unit -> Workload.Suite.resolver
(** The zoo resolver the observatory cells use: looks the family up in
    {!Registry} and instantiates it with [bound] (default 4096;
    [ticket_mod] always gets 64, as in the microbenchmarks). *)

val a1 : quick:bool -> Table.t list
(** Ablation: Bakery++ without the L1 gate (safety survives). *)

val a2 : quick:bool -> Table.t list
(** Ablation: increment before the capacity check (unsound from N = 3). *)

val a3 : quick:bool -> Table.t list
(** Ablation: the paper's §5 remark on [>=] vs [=] under read anomalies. *)

val all : experiment list
(** E1-E10 then A1-A3; the bench driver iterates this. *)

val find : string -> experiment
(** Raises [Not_found]. *)
