module MC = Modelcheck
module LI = Locks.Lock_intf

type experiment = {
  id : string;
  summary : string;
  run : quick:bool -> Table.t list;
}

(* Machine-readable datapoints recorded while experiments run; the
   bench driver drains them into JSON files so perf trajectories can be
   tracked across PRs and machines (each datapoint also carries which
   engine produced it and the wall time of the measured run). *)
type datapoint = {
  dp_exp : string;
  dp_metric : string;
  dp_value : float;
  dp_engine : string option;
  dp_wall_s : float option;
}

let metrics : datapoint list ref = ref []

let record_metric ?engine ?wall_s ~exp ~metric value =
  metrics :=
    {
      dp_exp = exp;
      dp_metric = metric;
      dp_value = value;
      dp_engine = engine;
      dp_wall_s = wall_s;
    }
    :: !metrics

let take_metrics () =
  let m = List.rev !metrics in
  metrics := [];
  m

let outcome_cell (r : MC.Explore.result) =
  match r.outcome with
  | MC.Explore.Pass -> "PASS"
  | Violation { invariant; trace } ->
      Printf.sprintf "VIOLATION %s (trace %d)" invariant (MC.Trace.length trace)
  | Deadlock _ -> "DEADLOCK"
  | Capacity -> "capacity"

let gran_name = Algorithms.Common.granularity_name

let ns_cell = function
  | 0 -> "-"
  | ns when ns < 1_000 -> Printf.sprintf "%dns" ns
  | ns when ns < 1_000_000 -> Printf.sprintf "%.1fus" (float_of_int ns /. 1e3)
  | ns -> Printf.sprintf "%.2fms" (float_of_int ns /. 1e6)

(* Render an [acq_pXX_ns] entry from instrumented lock stats (see
   Locks.Latency); "-" when the lock was run uninstrumented or never
   acquired. *)
let latency_cell stats key =
  ns_cell (Option.value (List.assoc_opt key stats) ~default:0)

(* ------------------------------------------------------------------ E1 *)

let e1 ~quick =
  let t =
    Table.make
      ~title:"E1 (paper §6): model checking Bakery++ — mutex & no-overflow"
      ~notes:
        [
          "reproduces the paper's TLC result: both invariants hold on every \
           reachable state";
          "granularity 'coarse' = the PlusCal atomicity the paper checked; \
           'fine' = one register read per step";
        ]
      [ "N"; "M"; "granularity"; "outcome"; "generated"; "distinct"; "depth"; "time(s)" ]
  in
  let configs =
    if quick then
      [ (2, 2, Algorithms.Common.Coarse); (2, 2, Algorithms.Common.Fine) ]
    else
      [
        (2, 2, Algorithms.Common.Coarse);
        (2, 3, Algorithms.Common.Coarse);
        (2, 4, Algorithms.Common.Coarse);
        (3, 2, Algorithms.Common.Coarse);
        (3, 3, Algorithms.Common.Coarse);
        (2, 2, Algorithms.Common.Fine);
        (2, 3, Algorithms.Common.Fine);
        (2, 4, Algorithms.Common.Fine);
      ]
  in
  List.iter
    (fun (n, m, g) ->
      let r = Core.Verify.check_bakery_pp ~granularity:g ~nprocs:n ~bound:m () in
      Table.add_rowf t "%d|%d|%s|%s|%d|%d|%d|%.3f" n m (gran_name g)
        (outcome_cell r) r.stats.generated r.stats.distinct r.stats.depth
        r.stats.runtime)
    configs;
  [ t ]

(* ------------------------------------------------------------------ E2 *)

let e2 ~quick =
  let t =
    Table.make
      ~title:
        "E2 (paper §3): bounded registers overflow under the original Bakery"
      ~notes:
        [
          "the checker finds a shortest run that stores a ticket > M; the \
           unbounded ticket lock fails the same way";
          "Bakery++ rows are the control: same configurations, no overflow \
           reachable";
        ]
      [ "algorithm"; "N"; "M"; "outcome"; "distinct"; "time(s)" ]
  in
  let row name program ~invs ~n ~m =
    let sys = MC.System.make program ~nprocs:n ~bound:m in
    let r = MC.Explore.run ~invariants:invs sys in
    Table.add_rowf t "%s|%d|%d|%s|%d|%.3f" name n m (outcome_cell r)
      r.stats.distinct r.stats.runtime
  in
  let no = [ MC.Invariant.no_overflow ] in
  let configs = if quick then [ (2, 2) ] else [ (2, 2); (2, 3); (3, 2) ] in
  List.iter
    (fun (n, m) -> row "bakery" (Algorithms.Bakery.program ()) ~invs:no ~n ~m)
    configs;
  if not quick then begin
    row "bakery(fine)"
      (Algorithms.Bakery.program ~granularity:Algorithms.Common.Fine ())
      ~invs:no ~n:2 ~m:2;
    row "ticket" (Algorithms.Ticket_model.program ()) ~invs:no ~n:2 ~m:3
  end;
  List.iter
    (fun (n, m) ->
      row "bakery_pp" (Core.Bakery_pp_model.program ())
        ~invs:[ MC.Invariant.mutex; MC.Invariant.no_overflow ]
        ~n ~m)
    configs;
  [ t ]

(* ------------------------------------------------------------------ E3 *)

let e3 ~quick =
  let t =
    Table.make
      ~title:
        "E3 (paper §6.2): Bakery++ refines Bakery — stutter-closed trace \
         inclusion over protocol phases"
      ~notes:
        [
          "'every execution of Bakery++ is a valid execution of Bakery', \
           checked by subset-construction simulation";
          "spec (unbounded Bakery) closed under a ticket cap of M+N";
        ]
      [ "N"; "M"; "included"; "complete"; "impl pairs"; "spec states" ]
  in
  (* The subset construction is exponential in the spec set; N = 3 blows
     past minutes, so the inclusion is checked for two processes at
     several register widths. *)
  let configs = if quick then [ (2, 2) ] else [ (2, 2); (2, 3); (2, 4) ] in
  List.iter
    (fun (n, m) ->
      let r = Core.Verify.refines_bakery ~nprocs:n ~bound:m () in
      Table.add_rowf t "%d|%d|%b|%b|%d|%d" n m r.included r.complete
        r.impl_pairs r.spec_states)
    configs;
  [ t ]

(* ------------------------------------------------------------------ E4 *)

(* The paper's §3 scenario needs the bakery to stay nonempty.  Strict
   alternation (round-robin) realizes it exactly for two processes; with
   three or more, even a uniform random scheduler sustains the overlap. *)
let overflow_strategy ~nprocs ~seed =
  if nprocs <= 2 then Schedsim.Scheduler.Round_robin
  else Schedsim.Scheduler.Uniform seed

let sim_steps_to_overflow ~nprocs ~bound ~seed =
  let prog = Algorithms.Bakery.program () in
  let cfg =
    {
      (Schedsim.Runner.default_config ~nprocs ~bound) with
      strategy = overflow_strategy ~nprocs ~seed;
      overflow_policy = Schedsim.Runner.Stop;
      max_steps = 50_000_000;
    }
  in
  let r = Schedsim.Runner.run prog cfg in
  (r.steps, Schedsim.Runner.total_cs r, r.outcome = Schedsim.Runner.Overflow_stop)

let e4 ~quick =
  let sim =
    Table.make
      ~title:
        "E4a (paper §3): interleaving steps until the first register \
         overflow — original Bakery, simulator"
      ~notes:
        [
          "the §3 scenario: with the bakery never empty, tickets climb to M \
           and overflow; steps grow linearly in M";
          "Bakery++ control rows run 4x the Bakery budget and never overflow \
           (resets shown instead)";
        ]
      [ "algorithm"; "N"; "M"; "steps"; "CS entries"; "overflowed"; "resets" ]
  in
  let ms = if quick then [ 255 ] else [ 255; 4095; 65535 ] in
  let ns = if quick then [ 2 ] else [ 2; 4 ] in
  List.iter
    (fun n ->
      List.iter
        (fun m ->
          let steps, cs, ov = sim_steps_to_overflow ~nprocs:n ~bound:m ~seed:11 in
          Table.add_rowf sim "bakery|%d|%d|%d|%d|%b|-" n m steps cs ov;
          let prog = Core.Bakery_pp_model.program () in
          let cfg =
            {
              (Schedsim.Runner.default_config ~nprocs:n ~bound:m) with
              strategy = overflow_strategy ~nprocs:n ~seed:11;
              max_steps = 4 * steps;
            }
          in
          let r = Schedsim.Runner.run prog cfg in
          Table.add_rowf sim "bakery_pp|%d|%d|%d|%d|%b|%d" n m r.steps
            (Schedsim.Runner.total_cs r)
            (r.overflow_events > 0)
            (Schedsim.Metrics.label_count prog r Core.Bakery_pp_model.reset_label))
        ms)
    ns;
  let real =
    Table.make
      ~title:
        "E4b: wall-clock time to first overflow — real domains, M-bounded \
         registers (Trap policy)"
      ~notes:
        [
          "the paper cites Aravind: a 32-bit Bakery can overflow in under a \
           minute; scaled-down M makes it sub-second";
          "bakery_pp rows: same duration budget, overflow impossible by \
           construction";
        ]
      [ "lock"; "domains"; "M"; "acquires"; "seconds"; "overflowed" ]
  in
  let ms_real = if quick then [ 63 ] else [ 255; 1023 ] in
  List.iter
    (fun m ->
      let lock = Locks.Bakery_bounded_lock.create ~nprocs:2 ~bound:m in
      let r =
        Throughput.run_until_overflow
          ~max_seconds:(if quick then 3.0 else 10.0)
          ~make:(fun () ->
            LI.instance_of (module Locks.Bakery_bounded_lock) lock)
          ~recover:(Locks.Bakery_bounded_lock.crash_reset lock)
          ~nprocs:2 ()
      in
      Table.add_rowf real "bakery_bounded|2|%d|%d|%.3f|%b" m r.acquires_before
        r.seconds_before r.overflowed)
    ms_real;
  (* Control: Bakery++ with the same bound for a fixed duration. *)
  List.iter
    (fun m ->
      let lock = Core.Bakery_pp_lock.create_lock ~nprocs:2 ~bound:m in
      let inst = LI.instance_of (module Core.Bakery_pp_lock) lock in
      let r = Throughput.run ~duration:(if quick then 0.15 else 0.5) inst ~nprocs:2 in
      let snap = Core.Bakery_pp_lock.snapshot lock in
      Table.add_rowf real "bakery_pp|2|%d|%d|%.3f|false (resets=%d)" m r.total
        r.elapsed snap.resets)
    ms_real;
  [ sim; real ]

(* ------------------------------------------------------------------ E5 *)

let instance_for (family : LI.family) ~nprocs ~bound =
  family.make ~nprocs ~bound

let e5 ~quick =
  let sim =
    Table.make
      ~title:
        "E5a (paper §7): temporal-complexity parity — steps per CS entry, \
         Bakery vs Bakery++ with ample register width (simulator)"
      ~notes:
        [
          "with M = 2^20 the gate never closes and no reset ever fires; the \
           deterministic interleaving count isolates algorithmic cost from \
           machine noise";
          "expected shape: ratio slightly above 1 (the L1 gate is one extra \
           atomic step per entry), independent of N";
        ]
      [
        "N"; "bakery steps/CS"; "bakery_pp steps/CS"; "ratio"; "pp resets";
      ]
  in
  let big = 1 lsl 20 in
  let steps = if quick then 100_000 else 600_000 in
  let steps_per_cs prog n =
    let cfg =
      {
        (Schedsim.Runner.default_config ~nprocs:n ~bound:big) with
        strategy = Schedsim.Scheduler.Uniform 13;
        max_steps = steps;
      }
    in
    let r = Schedsim.Runner.run prog cfg in
    let cs = Schedsim.Runner.total_cs r in
    let resets =
      match
        Schedsim.Metrics.label_count prog r Core.Bakery_pp_model.reset_label
      with
      | n -> n
      | exception Not_found -> 0 (* the original Bakery has no reset step *)
    in
    ((if cs = 0 then 0.0 else float_of_int r.steps /. float_of_int cs), resets)
  in
  List.iter
    (fun n ->
      let b, _ = steps_per_cs (Algorithms.Bakery.program ()) n in
      let p, resets = steps_per_cs (Core.Bakery_pp_model.program ()) n in
      Table.add_rowf sim "%d|%.2f|%.2f|%.3f|%d" n b p (p /. b) resets)
    (if quick then [ 2; 4 ] else [ 2; 4; 8 ]);
  let real =
    Table.make
      ~title:
        "E5b: the same comparison on real domains (wall clock; single-core \
         machine, multi-domain rows are scheduler-bound and noisy)"
      ~notes:
        [
          "the 1-domain row is the reliable hardware signal: Bakery++'s \
           uncontended overhead is the one extra O(N) gate scan (see also \
           the uB microbenchmark)";
          "p50/p95 acq: acquire-latency percentiles from the telemetry \
           histogram wrapper (Locks.Latency); multi-domain rows include \
           scheduler handoff waits";
        ]
      [
        "domains"; "bakery ops/s"; "bakery_pp ops/s"; "ratio"; "pp resets";
        "pp p50 acq"; "pp p95 acq";
      ]
  in
  let big = 1 lsl 40 in
  let duration = if quick then 0.1 else 0.4 in
  let ns = if quick then [ 1; 2 ] else [ 1; 2; 4 ] in
  List.iter
    (fun n ->
      let b =
        Throughput.run ~duration
          (instance_for (Registry.find_family "bakery") ~nprocs:n ~bound:big)
          ~nprocs:n
      in
      let lock = Core.Bakery_pp_lock.create_lock ~nprocs:n ~bound:big in
      let p =
        Throughput.run ~duration ~instrument:true
          (LI.instance_of (module Core.Bakery_pp_lock) lock)
          ~nprocs:n
      in
      let snap = Core.Bakery_pp_lock.snapshot lock in
      Table.add_rowf real "%d|%s|%s|%.2f|%d|%s|%s" n
        (Table.format_si b.ops_per_sec)
        (Table.format_si p.ops_per_sec)
        (p.ops_per_sec /. b.ops_per_sec)
        snap.resets
        (latency_cell p.lock_stats "acq_p50_ns")
        (latency_cell p.lock_stats "acq_p95_ns"))
    ns;
  [ sim; real ]

(* ------------------------------------------------------------------ E6 *)

let e6 ~quick =
  let real =
    Table.make
      ~title:
        "E6a (paper §7): the price of overflow avoidance — Bakery++ under \
         shrinking M (2 domains)"
      ~notes:
        [
          "smaller M means more resets and more time parked at the L1 gate; \
           throughput recovers as M grows";
        ]
      [
        "M"; "ops/s"; "resets"; "resets/1k acq"; "gate spins/acq"; "peak ticket";
      ]
  in
  let ms = if quick then [ 4; 64 ] else [ 2; 4; 16; 64; 256; 1024 ] in
  let duration = if quick then 0.1 else 0.35 in
  List.iter
    (fun m ->
      let lock = Core.Bakery_pp_lock.create_lock ~nprocs:2 ~bound:m in
      let r =
        Throughput.run ~duration
          (LI.instance_of (module Core.Bakery_pp_lock) lock)
          ~nprocs:2
      in
      let s = Core.Bakery_pp_lock.snapshot lock in
      let per_k =
        if s.acquires = 0 then 0.0
        else 1000.0 *. float_of_int s.resets /. float_of_int s.acquires
      in
      let spins_per =
        if s.acquires = 0 then 0.0
        else float_of_int s.gate_spins /. float_of_int s.acquires
      in
      Table.add_rowf real "%d|%s|%d|%.1f|%.2f|%d" m
        (Table.format_si r.ops_per_sec)
        s.resets per_k spins_per s.peak_ticket)
    ms;
  let sim =
    Table.make
      ~title:"E6b: same sweep on the deterministic simulator (N=4)"
      [
        "M"; "steps/CS entry"; "CS entries"; "resets/1k CS"; "L1 waits/CS";
      ]
  in
  let steps = if quick then 100_000 else 1_000_000 in
  let prog = Core.Bakery_pp_model.program () in
  List.iter
    (fun m ->
      let cfg =
        {
          (Schedsim.Runner.default_config ~nprocs:4 ~bound:m) with
          strategy = Schedsim.Scheduler.Uniform 5;
          max_steps = steps;
        }
      in
      let r = Schedsim.Runner.run prog cfg in
      let cs = Schedsim.Runner.total_cs r in
      let resets =
        Schedsim.Metrics.label_count prog r Core.Bakery_pp_model.reset_label
      in
      let gate_spins =
        Schedsim.Metrics.label_count prog r Core.Bakery_pp_model.gate_label - cs
      in
      Table.add_rowf sim "%d|%.1f|%d|%.1f|%.2f" m
        (if cs = 0 then 0.0 else float_of_int r.steps /. float_of_int cs)
        cs
        (if cs = 0 then 0.0 else 1000.0 *. float_of_int resets /. float_of_int cs)
        (if cs = 0 then 0.0 else float_of_int (max gate_spins 0) /. float_of_int cs))
    (if quick then [ 4; 64 ] else [ 2; 4; 16; 64; 256 ]);
  [ real; sim ]

(* ------------------------------------------------------------------ E7 *)

let e7 ~quick =
  let t =
    Table.make
      ~title:
        "E7 (paper §4): the bounded-mutex design space — throughput, space, \
         ticket growth"
      ~notes:
        [
          "space = shared register words; peak = largest value stored in a \
           ticket register (growth behaviour)";
          "ticket/tas/ttas assume atomic read-modify-write, i.e. lower-level \
           mutual exclusion — not 'true' solutions in the paper's sense";
          "p50/p95 acq: acquire-latency percentiles from the telemetry \
           histogram wrapper (Locks.Latency), same instrumentation for \
           every family";
        ]
      [
        "lock"; "domains"; "ops/s"; "space words"; "peak ticket"; "p50 acq";
        "p95 acq";
      ]
  in
  let duration = if quick then 0.08 else 0.25 in
  let ns = if quick then [ 2 ] else [ 2; 4 ] in
  let bound = 1 lsl 40 in
  List.iter
    (fun (family : LI.family) ->
      List.iter
        (fun n ->
          if (not family.two_process_only) || n = 2 then begin
            let b = if family.family_name = "ticket_mod" then 64 else bound in
            let inst = family.make ~nprocs:n ~bound:b in
            let r = Throughput.run ~duration ~instrument:true inst ~nprocs:n in
            let peak =
              match List.assoc_opt "peak_ticket" (r.lock_stats) with
              | Some p -> string_of_int p
              | None -> "-"
            in
            Table.add_rowf t "%s|%d|%s|%d|%s|%s|%s" family.family_name n
              (Table.format_si r.ops_per_sec)
              r.space_words peak
              (latency_cell r.lock_stats "acq_p50_ns")
              (latency_cell r.lock_stats "acq_p95_ns")
          end)
        ns)
    Registry.lock_families;
  [ t ]

(* ------------------------------------------------------------------ E8 *)

let e8 ~quick =
  let steps = if quick then 100_000 else 600_000 in
  let uniform =
    Table.make
      ~title:
        "E8a (paper §1.2): first-come-first-served order and fairness, \
         uniform random scheduler (N=4, simulator)"
      ~notes:
        [
          "FCFS inversions: CS entries that overtook a process whose doorway \
           finished before theirs started ('-' = algorithm has no doorway)";
          "max overtakes: entries by others while one process waited after \
           its doorway; bakery-family FCFS implies <= N-1 = 3";
          "Jain index over per-process CS entries: 1.0 = perfectly fair";
        ]
      [
        "algorithm"; "CS entries"; "FCFS inversions"; "max overtakes";
        "Jain index"; "max wait";
      ]
  in
  let has_doorway prog =
    Array.exists (fun (s : Mxlang.Ast.step) -> s.kind = Mxlang.Ast.Doorway)
      prog.Mxlang.Ast.steps
  in
  let algos =
    [
      "bakery"; "bakery_pp"; "black_white_bakery"; "ticket"; "szymanski";
      "eisenberg_mcguire"; "knuth"; "filter"; "burns_lynch"; "fast_mutex";
      "tas";
    ]
  in
  List.iter
    (fun name ->
      let prog = Registry.find_model name in
      let bound = 1 lsl 20 in
      let cfg =
        {
          (Schedsim.Runner.default_config ~nprocs:4 ~bound) with
          strategy = Schedsim.Scheduler.Uniform 23;
          max_steps = steps;
          record_events = true;
        }
      in
      let r = Schedsim.Runner.run prog cfg in
      let doorway = has_doorway prog in
      let inversions =
        (* Derived from the causal trace's label transitions; the
           runner's own counter is kept as a differential oracle. *)
        if doorway then begin
          let derived =
            Trace.Query.fcfs_inversions
              (Trace.Of_sim.trace prog ~nprocs:4 ~bound r)
          in
          if derived <> r.fcfs_inversions then
            failwith
              (Printf.sprintf
                 "E8 %s: trace-derived FCFS inversions (%d) disagree with \
                  the runner counter (%d)"
                 name derived r.fcfs_inversions);
          string_of_int derived
        end
        else "-"
      in
      let overtakes =
        if doorway then string_of_int (Schedsim.Metrics.max_overtakes r)
        else "-"
      in
      Table.add_rowf uniform "%s|%d|%s|%s|%.3f|%d" name
        (Schedsim.Runner.total_cs r)
        inversions overtakes
        (Workload.Fairness.jain r.cs_entries)
        (Schedsim.Metrics.max_waiting_time r))
    algos;
  let handicap =
    Table.make
      ~title:
        "E8b: a 50x slower process 0 (handicap scheduler) — who still serves \
         it?"
      ~notes:
        [
          "share = CS entries of the slow process / total; FCFS algorithms \
           keep serving it, unfair locks may not";
        ]
      [ "algorithm"; "CS entries"; "slow-process share"; "Jain index" ]
  in
  List.iter
    (fun name ->
      let prog = Registry.find_model name in
      let bound = 1 lsl 20 in
      let cfg =
        {
          (Schedsim.Runner.default_config ~nprocs:4 ~bound) with
          strategy =
            Schedsim.Scheduler.Handicap { victim = 0; period = 50; seed = 29 };
          max_steps = steps;
        }
      in
      let r = Schedsim.Runner.run prog cfg in
      let total = Schedsim.Runner.total_cs r in
      let share =
        if total = 0 then 0.0
        else float_of_int r.cs_entries.(0) /. float_of_int total
      in
      Table.add_rowf handicap "%s|%d|%.4f|%.3f" name total share
        (Workload.Fairness.jain r.cs_entries))
    algos;
  [ uniform; handicap ]

(* ------------------------------------------------------------------ E9 *)

let e9 ~quick =
  let t =
    Table.make
      ~title:
        "E9 (paper §6.3): starvation lassos — can a process be parked \
         forever?"
      ~notes:
        [
          "'any' lasso ignores fairness; a 'fair' lasso passes through a \
           state where the victim is disabled, so even a weakly-fair \
           scheduler can starve it";
          "Bakery++'s L1 gate admits both (the paper's slow-process \
           scenario); the ticket-ordered waiting room of either algorithm \
           admits none (FCFS)";
        ]
      [
        "algorithm"; "victim parked at"; "N"; "M"; "lasso"; "cycle"; "CS/cycle";
        "fair";
      ]
  in
  (* No lasso in a graph cut by the state budget proves nothing. *)
  let absence (r : MC.Lasso.result) =
    if r.complete then "none" else "inconclusive"
  in
  let gate_row ~n ~m ~fair =
    let r =
      Core.Verify.starvation_lasso ~require_victim_disabled:fair ~nprocs:n
        ~bound:m ()
    in
    match r.witness with
    | Some w ->
        Table.add_rowf t "bakery_pp|L1 gate|%d|%d|FOUND|%d|%d|%s" n m
          (List.length w.cycle) w.cs_entries_in_cycle
          (if w.victim_continuously_enabled then "no (unfair only)" else "yes")
    | None -> Table.add_rowf t "bakery_pp|L1 gate|%d|%d|%s|-|-|-" n m (absence r)
  in
  gate_row ~n:3 ~m:2 ~fair:false;
  gate_row ~n:3 ~m:2 ~fair:true;
  if not quick then gate_row ~n:3 ~m:3 ~fair:true;
  (* Negative controls: the ticket-ordered waiting room is starvation-free
     in both algorithms. *)
  let waiting_row name program ~n ~m ~constraint_ =
    let sys = MC.System.make program ~nprocs:n ~bound:m in
    let r =
      MC.Lasso.find ?constraint_ ~victim:0
        ~stuck_at:(MC.Lasso.stuck_at_kind Mxlang.Ast.Waiting)
        sys
    in
    match r.witness with
    | Some w ->
        Table.add_rowf t "%s|waiting room|%d|%d|FOUND|%d|%d|?" name n m
          (List.length w.cycle) w.cs_entries_in_cycle
    | None ->
        Table.add_rowf t "%s|waiting room|%d|%d|%s|-|-|-" name n m (absence r)
  in
  waiting_row "bakery_pp" (Core.Bakery_pp_model.program ()) ~n:3 ~m:2
    ~constraint_:None;
  if not quick then
    waiting_row "bakery" (Algorithms.Bakery.program ()) ~n:3 ~m:2
      ~constraint_:(Some (Core.Verify.ticket_cap_constraint ~cap:5));
  [ t ]

(* ----------------------------------------------------------------- E10 *)

let e10 ~quick =
  let mc =
    Table.make
      ~title:
        "E10a (paper §8.1): more customers than tickets — safety when N > M"
      ~notes:
        [
          "Bakery++ stays safe (mutex, no overflow, no deadlock) even with \
           fewer ticket values than processes";
          "the modular ticket lock is the contrast: wrap with N > M breaks \
           mutual exclusion";
        ]
      [ "algorithm"; "N"; "M"; "outcome"; "distinct"; "time(s)" ]
  in
  let both = [ MC.Invariant.mutex; MC.Invariant.no_overflow ] in
  let row name program ~invs ~n ~m =
    let sys = MC.System.make program ~nprocs:n ~bound:m in
    let r = MC.Explore.run ~invariants:invs sys in
    Table.add_rowf mc "%s|%d|%d|%s|%d|%.3f" name n m (outcome_cell r)
      r.stats.distinct r.stats.runtime
  in
  row "bakery_pp" (Core.Bakery_pp_model.program ()) ~invs:both ~n:3 ~m:1;
  if not quick then begin
    row "bakery_pp" (Core.Bakery_pp_model.program ()) ~invs:both ~n:4 ~m:2;
    row "bakery_pp" (Core.Bakery_pp_model.program ()) ~invs:both ~n:4 ~m:1
  end;
  row "ticket_mod" (Algorithms.Ticket_model.program_mod ())
    ~invs:[ MC.Invariant.mutex ] ~n:3 ~m:2;
  let sim =
    Table.make
      ~title:"E10b: N > M under load (simulator) — liveness is preserved"
      ~notes:
        [ "every process keeps entering its CS; the price is resets and gate \
           waits, not progress" ]
      [
        "N"; "M"; "steps"; "CS entries"; "min CS/proc"; "resets"; "overflows";
      ]
  in
  let prog = Core.Bakery_pp_model.program () in
  let configs = if quick then [ (4, 2) ] else [ (4, 2); (8, 4); (8, 2) ] in
  List.iter
    (fun (n, m) ->
      let cfg =
        {
          (Schedsim.Runner.default_config ~nprocs:n ~bound:m) with
          strategy = Schedsim.Scheduler.Uniform 31;
          max_steps = (if quick then 100_000 else 500_000);
        }
      in
      let r = Schedsim.Runner.run prog cfg in
      Table.add_rowf sim "%d|%d|%d|%d|%d|%d|%d" n m r.steps
        (Schedsim.Runner.total_cs r)
        (Array.fold_left min max_int r.cs_entries)
        (Schedsim.Metrics.label_count prog r Core.Bakery_pp_model.reset_label)
        r.overflow_events)
    configs;
  [ mc; sim ]

(* ----------------------------------------------------------------- E11 *)

let e11 ~quick =
  let t =
    Table.make
      ~title:
        "E11 (ROADMAP north star): model-checker throughput — compiled \
         mxlang evaluator and persistent-pool parallel BFS vs the AST \
         interpreter"
      ~notes:
        [
          "same BFS loop, store and staged invariants (mutex & \
           no-overflow), same reachable set; only the successor function \
           changes, so interp vs compiled measures the evaluator layer \
           alone";
          "interp = AST re-interpreted per transition, its move list \
           copied into the search's scratch buffer; compiled = staged \
           closures, per-pid quantifier unrolling, moves built in place";
          "compiled_speedup rows from before the single sequential loop \
           (when interp was the whole seed engine: boxed states, a \
           Hashtbl, unstaged invariants) are not comparable with later \
           ones";
          "pool rows run level-parallel BFS on long-lived domains (spawned \
           once per run, not per wave); on a single-core host they only \
           add coordination cost";
          "speedup is distinct-states/sec relative to the interp row of \
           the same configuration";
          "each engine row reports the fastest of 3 runs (1 in quick \
           mode): the host shows multi-x timing drift between identical \
           runs, and min is the noise-robust estimator of true cost";
        ]
      [
        "model"; "N"; "M"; "engine"; "domains"; "distinct"; "generated";
        "time(s)"; "kstates/s"; "speedup";
      ]
  in
  let workloads =
    if quick then [ ("bakery_pp", Core.Bakery_pp_model.program (), 3, 2) ]
    else
      [
        ("bakery_pp", Core.Bakery_pp_model.program (), 4, 2);
        ("bakery_pp", Core.Bakery_pp_model.program (), 3, 3);
        ( "bakery_pp_fine",
          Core.Bakery_pp_model.program ~granularity:Algorithms.Common.Fine (),
          3, 2 );
      ]
  in
  List.iter
    (fun (name, prog, n, m) ->
      let sys = MC.System.make prog ~nprocs:n ~bound:m in
      let tag = Printf.sprintf "%s_n%d_m%d" name n m in
      let record engine domains r =
        let sps =
          if r.MC.Explore.stats.runtime > 0.0 then
            float_of_int r.stats.distinct /. r.stats.runtime
          else 0.0
        in
        let label = if domains = "-" then engine else engine ^ domains in
        record_metric ~engine:label ~wall_s:r.stats.runtime ~exp:"e11"
          ~metric:(Printf.sprintf "%s/%s/states_per_sec" tag label)
          sps;
        sps
      in
      let row engine domains (r : MC.Explore.result) ~baseline =
        let sps = record engine domains r in
        Table.add_rowf t "%s|%d|%d|%s|%s|%d|%d|%.3f|%.1f|%.2f" name n m engine
          domains r.stats.distinct r.stats.generated r.stats.runtime
          (sps /. 1e3)
          (if baseline > 0.0 then sps /. baseline else 1.0);
        sps
      in
      let reps = if quick then 1 else 3 in
      let best f =
        let r0 : MC.Explore.result = f () in
        let best = ref r0 in
        for _ = 2 to reps do
          let r : MC.Explore.result = f () in
          if r.stats.runtime < !best.stats.runtime then best := r
        done;
        !best
      in
      let interp = best (fun () -> MC.Explore.run ~interpreted:true sys) in
      let baseline = row "interp" "-" interp ~baseline:0.0 in
      let compiled = best (fun () -> MC.Explore.run sys) in
      (* The engines explore the same transition system: any divergence
         in the reachable set is a compiler bug, not a perf result. *)
      if
        compiled.stats.distinct <> interp.stats.distinct
        || compiled.stats.generated <> interp.stats.generated
      then failwith "e11: compiled and interpreted engines disagree";
      let csps = row "compiled" "-" compiled ~baseline in
      record_metric ~engine:"compiled" ~wall_s:compiled.stats.runtime
        ~exp:"e11"
        ~metric:(tag ^ "/compiled_speedup")
        (if baseline > 0.0 then csps /. baseline else 1.0);
      let pool_sweep = if quick then [ 1 ] else [ 1; 2; 4; 8 ] in
      List.iter
        (fun d ->
          ignore
            (row "pool" (string_of_int d)
               (best (fun () -> MC.Par_explore.run ~domains:d sys))
               ~baseline))
        pool_sweep)
    workloads;
  [ t ]

(* ----------------------------------------------------------------- E12 *)

let e12 ~quick =
  let t =
    Table.make
      ~title:
        "E12 (sharded explorer): exhaustive Bakery++ beyond the old \
         small-N wall — fingerprint-sharded visited set, one owner per \
         shard"
      ~notes:
        [
          "the seed engine's single shared hash table capped practical \
           runs at N=4; the sharded engine partitions the visited set by \
           state fingerprint, and each domain inserts and expands only \
           its own shard's states; every shard keeps its states \
           bit-packed";
          "collisions/handoffs come from the engine's telemetry \
           counters for the same run; collisions are states sharing a \
           key tag in their shard's store (the key's top bits, kept \
           beside the id in a 32-bit index entry), each costing one \
           extra state compare";
          "single-core hosts serialize the domains, so extra domains \
           only measure coordination overhead, not speedup";
        ]
      [
        "model"; "N"; "M"; "domains"; "outcome"; "distinct";
        "generated"; "depth"; "time(s)"; "kstates/s"; "collisions";
        "handoff";
      ]
  in
  (* Full-mode domain counts are chosen for the single-core bench
     budget: pool4 on the N=4 configs exercises the sharded machinery,
     the N=5 run uses one domain because on this host extra domains
     only stretch the wall clock. *)
  let configs =
    if quick then [ (3, 2, 2) ] else [ (4, 2, 4); (4, 3, 4); (5, 3, 1) ]
  in
  let prog = Core.Bakery_pp_model.program () in
  List.iter
    (fun (n, m, domains) ->
      let sys = MC.System.make prog ~nprocs:n ~bound:m in
      let metrics = Telemetry.Metrics.create () in
      let r =
        MC.Par_explore.run ~domains
          ~max_states:(if quick then 200_000 else 400_000_000)
          ~metrics sys
      in
      let c name =
        Telemetry.Metrics.counter_value (Telemetry.Metrics.counter metrics name)
      in
      let sps =
        if r.MC.Explore.stats.runtime > 0.0 then
          float_of_int r.stats.distinct /. r.stats.runtime
        else 0.0
      in
      Table.add_rowf t "%s|%d|%d|%d|%s|%d|%d|%d|%.3f|%.1f|%d|%d"
        "bakery_pp" n m domains
        (MC.Explore.outcome_tag r.outcome)
        r.stats.distinct
        r.stats.generated r.stats.depth r.stats.runtime (sps /. 1e3)
        (c "par_explore.fp_collisions")
        (c "par_explore.handoff_states");
      record_metric ~engine:(Printf.sprintf "pool%d_exact" domains)
        ~wall_s:r.stats.runtime ~exp:"e12"
        ~metric:
          (Printf.sprintf "bakery_pp_n%d_m%d/sharded_exact/states_per_sec" n m)
        sps)
    configs;
  [ t ]

(* ----------------------------------------------------------------- E13 *)

(* Scorecards are buffered whole (alongside the flat metric datapoints)
   so the bench driver can persist the full rows to BENCH_locks.json
   with timestamp and run metadata.  [extra] carries experiment-specific
   row fields the scorecard schema has no slot for — E16's flight-drift
   verdicts — which the driver appends verbatim to the JSON row. *)
let scorecards :
    (Workload.Scorecard.t * (string * Telemetry.Json.t) list) list ref =
  ref []

let record_scorecard ?(extra = []) c = scorecards := (c, extra) :: !scorecards

let take_scorecards () =
  let c = List.rev !scorecards in
  scorecards := [];
  c

let lock_resolver ?(bound = 1 lsl 12) () : Workload.Suite.resolver =
 fun name ~nprocs ->
  let f = Registry.find_family name in
  let b = if f.LI.family_name = "ticket_mod" then 64 else bound in
  f.LI.make ~nprocs ~bound:b

let slo_cell (card : Workload.Scorecard.t) =
  if card.slo_pass then "pass"
  else "FAIL: " ^ String.concat "; " card.slo_reasons

let e13 ~quick =
  let t =
    Table.make
      ~title:
        "E13 (SLO observatory): open-loop Poisson traffic — goodput, \
         coordinated-omission-free tails, fairness"
      ~notes:
        [
          "arrivals are a seeded Poisson schedule (Workload.Poisson); \
           latency is charged from each op's *intended* start, so \
           queueing behind a stall cannot hide (no coordinated omission)";
          "inv = FCFS inversions from the lock's event ring; jain over \
           per-domain completions; behind = ops that started late";
          "SLO verdict: goodput >= 50% of offered rate and p99 <= 50ms \
           (Workload.Slo.default)";
        ]
      [
        "lock"; "domains"; "rate/s"; "ops"; "goodput/s"; "p50"; "p99";
        "p999"; "max stall"; "inv"; "jain"; "behind"; "SLO";
      ]
  in
  let rate = if quick then 2_000.0 else 5_000.0 in
  let ops = if quick then 300 else 4_000 in
  let domain_counts = if quick then [ 2 ] else [ 2; 4 ] in
  let algos = [ "bakery"; "bakery_pp"; "ticket"; "ttas" ] in
  let resolve = lock_resolver () in
  let seed = 42 in
  List.iter
    (fun nprocs ->
      List.iter
        (fun algo ->
          let card =
            Workload.Suite.run_cell resolve ~algo ~nprocs ~rate
              ~budget:(Workload.Openloop.Ops ops) ~seed ()
          in
          record_scorecard card;
          record_metric ~exp:"e13"
            ~metric:(Printf.sprintf "%s/d%d/goodput" algo nprocs)
            card.goodput;
          record_metric ~exp:"e13"
            ~metric:(Printf.sprintf "%s/d%d/p99_ns" algo nprocs)
            (float_of_int card.p99_ns);
          Table.add_rowf t "%s|%d|%.0f|%d|%.0f|%s|%s|%s|%s|%d|%.3f|%d|%s"
            algo nprocs rate ops card.goodput (ns_cell card.p50_ns)
            (ns_cell card.p99_ns) (ns_cell card.p999_ns)
            (ns_cell card.max_stall_ns)
            card.inversions card.jain card.behind (slo_cell card))
        algos)
    domain_counts;
  let m = if quick then 8 else 16 in
  (* The observatory leg deliberately oversubscribes the lock (150x the
     sweep rate): tickets only climb while acquires overlap, so a rate
     the lock can absorb never exercises the bound. *)
  let rate_b = rate *. 150.0 in
  let t2 =
    Table.make
      ~title:
        "E13b (overflow observatory): virtual-bound crossing vs Bakery++ \
         reset storms under identical seeded traffic"
      ~notes:
        [
          "a sampler domain polls the lock's own counters in flight; \
           unbounded bakery reports when peak_ticket would have \
           overflowed a width-M register (the run keeps going)";
          "bakery_pp is created with bound M, so the same traffic shows \
           the paper's alternative: resets instead of overflow; on this \
           host the L1 gate absorbs most overflow pressure as passive \
           waits, so zero storms is a common (and correct) reading";
          "a storm is a maximal run of consecutive samples whose reset \
           counter advanced; durations have one-sample resolution";
        ]
      [
        "lock"; "M"; "crossing"; "t_overflow(s)"; "resets"; "storms";
        "worst storm(s)";
      ]
  in
  List.iter
    (fun (algo, resolve) ->
      let card =
        Workload.Suite.run_cell resolve ~virtual_bound:m
          ~sample_interval_s:5e-4 ~algo ~nprocs:4 ~rate:rate_b
          ~budget:(Workload.Openloop.Ops ops) ~seed ()
      in
      (* Not recorded as a scorecard: a deliberately saturated probe has
         scheduler-luck goodput (2-5x spread run to run on this host),
         which would make the regress gate flaky.  The overflow metrics
         below are the deliverable of this leg. *)
      match card.overflow with
      | None -> ()
      | Some o ->
          Table.add_rowf t2 "%s|%d|%s|%s|%d|%d|%.4f" algo m
            (match o.overflow_ticket with
            | Some tk -> Printf.sprintf "ticket %d > M" tk
            | None -> "no crossing")
            (match o.overflow_at_s with
            | Some s -> Printf.sprintf "%.4f" s
            | None -> "-")
            o.resets o.storms o.storm_max_s;
          (match o.overflow_at_s with
          | Some s ->
              record_metric ~exp:"e13"
                ~metric:(Printf.sprintf "%s/m%d/time_to_overflow_s" algo m)
                s
          | None -> ());
          if o.resets > 0 then
            record_metric ~exp:"e13"
              ~metric:(Printf.sprintf "%s/m%d/resets" algo m)
              (float_of_int o.resets))
    [ ("bakery", lock_resolver ()); ("bakery_pp", lock_resolver ~bound:m ()) ];
  [ t; t2 ]

(* ----------------------------------------------------------------- E16 *)

(* The soak experiment: where E13 asks "how does the lock score on a
   short burst", E16 asks "does anything degrade while it keeps
   running" — the flight recorder rides the observatory sampler and the
   drift analyzers judge the recorded p99 and heap series.  The
   verdicts travel with the scorecard row (record_scorecard ~extra), so
   BENCH_locks.json carries the soak's health verdict next to its
   goodput under the same regress gate. *)
let e16 ~quick =
  let t =
    Table.make
      ~title:
        "E16 (flight-recorded soak): Seconds-budget open-loop run with \
         drift verdicts over the recorded time series"
      ~notes:
        [
          "the flight recorder samples lock stats, live acquire-latency \
           percentiles and GC gauges once per observatory poll \
           (Obs.Recorder riding Workload.Suite.run_cell ~flight)";
          "drift = Obs.Analyze.drift over the recorded series: window \
           means must be monotone and move >10% first-to-last window; \
           'insufficient' means the run was too short to split into \
           windows (expected in quick mode)";
          "verdicts are persisted into the BENCH_locks.json row \
           (drift_p99, drift_gc_heap) alongside the scorecard fields";
        ]
      [
        "lock"; "domains"; "rate/s"; "soak(s)"; "goodput/s"; "p99";
        "samples"; "p99 drift"; "heap drift"; "SLO";
      ]
  in
  let dur = if quick then 1.0 else 60.0 in
  let rate = 4_000.0 in
  let nprocs = 2 in
  let seed = 42 in
  let resolve = lock_resolver () in
  List.iter
    (fun algo ->
      let flight = Obs.Recorder.create () in
      let card =
        Workload.Suite.run_cell resolve
          ~sample_interval_s:(if quick then 2e-3 else 5e-2)
          ~flight ~algo ~nprocs ~rate
          ~budget:(Workload.Openloop.Seconds dur) ~seed ()
      in
      Obs.Recorder.stop flight;
      let samples = Obs.Recorder.samples flight in
      let series_by_suffix suffix =
        match
          List.find_opt
            (fun n -> String.ends_with ~suffix n)
            (Obs.Flight.names samples)
        with
        | Some n -> Obs.Flight.series samples n
        | None -> [||]
      in
      let p99_drift =
        Obs.Analyze.drift ~metric:"p99" (series_by_suffix ".acquire_s.p99")
      in
      let heap_drift =
        Obs.Analyze.drift ~metric:"gc.heap_mb"
          (Obs.Flight.series samples "gc.heap_mb")
      in
      let v (d : Obs.Analyze.drift) = Obs.Analyze.verdict_to_string d.verdict in
      record_scorecard card
        ~extra:
          [
            ("drift_p99", Telemetry.Json.Str (v p99_drift));
            ("drift_gc_heap", Telemetry.Json.Str (v heap_drift));
            ( "flight_samples",
              Telemetry.Json.Num (float_of_int (List.length samples)) );
            ("soak_s", Telemetry.Json.Num dur);
          ];
      record_metric ~exp:"e16"
        ~metric:(Printf.sprintf "%s/d%d/goodput" algo nprocs)
        card.goodput;
      record_metric ~exp:"e16"
        ~metric:(Printf.sprintf "%s/d%d/p99_ns" algo nprocs)
        (float_of_int card.p99_ns);
      Table.add_rowf t "%s|%d|%.0f|%.0f|%.0f|%s|%d|%s|%s|%s" algo nprocs rate
        dur card.goodput
        (ns_cell card.p99_ns)
        (List.length samples) (v p99_drift) (v heap_drift) (slo_cell card))
    [ "bakery_pp"; "ticket" ];
  [ t ]

(* ------------------------------------------------------- ablations *)

let a1 ~quick =
  let t =
    Table.make
      ~title:
        "A1 (ablation): is the L1 gate needed for safety?  Bakery++ \
         without the gate"
      ~notes:
        [
          "removing the gate preserves both invariants: the pre-increment \
           reset alone implies the theorem";
          "the gate's role is operational: a gated process waits passively; \
           a gateless one churns choosing/number writes (reset storms) and \
           reintroduces doorway restarts";
        ]
      [
        "variant"; "N"; "M"; "model checking"; "sim resets/1k CS"; "sim CS entries";
      ]
  in
  let variants =
    [
      ("paper", Core.Bakery_pp_model.paper_variant);
      ( "no_gate",
        { Core.Bakery_pp_model.paper_variant with with_gate = false } );
    ]
  in
  let configs = if quick then [ (3, 2) ] else [ (3, 2); (2, 3); (4, 2) ] in
  List.iter
    (fun (name, v) ->
      List.iter
        (fun (n, m) ->
          if quick || n < 4 || name <> "skip" then begin
            let prog = Core.Bakery_pp_model.program_variant v in
            let sys = MC.System.make prog ~nprocs:n ~bound:m in
            let r =
              MC.Explore.run
                ~invariants:[ MC.Invariant.mutex; MC.Invariant.no_overflow ]
                sys
            in
            let cfg =
              {
                (Schedsim.Runner.default_config ~nprocs:n ~bound:m) with
                strategy = Schedsim.Scheduler.Uniform 3;
                max_steps = (if quick then 100_000 else 400_000);
              }
            in
            let s = Schedsim.Runner.run prog cfg in
            let cs = Schedsim.Runner.total_cs s in
            let resets =
              Schedsim.Metrics.label_count prog s Core.Bakery_pp_model.reset_label
            in
            Table.add_rowf t "%s|%d|%d|%s|%.1f|%d" name n m (outcome_cell r)
              (if cs = 0 then 0.0 else 1000.0 *. float_of_int resets /. float_of_int cs)
              cs
          end)
        configs)
    variants;
  [ t ]

let a2 ~quick =
  let t =
    Table.make
      ~title:
        "A2 (ablation): store order matters — increment before the check \
         and the theorem falls"
      ~notes:
        [
          "Algorithm 2 stores the *un-incremented* maximum, checks, then \
           increments; storing 1+max first reintroduces the original \
           Bakery's overflow site";
          "with N = 2 the gate happens to mask the bug; from N = 3 the \
           checker finds the overflow — the ablation shows both conditionals \
           must cooperate";
        ]
      [ "variant"; "N"; "M"; "model checking" ]
  in
  let unsafe =
    { Core.Bakery_pp_model.paper_variant with increment_first = true }
  in
  let configs = if quick then [ (2, 2); (3, 2) ] else [ (2, 2); (2, 4); (3, 2); (3, 3) ] in
  List.iter
    (fun (n, m) ->
      let prog = Core.Bakery_pp_model.program_variant unsafe in
      let sys = MC.System.make prog ~nprocs:n ~bound:m in
      let r =
        MC.Explore.run
          ~invariants:[ MC.Invariant.mutex; MC.Invariant.no_overflow ]
          sys
      in
      Table.add_rowf t "increment_first|%d|%d|%s" n m (outcome_cell r))
    configs;
  [ t ]

let a3 ~quick =
  let t =
    Table.make
      ~title:
        "A3 (ablation, paper §5 remark): '>=' vs '=' at the capacity tests \
         under safe-register read anomalies"
      ~notes:
        [
          "paper: \"The reason we used the operator >= is that Bakery \
           assumes that a read that overlaps a write can return an \
           arbitrary natural value.  If we can assume that no value greater \
           than the register limit M will ever be returned, then the \
           operator = can also be used.\"";
          "in-range flicker (reads <= M): both variants are indistinguishable \
           — the paper's 'then = can also be used';";
          "out-of-range flicker (reads up to 2M, 'arbitrary natural value'): \
           the = gate stops blocking on garbage; note that the unguarded \
           maximum *store* is then an overflow hazard for both variants — a \
           subtlety of 6.1 under the paper's own read model (see DESIGN.md)";
        ]
      [
        "gate cmp"; "flicker"; "gate passes"; "resets"; "overflows";
        "mutex violations";
      ]
  in
  let steps = if quick then 100_000 else 500_000 in
  let bound = 4 in
  let run ~exact ~slack =
    let v = { Core.Bakery_pp_model.paper_variant with gate_exact = exact } in
    let prog = Core.Bakery_pp_model.program_variant v in
    let cfg =
      {
        (Schedsim.Runner.default_config ~nprocs:3 ~bound) with
        strategy = Schedsim.Scheduler.Uniform 19;
        max_steps = steps;
        flicker =
          Some
            {
              Schedsim.Runner.flicker_prob = 0.05;
              flicker_model = Regsem.Model.Safe;
              flicker_slack = slack;
            };
      }
    in
    let r = Schedsim.Runner.run prog cfg in
    let gate_passes =
      Schedsim.Metrics.label_count prog r Core.Bakery_pp_model.gate_label
    in
    let resets =
      Schedsim.Metrics.label_count prog r Core.Bakery_pp_model.reset_label
    in
    Table.add_rowf t "%s|%s|%d|%d|%d|%d"
      (if exact then "=" else ">=")
      (if slack = 0 then "in-range (<= M)" else "arbitrary (<= 2M)")
      gate_passes resets r.overflow_events r.mutex_violations
  in
  run ~exact:false ~slack:0;
  run ~exact:true ~slack:0;
  run ~exact:false ~slack:bound;
  run ~exact:true ~slack:bound;
  [ t ]

(* ----------------------------------------------------------------- E14 *)

(* Weak-register matrix: exhaustively check mutex and no-overflow
   (claims C1/C2) for Bakery, Bakery++ and Black-White Bakery under
   atomic, regular and safe registers.  The verdict column is the
   experiment's result: Bakery++'s overflow gate survives safe
   registers at N=2,3 — a result the paper's atomic-only TLC setup
   never established — while Black-White's color-based bound does not. *)
let e14 ~quick =
  let t =
    Table.make
      ~title:
        "E14 (weak registers): mutex & no-overflow for Bakery, Bakery++ \
         and Black-White Bakery under atomic, regular and safe registers"
      ~notes:
        [
          "weak models two-phase every shared write and branch each \
           overlapped read over its candidate values (lib/regsem): \
           regular = {old, new}, safe = the register's whole range";
          "VIOLATION rows carry the shortest counterexample's length — \
           BFS order is preserved under the weak semantics";
          "bakery_pp's safe rows passing is the machine-checked headline; \
           black_white_bakery is atomic-safe but loses no-overflow under \
           regular reads (and mutual exclusion itself at N=3)";
          "distinct/generated count the two-phase state space under weak \
           models, so weak rows are incomparable to atomic rows";
        ]
      [
        "model"; "N"; "M"; "registers"; "verdict"; "distinct"; "generated";
        "depth"; "time(s)"; "kstates/s";
      ]
  in
  let models =
    [
      ("bakery", Algorithms.Bakery.program ());
      ("bakery_pp", Core.Bakery_pp_model.program ());
      ("black_white_bakery", Algorithms.Blackwhite.program ());
    ]
  in
  let ns = if quick then [ 2 ] else [ 2; 3 ] in
  let m = 3 in
  let reps = if quick then 1 else 3 in
  let best f =
    let r0 : MC.Explore.result = f () in
    let best = ref r0 in
    for _ = 2 to reps do
      let r : MC.Explore.result = f () in
      if r.stats.runtime < !best.stats.runtime then best := r
    done;
    !best
  in
  List.iter
    (fun (name, prog) ->
      List.iter
        (fun n ->
          List.iter
            (fun rm ->
              let rms = Regsem.Model.to_string rm in
              let sys =
                MC.System.make ~register_model:rm prog ~nprocs:n ~bound:m
              in
              let r =
                best (fun () ->
                    MC.Explore.run
                      ~invariants:
                        [ MC.Invariant.mutex; MC.Invariant.no_overflow ]
                      ~max_states:5_000_000 sys)
              in
              let sps =
                if r.MC.Explore.stats.runtime > 0.0 then
                  float_of_int r.stats.distinct /. r.stats.runtime
                else 0.0
              in
              (* The register model is part of the metric name, so the
                 --check-regress gate compares weak rows only against
                 prior weak rows of the same model.  Millisecond-scale
                 rows are pure timer noise: their verdicts and state
                 counts are still recorded, but they don't contribute a
                 states/sec datapoint for the gate. *)
              let tag = Printf.sprintf "%s_n%d_m%d/%s" name n m rms in
              if r.stats.runtime >= 0.02 then
                record_metric ~engine:rms ~wall_s:r.stats.runtime ~exp:"e14"
                  ~metric:(tag ^ "/states_per_sec") sps;
              record_metric ~engine:rms ~exp:"e14"
                ~metric:(tag ^ "/distinct")
                (float_of_int r.stats.distinct);
              Table.add_rowf t "%s|%d|%d|%s|%s|%d|%d|%d|%.3f|%.1f" name n m
                rms (outcome_cell r) r.stats.distinct r.stats.generated
                r.stats.depth r.stats.runtime (sps /. 1e3))
            Regsem.Model.all)
        ns)
    models;
  [ t ]

(* ----------------------------------------------------------------- E15 *)

(* Reduction modes E15 sweeps; the bench CLI's --reduce narrows this to
   [Off; mode] (the full run stays in as the ratio baseline). *)
let e15_modes = ref [ MC.Reduce.Off; MC.Reduce.Sym; MC.Reduce.Sym_por ]

(* Symmetry + POR sweep over the pid-symmetric zoo models.  Each config
   runs once per reduction mode; the ratio column is full-distinct /
   reduced-distinct when the unreduced baseline completed, and the C8
   block re-runs N > M (the paper's open question 1) where the quotient
   makes previously budget-infeasible sizes exact.  Verdicts must agree
   with the full search wherever both complete — the @bench-smoke
   reduction leg and the fuzzer's reduced oracle pin that equivalence;
   here the table shows it. *)
let e15 ~quick =
  let t =
    Table.make
      ~title:
        "E15 (reduction): symmetry + ample-set POR on the pid-symmetric \
         zoo — quotient sizes, reduction ratios, and N > M (C8) at \
         previously-infeasible sizes"
      ~notes:
        [
          "reduce=none is the exhaustive baseline; sym canonicalizes \
           states under process-id permutation (lib/modelcheck/reduce); \
           sym+por additionally expands a single ample process where the \
           static tables allow it";
          "ratio = distinct(none) / distinct(mode) for the same (model, \
           N, M); blank when the baseline exhausted its state budget — \
           exactly the configurations the reduction newly settles";
          "verdicts agree with the full search wherever both complete \
           (pinned by the fuzz `reduced` oracle and @bench-smoke); on a \
           violation the searches may report different-length \
           counterexamples under POR";
          "bakery variants are NOT in this table: their id tie-break \
           (and computed per-process indexing) fails the symmetry \
           certificate, so the quotient would be the identity — see \
           DESIGN.md";
        ]
      [
        "model"; "N"; "M"; "reduce"; "verdict"; "distinct"; "generated";
        "depth"; "time(s)"; "ratio";
      ]
  in
  let max_states = 3_000_000 in
  let configs =
    if quick then [ ("ticket_mod", 3, 3); ("tas", 3, 2); ("ticket", 3, 3) ]
    else
      [
        ("ticket_mod", 3, 3);
        ("ticket_mod", 4, 4);
        ("ticket_mod", 5, 5);
        (* full search exhausts the 3M-state budget from N=6; the
           quotient stays tiny *)
        ("ticket_mod", 6, 6);
        ("tas", 3, 2);
        ("tas", 5, 2);
        (* C8, N > M: the mod-M ticket loses mutual exclusion and the
           unbounded ticket overflows — now confirmed at sizes the
           paper's TLC setup never reached *)
        ("ticket", 3, 3);
        ("ticket", 4, 3);
        ("ticket_mod", 4, 3);
        ("ticket_mod", 5, 2);
      ]
  in
  List.iter
    (fun (name, n, m) ->
      let prog = Registry.find_model name in
      let sys = MC.System.make prog ~nprocs:n ~bound:m in
      let baseline = ref None in
      List.iter
        (fun mode ->
          let ms = MC.Reduce.mode_to_string mode in
          let r =
            MC.Explore.run
              ~invariants:[ MC.Invariant.mutex; MC.Invariant.no_overflow ]
              ~max_states ~reduce:mode sys
          in
          let complete = r.MC.Explore.outcome <> MC.Explore.Capacity in
          if mode = MC.Reduce.Off && complete then
            baseline := Some r.stats.distinct;
          let ratio =
            match (!baseline, mode) with
            | Some full, (MC.Reduce.Sym | MC.Reduce.Sym_por) when complete ->
                Some (float_of_int full /. float_of_int r.stats.distinct)
            | _ -> None
          in
          (* The reduce mode is part of the metric name, so the
             --check-regress gate compares a quotient run only against
             prior runs of the same mode.  Millisecond rows are timer
             noise: no states/sec datapoint, counts still recorded. *)
          let tag = Printf.sprintf "%s_n%d_m%d/reduce=%s" name n m ms in
          let sps =
            if r.stats.runtime > 0.0 then
              float_of_int r.stats.distinct /. r.stats.runtime
            else 0.0
          in
          if r.stats.runtime >= 0.02 then
            record_metric ~engine:ms ~wall_s:r.stats.runtime ~exp:"e15"
              ~metric:(tag ^ "/states_per_sec") sps;
          record_metric ~engine:ms ~exp:"e15" ~metric:(tag ^ "/distinct")
            (float_of_int r.stats.distinct);
          Option.iter
            (fun x ->
              record_metric ~engine:ms ~exp:"e15"
                ~metric:(tag ^ "/reduction_ratio") x)
            ratio;
          Table.add_rowf t "%s|%d|%d|%s|%s|%d|%d|%d|%.3f|%s" name n m ms
            (outcome_cell r) r.stats.distinct r.stats.generated r.stats.depth
            r.stats.runtime
            (match ratio with
            | Some x -> Printf.sprintf "%.1fx" x
            | None -> ""))
        !e15_modes)
    configs;
  [ t ]

let all =
  [
    { id = "e1"; summary = "TLC reproduction: Bakery++ satisfies mutex & no-overflow (paper §6)"; run = e1 };
    { id = "e2"; summary = "Original Bakery overflows bounded registers (paper §3)"; run = e2 };
    { id = "e3"; summary = "Bakery++ refines Bakery: trace inclusion (paper §6.2)"; run = e3 };
    { id = "e4"; summary = "Time/steps to first overflow vs register width (paper §3/§4)"; run = e4 };
    { id = "e5"; summary = "Throughput parity with ample registers (paper §7)"; run = e5 };
    { id = "e6"; summary = "Reset/gate cost of overflow avoidance vs M (paper §7)"; run = e6 };
    { id = "e7"; summary = "Algorithm-zoo comparison (paper §4)"; run = e7 };
    { id = "e8"; summary = "FCFS order and fairness across the zoo (paper §1.2/§8.2)"; run = e8 };
    { id = "e9"; summary = "Starvation lassos at the L1 gate (paper §6.3)"; run = e9 };
    { id = "e10"; summary = "More processes than ticket values, N > M (paper §8.1)"; run = e10 };
    { id = "e11"; summary = "Model-checker throughput: compiled evaluator & persistent domain pool"; run = e11 };
    { id = "e12"; summary = "Sharded explorer: exhaustive Bakery++ past the small-N wall"; run = e12 };
    { id = "e13"; summary = "SLO observatory: open-loop lock traffic, overflow telemetry, scorecards"; run = e13 };
    { id = "e14"; summary = "Weak registers: Bakery/Bakery++/Black-White under atomic, regular, safe (regsem)"; run = e14 };
    { id = "e15"; summary = "Symmetry + POR reduction: quotient sweep and N > M (C8) past the full-search budget"; run = e15 };
    { id = "e16"; summary = "Flight-recorded soak: Seconds-budget open-loop run with drift verdicts"; run = e16 };
    { id = "a1"; summary = "Ablation: remove the L1 gate — safety survives, behaviour degrades"; run = a1 };
    { id = "a2"; summary = "Ablation: increment before checking — the theorem falls at N >= 3"; run = a2 };
    { id = "a3"; summary = "Ablation: '>=' vs '=' capacity tests under read anomalies (paper §5)"; run = a3 };
  ]

let find id = List.find (fun e -> e.id = id) all
