(* Command-line front end to the Bakery++ reproduction:

     bakery_cli list                          catalogue of models/locks/experiments
     bakery_cli show bakery_pp                pseudocode listing
     bakery_cli check bakery_pp -n 3 -m 3     model-check (TLC-style report)
     bakery_cli sim bakery -n 4 -m 255 ...    randomized simulation
     bakery_cli lasso -n 3 -m 2 --fair        starvation search (paper 6.3)
     bakery_cli refine -n 2 -m 3              trace-inclusion check (paper 6.2)
     bakery_cli tla bakery_pp                 TLA+ export
     bakery_cli bench e1 e4 --quick           regenerate experiment tables *)

open Cmdliner

let find_model name =
  match Harness.Registry.find_model name with
  | p -> p
  | exception Not_found ->
      Printf.eprintf "unknown model %S; try: %s\n" name
        (String.concat ", " Harness.Registry.model_names);
      exit 2

(* A model run with a process count it is not written for is a usage
   error naming -n, found before any output file is opened. *)
let find_model_for name ~nprocs =
  let p = find_model name in
  (match Harness.Registry.fixed_nprocs name with
  | Some n when n <> nprocs ->
      Printf.eprintf
        "-n/--nprocs: model %s runs with exactly %d processes, got %d\n" name n
        nprocs;
      exit 2
  | _ -> ());
  p

(* ------------------------------------------------------- shared args *)

let model_arg =
  let doc = "Algorithm model name (see `bakery_cli list`)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"MODEL" ~doc)

(* A flag value the program cannot run with is a usage error: it exits
   2 with a message naming the flag. *)
let or_usage_error = function
  | Ok v -> v
  | Error msg ->
      prerr_endline msg;
      exit 2

let flag_name names =
  String.concat "/"
    (List.map (fun n -> if String.length n = 1 then "-" ^ n else "--" ^ n) names)

(* Every integer flag with a floor is checked here, once, in its term:
   -n/-m and the other sizes at least 1, budgets and counts at least 0. *)
let int_flag ?(min = 0) names ~default ~docv ~doc =
  let flag = flag_name names in
  let at_least n =
    if n < min then begin
      Printf.eprintf "%s: %s must be at least %d, got %d\n" flag docv min n;
      exit 2
    end;
    n
  in
  Term.(const at_least $ Arg.(value & opt int default & info names ~docv ~doc))

(* Every flag that names a file to write is checked here, once, in its
   term: a missing or unwritable directory exits 2 before the run, not
   with an uncaught exception after it. *)
let out_file names ~doc =
  let flag = flag_name names in
  let writable path =
    let dir = Filename.dirname path in
    let ok =
      try
        Unix.access dir [ Unix.W_OK ];
        Sys.is_directory dir
      with Unix.Unix_error _ -> false
    in
    if not ok then begin
      Printf.eprintf
        "%s: cannot write %s: directory %s is missing or not writable\n" flag
        path dir;
      exit 2
    end;
    path
  in
  Term.(
    const (Option.map writable)
    $ Arg.(value & opt (some string) None & info names ~docv:"FILE" ~doc))

let probability_flag long ~doc =
  let in_unit p =
    if not (p >= 0.0 && p <= 1.0) then begin
      Printf.eprintf "--%s: P must be in [0, 1], got %g\n" long p;
      exit 2
    end;
    p
  in
  Term.(const in_unit $ Arg.(value & opt float 0.0 & info [ long ] ~docv:"P" ~doc))

let nprocs_arg =
  int_flag ~min:1 [ "n"; "nprocs" ] ~default:2 ~docv:"N"
    ~doc:"Number of processes (the paper's N)."

let bound_arg =
  int_flag ~min:1 [ "m"; "bound" ] ~default:3 ~docv:"M"
    ~doc:"Register capacity (the paper's M)."

(* Every --register-model flag is a raw string fed through the harness
   enum parser in the term, so bad spellings exit 2 with the same
   message shape as the other Argscan-backed flags (--rate etc.). *)
let parse_register_model raw =
  or_usage_error
    (Harness.Argscan.parse_enum ~docv:"MODEL" ~flag:"--register-model"
       ~values:
         [
           ("atomic", Regsem.Model.Atomic);
           ("regular", Regsem.Model.Regular);
           ("safe", Regsem.Model.Safe);
         ]
       raw)

let register_model_flag ~default ~doc =
  Term.(
    const parse_register_model
    $ Arg.(
        value
        & opt string (Regsem.Model.to_string default)
        & info [ "register-model" ] ~docv:"MODEL" ~doc))

let register_model_arg =
  register_model_flag ~default:Regsem.Model.Atomic
    ~doc:
      "Register semantics: $(b,atomic) (reads and writes are indivisible — \
       today's default), $(b,regular) (a read overlapping a write returns \
       the old or the new value), or $(b,safe) (it may return any value in \
       the register's range).  Weak models two-phase the writes and branch \
       every overlapped read over its candidate values."

(* --reduce takes the same raw-string-through-Argscan route, so a bad
   spelling exits 2 with the shared usage-error shape. *)
let parse_reduce raw =
  or_usage_error
    (Harness.Argscan.parse_enum ~docv:"MODE" ~flag:"--reduce"
       ~values:Modelcheck.Reduce.mode_values raw)

let reduce_doc =
  "State-space reduction: $(b,none) (default), $(b,sym) (canonicalize \
   states under process-id permutation when the model passes the static \
   pid-symmetry certificate — asymmetric models, e.g. every bakery \
   variant's id tie-break, run unreduced with the reason reported), or \
   $(b,sym+por) (additionally expand only an ample process where one \
   exists).  Verdicts match the unreduced search; state counts are of \
   the quotient; counterexamples are reported in original process ids."

let reduce_arg =
  Term.(
    const parse_reduce
    $ Arg.(value & opt string "none" & info [ "reduce" ] ~docv:"MODE" ~doc:reduce_doc))

(* -------------------------------------------------- telemetry options *)

let progress_arg =
  let doc =
    "Print TLC-style progress lines (states generated/distinct, kstates/s, \
     queue depth) to stderr every ~2 seconds, plus a final summary line."
  in
  Arg.(value & flag & info [ "progress" ] ~doc)

let metrics_out_arg =
  out_file [ "metrics-out" ]
    ~doc:
      "When the run finishes, append a metrics snapshot to $(docv): a run \
       record header (run metadata), then one JSON line per instrument."

let trace_out_arg =
  out_file [ "trace-out" ]
    ~doc:
      "Append progress and span events to $(docv): a run record header, \
       then one JSON line per event."

let flight_out_arg =
  out_file [ "flight-out" ]
    ~doc:
      "Append a flight record to $(docv): a run record header, then \
       time-series snapshots (throughput, frontier, shard balance, latency \
       percentiles, GC gauges) as JSON lines, one per sampler interval, \
       flushed per line so a killed run still leaves a readable record.  \
       Feed it to $(b,bakery_cli report)."

let flight_interval_arg =
  let doc = "Flight-recorder sampling interval, seconds." in
  Arg.(value & opt float 0.25 & info [ "flight-interval" ] ~docv:"SECONDS" ~doc)

type telemetry = {
  tl_progress : Telemetry.Progress.t option;
  tl_metrics : Telemetry.Metrics.t option;
  tl_trace : Telemetry.Sink.t option;
  tl_flight : Obs.Recorder.t option;
  tl_finish : unit -> unit;
      (* write the metrics snapshot and close every sink; idempotent *)
}

(* Progress lines go to stderr when [--progress] is set and are mirrored
   into the trace file when [--trace-out] is set; either flag alone also
   works.  The metrics registry exists when [--metrics-out] or
   [--flight-out] asks for it, so a bare run keeps every hot path on its
   no-op branch.

   [flight_pull] (default true) starts the background sampler domain
   polling the registry; `bench locks` passes [false] because the lock
   observatory pushes richer samples itself.  [tl_finish] is idempotent
   and registered with [at_exit], so the violation and early-[exit]
   paths flush the metrics snapshot and close every sink too; with
   [--metrics-out], a SIGTERM runs it as well. *)
let telemetry_setup ~name ?flight_out ?(flight_interval = 0.25)
    ?(flight_pull = true) progress metrics_out trace_out =
  let trace =
    Option.map (Telemetry.Sink.jsonl Telemetry.Record.Events) trace_out
  in
  let snapshot =
    Option.map (Telemetry.Sink.jsonl Telemetry.Record.Metrics) metrics_out
  in
  let progress_sink =
    match (progress, trace) with
    | false, None -> None
    | false, Some t -> Some t
    | true, None -> Some (Telemetry.Sink.stderr_human ())
    | true, Some t ->
        Some (Telemetry.Sink.tee [ Telemetry.Sink.stderr_human (); t ])
  in
  let tl_progress =
    Option.map (fun s -> Telemetry.Progress.create ~name s ()) progress_sink
  in
  let tl_metrics =
    match (metrics_out, flight_out) with
    | None, None -> None
    | _ -> Some (Telemetry.Metrics.create ())
  in
  let tl_flight =
    Option.map (fun path -> Obs.Recorder.create ~path ()) flight_out
  in
  (match (tl_flight, tl_metrics) with
  | Some recorder, Some m when flight_pull ->
      Obs.Recorder.start_sampler ~interval_s:flight_interval recorder
        ~poll:(fun () ->
          Telemetry.Metrics.observe_gc m;
          Obs.Recorder.of_metrics m)
  | _ -> ());
  let finished = Atomic.make false in
  let tl_finish () =
    if Atomic.compare_and_set finished false true then begin
      Option.iter Obs.Recorder.stop tl_flight;
      (match (snapshot, tl_metrics) with
      | Some (sink : Telemetry.Sink.t), Some m ->
          (* Refresh the GC gauges so every snapshot carries allocation
             health alongside the run's own instruments. *)
          Telemetry.Metrics.observe_gc m;
          List.iter
            (fun (metric, v) ->
              sink.emit
                (Telemetry.Sink.event ~kind:"metric" ~name
                   [
                     ("metric", Telemetry.Json.Str metric);
                     ("value", Telemetry.Metrics.value_to_json v);
                   ]))
            (Telemetry.Metrics.snapshot m)
      | _ -> ());
      List.iter
        (Option.iter (fun (s : Telemetry.Sink.t) -> s.close ()))
        [ snapshot; trace ]
    end
  in
  at_exit tl_finish;
  (* SIGTERM skips at_exit, so a killed run would lose its snapshot:
     write it, then die of the signal as before.  The handler may run on
     any domain, the flight sampler's included. *)
  if snapshot <> None then
    Sys.set_signal Sys.sigterm
      (Sys.Signal_handle
         (fun _ ->
           (try tl_finish () with _ -> ());
           Sys.set_signal Sys.sigterm Sys.Signal_default;
           Unix.kill (Unix.getpid ()) Sys.sigterm));
  { tl_progress; tl_metrics; tl_trace = trace; tl_flight; tl_finish }

(* ----------------------------------------------- counterexample export *)

let chrome_out_arg =
  out_file [ "chrome-out" ]
    ~doc:
      "Export a causal trace of the run as Chrome trace-event JSON to \
       $(docv) — load it in ui.perfetto.dev or chrome://tracing (one track \
       per process)."

(* Re-walk a checker counterexample through the AST interpreter to
   recover per-step reads/writes, reduce the violated invariant to its
   failing conjunct, and package both as a causal trace. *)
let forensics_of_ctrex sys ~model ~invariants ctrex =
  match Modelcheck.Rewalk.of_trace sys ctrex with
  | Error e ->
      Printf.eprintf "cannot re-walk the counterexample: %s\n" e;
      exit 2
  | Ok w ->
      let final =
        List.fold_left
          (fun _ (s : Modelcheck.Rewalk.step) -> s.rw_post)
          w.Modelcheck.Rewalk.rw_init w.rw_steps
      in
      let violation =
        Modelcheck.Invariant.explain_failure
          (Modelcheck.Invariant.all invariants)
          sys final
      in
      (Trace.Of_walk.trace ~model ?violation w, violation)

let write_chrome path tr =
  Trace.Chrome.write ~path tr;
  Printf.printf "wrote %s (load in ui.perfetto.dev)\n" path

(* --------------------------------------------------------------- list *)

let list_cmd =
  let run () =
    print_endline "Models (for `check`, `sim`, `show`, `tla`):";
    List.iter (Printf.printf "  %s\n") Harness.Registry.model_names;
    print_endline "\nRuntime lock families (used by the bench driver):";
    List.iter
      (fun (f : Locks.Lock_intf.family) ->
        Printf.printf "  %-20s%s\n" f.family_name
          (if f.needs_bound then " (uses the register bound M)" else ""))
      Harness.Registry.lock_families;
    print_endline "\nExperiments (for `bench`):";
    List.iter
      (fun (e : Harness.Experiments.experiment) ->
        Printf.printf "  %-5s %s\n" e.id e.summary)
      Harness.Experiments.all
  in
  Cmd.v (Cmd.info "list" ~doc:"Catalogue of models, locks and experiments")
    Term.(const run $ const ())

(* --------------------------------------------------------------- show *)

let show_cmd =
  let run model =
    let p = find_model model in
    print_string (Mxlang.Pretty.program p)
  in
  Cmd.v (Cmd.info "show" ~doc:"Pretty-print a model as pseudocode")
    Term.(const run $ model_arg)

(* -------------------------------------------------------------- check *)

let check_cmd =
  let cap_arg =
    int_flag [ "cap" ] ~default:0 ~docv:"CAP"
      ~doc:
        "State constraint: cap every cell of the model's $(i,number)-like \
         variables at this value (closes infinite spaces, e.g. the original \
         bakery).  0 disables."
  in
  let max_states_arg =
    int_flag ~min:1 [ "max-states" ] ~default:5_000_000 ~docv:"K"
      ~doc:"Abort after storing this many distinct states."
  in
  let no_overflow_arg =
    let doc = "Also check the no-overflow invariant (on by default)." in
    Arg.(value & opt bool true & info [ "overflow" ] ~docv:"BOOL" ~doc)
  in
  let coverage_arg =
    let doc = "Also print TLC-style action coverage." in
    Arg.(value & flag & info [ "coverage" ] ~doc)
  in
  let parallel_arg =
    int_flag [ "parallel" ] ~default:0 ~docv:"D"
      ~doc:
        "Use the level-synchronized parallel BFS engine with this many \
         domains.  0, the default, runs the sequential engine."
  in
  let dot_out_arg =
    out_file [ "dot-out" ]
      ~doc:
        "Export the counterexample as Graphviz DOT to $(docv), with the \
         violating edge and final state highlighted."
  in
  let run model nprocs bound register_model reduce cap max_states with_overflow
      coverage parallel chrome_out dot_out progress metrics_out
      trace_out flight_out flight_interval =
    let p = find_model_for model ~nprocs in
    if cap > 0 && not (Core.Verify.has_tickets p) then begin
      Printf.eprintf "--cap: model %s has no number variable to cap\n" model;
      exit 2
    end;
    let sys = Modelcheck.System.make ~register_model p ~nprocs ~bound in
    let invariants =
      Modelcheck.Invariant.mutex
      :: (if with_overflow then [ Modelcheck.Invariant.no_overflow ] else [])
    in
    (if reduce <> Modelcheck.Reduce.Off then
       let red = Modelcheck.Reduce.make reduce sys in
       Printf.printf "reduction: %s\n" (Modelcheck.Reduce.describe red));
    let constraint_ =
      if cap > 0 then Some (Core.Verify.ticket_cap_constraint ~cap) else None
    in
    let tl =
      telemetry_setup
        ~name:(if parallel > 0 then "par_explore" else "explore")
        ?flight_out ~flight_interval progress metrics_out trace_out
    in
    let r =
      if parallel > 0 then
        Modelcheck.Par_explore.run ?progress:tl.tl_progress
          ?metrics:tl.tl_metrics ~invariants ?constraint_ ~max_states
          ~domains:parallel ~reduce sys
      else
        Modelcheck.Explore.run ?progress:tl.tl_progress ?metrics:tl.tl_metrics
          ~invariants ?constraint_ ~max_states ~reduce sys
    in
    tl.tl_finish ();
    print_endline (Modelcheck.Report.result_string sys r);
    if coverage then begin
      let c = Modelcheck.Coverage.measure ?constraint_ ~max_states sys in
      Format.printf "Action coverage:@.%a@." Modelcheck.Coverage.pp c
    end;
    let export ctrex =
      if chrome_out <> None || dot_out <> None then begin
        let tr, violation =
          forensics_of_ctrex sys ~model ~invariants ctrex
        in
        Option.iter (fun path -> write_chrome path tr) chrome_out;
        Option.iter
          (fun path ->
            let violation =
              Option.map
                (fun (f : Modelcheck.Invariant.failure) -> f.f_name)
                violation
            in
            let oc = open_out path in
            output_string oc (Modelcheck.Dot.of_trace ?violation sys ctrex);
            close_out oc;
            Printf.printf "wrote %s (render with: dot -Tsvg %s -o ctrex.svg)\n"
              path path)
          dot_out
      end
    in
    (match r.outcome with
    | Modelcheck.Explore.Violation { trace = ctrex; _ }
    | Modelcheck.Explore.Deadlock { trace = ctrex } ->
        export ctrex
    | _ ->
        if chrome_out <> None || dot_out <> None then
          prerr_endline
            "no counterexample to export (the check did not fail)");
    match r.outcome with Modelcheck.Explore.Pass -> exit 0 | _ -> exit 1
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Model-check a model for mutual exclusion (and overflow-freedom)")
    Term.(
      const run $ model_arg $ nprocs_arg $ bound_arg $ register_model_arg
      $ reduce_arg $ cap_arg $ max_states_arg $ no_overflow_arg $ coverage_arg
      $ parallel_arg $ chrome_out_arg $ dot_out_arg
      $ progress_arg $ metrics_out_arg $ trace_out_arg $ flight_out_arg
      $ flight_interval_arg)

(* ---------------------------------------------------------------- sim *)

let sim_cmd =
  let steps_arg =
    int_flag [ "steps" ] ~default:500_000 ~docv:"STEPS"
      ~doc:"Atomic steps to simulate."
  in
  let seed_arg =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")
  in
  (* --sched takes the --reduce route: a bad spelling exits 2 in the
     term, before any output file is opened.  Each value waits for the
     seed. *)
  let sched_arg =
    let doc =
      "Scheduler: $(b,rr) (round-robin), $(b,uniform), or \
       $(b,handicap) (process 0 runs every 50th decision)."
    in
    let parse raw =
      or_usage_error
        (Harness.Argscan.parse_enum ~docv:"SCHEDULER" ~flag:"--sched"
           ~values:
             [
               ("rr", fun _ -> Schedsim.Scheduler.Round_robin);
               ("round-robin", fun _ -> Schedsim.Scheduler.Round_robin);
               ("uniform", fun seed -> Schedsim.Scheduler.Uniform seed);
               ( "handicap",
                 fun seed ->
                   Schedsim.Scheduler.Handicap { victim = 0; period = 50; seed }
               );
             ]
           raw)
    in
    Term.(
      const parse
      $ Arg.(
          value & opt string "uniform"
          & info [ "sched" ] ~docv:"SCHEDULER" ~doc))
  in
  let crash_arg =
    probability_flag "crash"
      ~doc:"Per-step crash probability (0 disables; paper 1.2 cond 4)."
  in
  let flicker_arg =
    probability_flag "flicker"
      ~doc:
        "Weak-register flicker probability: reads of cells being written \
         return perturbed values drawn from $(b,--register-model)'s \
         candidate set (0 disables)."
  in
  let flicker_model_arg =
    register_model_flag ~default:Regsem.Model.Safe
      ~doc:
        "Value domain of flickered reads: $(b,safe) (any value in the \
         variable's range — the default, matching the paper's read model), \
         $(b,regular) (the value the overlapping write is about to store), \
         or $(b,atomic) (no perturbation, making $(b,--flicker) inert)."
  in
  let wrap_arg =
    let doc = "Wrap too-large stores (real-register behaviour) instead of just counting them." in
    Arg.(value & flag & info [ "wrap" ] ~doc)
  in
  let run model nprocs bound steps seed sched crash flicker flicker_model wrap
      chrome_out progress metrics_out trace_out =
    let p = find_model_for model ~nprocs in
    let tl = telemetry_setup ~name:"sim" progress metrics_out trace_out in
    let strategy = sched seed in
    let cfg =
      {
        (Schedsim.Runner.default_config ~nprocs ~bound) with
        strategy;
        max_steps = steps;
        seed;
        overflow_policy =
          (if wrap then Schedsim.Runner.Wrap else Schedsim.Runner.Detect);
        crash =
          (if crash > 0.0 then
             Some
               {
                 Schedsim.Runner.crash_prob = crash;
                 restart_delay = 100;
                 only_outside_cs = false;
               }
           else None);
        flicker =
          (if flicker > 0.0 then
             Some
               {
                 Schedsim.Runner.flicker_prob = flicker;
                 flicker_model;
                 flicker_slack = 0;
               }
           else None);
        progress = tl.tl_progress;
        metrics = tl.tl_metrics;
        trace = tl.tl_trace;
        (* The Chrome export needs the full event stream, register
           reads/writes included; without --chrome-out both stay at
           their defaults and the run is untouched. *)
        record_events =
          chrome_out <> None
          || (Schedsim.Runner.default_config ~nprocs ~bound).record_events;
        record_rw = chrome_out <> None;
      }
    in
    let r = Schedsim.Runner.run p cfg in
    tl.tl_finish ();
    Option.iter
      (fun path -> write_chrome path (Trace.Of_sim.trace p ~nprocs ~bound r))
      chrome_out;
    Printf.printf "model %s, N=%d, M=%d, %s, %d steps\n" p.Mxlang.Ast.title
      nprocs bound (Schedsim.Scheduler.describe strategy) r.steps;
    Printf.printf "CS entries: %d  per process: [%s]\n"
      (Schedsim.Runner.total_cs r)
      (String.concat "; " (Array.to_list (Array.map string_of_int r.cs_entries)));
    Printf.printf "mutex violations: %d\n" r.mutex_violations;
    Printf.printf "overflow events:  %d\n" r.overflow_events;
    Printf.printf "FCFS inversions:  %d\n" r.fcfs_inversions;
    Printf.printf "crashes: %d  flickers: %d\n" r.crashes r.flickers;
    Printf.printf "throughput: %.4f CS/step  fairness (Jain): %.3f\n"
      (Schedsim.Metrics.throughput r)
      (Workload.Fairness.jain r.cs_entries);
    if r.mutex_violations > 0 || r.overflow_events > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "sim"
       ~doc:"Run a randomized simulation with crashes and register anomalies")
    Term.(
      const run $ model_arg $ nprocs_arg $ bound_arg $ steps_arg $ seed_arg
      $ sched_arg $ crash_arg $ flicker_arg $ flicker_model_arg $ wrap_arg
      $ chrome_out_arg $ progress_arg $ metrics_out_arg $ trace_out_arg)

(* ------------------------------------------------------------ explain *)

let explain_cmd =
  let model_opt_arg =
    let doc =
      "Model-check $(docv) (with -n/-m) and explain the counterexample it \
       produces.  Mutually exclusive with --repro."
    in
    Arg.(value & opt (some string) None & info [ "model" ] ~docv:"MODEL" ~doc)
  in
  let repro_arg =
    let doc =
      "Explain a fuzzer $(b,.repro) file: schedule cases are re-executed \
       by the simulator with full event recording; program cases are \
       model-checked.  Mutually exclusive with --model."
    in
    Arg.(value & opt (some string) None & info [ "repro" ] ~docv:"FILE" ~doc)
  in
  let max_steps_arg =
    int_flag [ "max-steps" ] ~default:0 ~docv:"K"
      ~doc:
        "Show at most $(docv) step blocks, keeping the most recent ones \
         (the violation neighbourhood); 0 shows every step."
  in
  let max_states_arg =
    int_flag ~min:1 [ "max-states" ] ~default:5_000_000 ~docv:"K"
      ~doc:"Exploration budget for the --model path."
  in
  let trace_out_arg =
    out_file [ "trace-out" ]
      ~doc:
        "Also write the causal trace to $(docv) as a run record: a header \
         carrying the run metadata and the trace identity, then one event \
         per line."
  in
  let dot_out_arg =
    out_file [ "dot-out" ]
      ~doc:
        "Also write the counterexample path as Graphviz DOT to $(docv) \
         (--model and program-case repros only)."
  in
  let run model repro nprocs bound register_model reduce max_states max_steps
      chrome_out trace_out dot_out =
    let finish tr =
      print_string (Trace.Explain.render ~max_steps tr);
      Option.iter (fun path -> write_chrome path tr) chrome_out;
      Option.iter
        (fun path ->
          Trace.Jsonl.write ~path tr;
          Printf.printf "wrote %s (schema %d causal trace)\n" path
            Telemetry.Record.schema)
        trace_out
    in
    let explain_check program ~model ~nprocs ~bound ~max_states =
      let sys =
        Modelcheck.System.make ~register_model program ~nprocs ~bound
      in
      let invariants =
        [ Modelcheck.Invariant.mutex; Modelcheck.Invariant.no_overflow ]
      in
      let r = Modelcheck.Explore.run ~invariants ~max_states ~reduce sys in
      match r.outcome with
      | Modelcheck.Explore.Violation { trace = ctrex; _ }
      | Modelcheck.Explore.Deadlock { trace = ctrex } ->
          let tr, violation = forensics_of_ctrex sys ~model ~invariants ctrex in
          finish tr;
          Option.iter
            (fun path ->
              let violation =
                Option.map
                  (fun (f : Modelcheck.Invariant.failure) -> f.f_name)
                  violation
              in
              let oc = open_out path in
              output_string oc (Modelcheck.Dot.of_trace ?violation sys ctrex);
              close_out oc;
              Printf.printf "wrote %s\n" path)
            dot_out
      | Modelcheck.Explore.Pass ->
          Printf.printf
            "nothing to explain: %s passes at N=%d, M=%d under %s registers \
             (%d distinct states)\n"
            model nprocs bound
            (Regsem.Model.to_string register_model)
            r.stats.distinct;
          exit 1
      | Modelcheck.Explore.Capacity ->
          Printf.eprintf
            "state budget exhausted before a verdict; raise --max-states\n";
          exit 1
    in
    match (model, repro) with
    | Some _, Some _ ->
        prerr_endline "--model and --repro are mutually exclusive";
        exit 2
    | None, None ->
        prerr_endline "one of --model or --repro is required";
        exit 2
    | Some m, None ->
        let p = find_model_for m ~nprocs in
        explain_check p ~model:m ~nprocs ~bound ~max_states
    | None, Some file -> (
        match Fuzz.Repro.load file with
        | Error e ->
            Printf.eprintf "cannot load %s: %s\n" file e;
            exit 2
        | Ok rp -> (
            match rp.Fuzz.Repro.case with
            | Fuzz.Oracle.Sched_case pl ->
                let p = find_model pl.Fuzz.Gen.pl_model in
                let cfg =
                  {
                    (Fuzz.Oracle.sim_config pl) with
                    Schedsim.Runner.record_events = true;
                    record_rw = true;
                  }
                in
                let r = Schedsim.Runner.run p cfg in
                if dot_out <> None then
                  prerr_endline
                    "--dot-out ignored: schedule repros have no checker trace";
                finish
                  (Trace.Of_sim.trace p ~nprocs:pl.pl_nprocs
                     ~bound:pl.pl_bound r)
            | Fuzz.Oracle.Prog_case { program; nprocs; bound; max_states } ->
                explain_check program ~model:program.Mxlang.Ast.title ~nprocs
                  ~bound ~max_states))
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Render a counterexample or .repro file as an annotated \
          step-by-step story with causal analysis")
    Term.(
      const run $ model_opt_arg $ repro_arg $ nprocs_arg $ bound_arg
      $ register_model_arg $ reduce_arg $ max_states_arg $ max_steps_arg
      $ chrome_out_arg $ trace_out_arg $ dot_out_arg)

(* -------------------------------------------------------------- lasso *)

let lasso_cmd =
  let fair_arg =
    let doc =
      "Require a fairness-consistent lasso (the victim must be disabled \
       somewhere on the cycle)."
    in
    Arg.(value & flag & info [ "fair" ] ~doc)
  in
  let victim_arg =
    Arg.(value & opt int 0 & info [ "victim" ] ~docv:"PID" ~doc:"Starving process.")
  in
  let run nprocs bound fair victim =
    let r =
      match
        Core.Verify.starvation_lasso ~require_victim_disabled:fair ~victim
          ~nprocs ~bound ()
      with
      | r -> r
      | exception Invalid_argument _ when victim < 0 || victim >= nprocs ->
          Printf.eprintf "--victim: PID must be in 0..%d for -n %d, got %d\n"
            (nprocs - 1) nprocs victim;
          exit 2
    in
    let sys = Core.Verify.system ~nprocs ~bound () in
    print_endline (Modelcheck.Report.lasso_string sys ~victim r);
    match r.witness with Some _ -> exit 0 | None -> exit 1
  in
  Cmd.v
    (Cmd.info "lasso"
       ~doc:"Search Bakery++ for the paper's 6.3 starvation scenario at L1")
    Term.(const run $ nprocs_arg $ bound_arg $ fair_arg $ victim_arg)

(* ------------------------------------------------------------- verify *)

let verify_cmd =
  let run nprocs bound =
    let b = Core.Verify.verify_all ~nprocs ~bound () in
    print_string b.report;
    let ok =
      b.invariants_hold && b.bakery_overflows && b.refinement_holds
      && b.waiting_room_lasso_free
      && (nprocs < 3 || b.gate_lasso_exists)
    in
    print_endline (if ok then "ALL CHECKS PASSED" else "SOME CHECKS FAILED");
    exit (if ok then 0 else 1)
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:"Run the paper's full 6 verification battery at one configuration")
    Term.(const run $ nprocs_arg $ bound_arg)

(* ------------------------------------------------------------- refine *)

let refine_cmd =
  let run nprocs bound =
    let impl = Core.Verify.system ~nprocs ~bound () in
    let spec =
      Modelcheck.System.make (Algorithms.Bakery.program ()) ~nprocs ~bound
    in
    let r = Core.Verify.refines_bakery ~nprocs ~bound () in
    print_endline (Modelcheck.Report.refinement_string ~impl ~spec r);
    if r.included then exit 0 else exit 1
  in
  Cmd.v
    (Cmd.info "refine"
       ~doc:"Check that Bakery++ refines Bakery (paper 6.2) by trace inclusion")
    Term.(const run $ nprocs_arg $ bound_arg)

(* ---------------------------------------------------------------- tla *)

let tla_cmd =
  let out_arg = out_file [ "o"; "output" ] ~doc:"Write the module to $(docv)." in
  let run model out =
    let p = find_model model in
    let text = Mxlang.Tla.export p in
    match out with
    | None -> print_string text
    | Some file ->
        let oc = open_out file in
        output_string oc text;
        close_out oc;
        Printf.printf "wrote %s (module %s)\n" file (Mxlang.Tla.module_name p)
  in
  Cmd.v
    (Cmd.info "tla" ~doc:"Export a model as a TLA+ module (checkable with TLC)")
    Term.(const run $ model_arg $ out_arg)

(* -------------------------------------------------------------- graph *)

let graph_cmd =
  let max_states_arg =
    int_flag ~min:1 [ "max-states" ] ~default:200 ~docv:"K"
      ~doc:"Cap on rendered states."
  in
  let out_arg = out_file [ "o"; "output" ] ~doc:"Write DOT to $(docv)." in
  let run model nprocs bound max_states out =
    let p = find_model_for model ~nprocs in
    let sys = Modelcheck.System.make p ~nprocs ~bound in
    let dot = Modelcheck.Dot.of_system ~max_states sys in
    match out with
    | None -> print_string dot
    | Some file ->
        let oc = open_out file in
        output_string oc dot;
        close_out oc;
        Printf.printf "wrote %s (render with: dot -Tsvg %s -o graph.svg)\n" file
          file
  in
  Cmd.v
    (Cmd.info "graph"
       ~doc:"Export the reachable state graph as Graphviz DOT")
    Term.(const run $ model_arg $ nprocs_arg $ bound_arg $ max_states_arg $ out_arg)

(* --------------------------------------------------------------- fuzz *)

let fuzz_cmd =
  let seed_arg =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Fuzzer PRNG seed.")
  in
  let count_arg =
    int_flag [ "count" ] ~default:50 ~docv:"K" ~doc:"Cases to run per oracle."
  in
  let oracle_arg =
    let doc =
      "Oracle to run: $(b,compile) (interpreter vs staged compiler), \
       $(b,parallel) (sequential vs parallel BFS), $(b,sharded) \
       (sequential vs 3-domain sharded BFS), $(b,regsem) (weak-register engine \
       vs atomic baseline + safe-superset), $(b,replay) (simulator \
       replay vs checker walk + mutex), $(b,reduced) (symmetry/POR \
       quotient search vs full search).  Repeatable; default all six."
    in
    Arg.(value & opt_all string [] & info [ "oracle" ] ~docv:"NAME" ~doc)
  in
  let fuzz_reduce_arg =
    let doc =
      "Restrict the $(b,reduced) oracle to one reduction leg ($(b,sym) or \
       $(b,sym+por); $(b,none) disables it).  Default: both legs per case. \
       Rejected with --replay — corpus verdicts are recorded against the \
       default legs."
    in
    Arg.(value & opt (some string) None & info [ "reduce" ] ~docv:"MODE" ~doc)
  in
  let fuzz_model_arg =
    let doc =
      "Registry model the replay oracle draws schedules for.  Repeatable; \
       default bakery_pp and peterson2 (models expected to be safe — point \
       this at bakery_mod_naive or bakery to hunt for violations)."
    in
    Arg.(value & opt_all string [] & info [ "model" ] ~docv:"MODEL" ~doc)
  in
  let max_steps_arg =
    let doc = "Schedule-length budget for the replay oracle." in
    Arg.(value & opt int 120 & info [ "max-steps" ] ~docv:"LEN" ~doc)
  in
  let max_states_arg =
    int_flag ~min:1 [ "max-states" ] ~default:20_000 ~docv:"K"
      ~doc:"Exploration budget per generated program (engine oracles)."
  in
  let out_arg =
    let doc = "Write shrunk $(b,.repro) files for every failure into $(docv)." in
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"DIR" ~doc)
  in
  let replay_arg =
    let doc =
      "Re-execute one $(b,.repro) file instead of fuzzing; exits 0 when the \
       recorded verdict reproduces, 1 when it changed or vanished."
    in
    Arg.(value & opt (some string) None & info [ "replay" ] ~docv:"FILE" ~doc)
  in
  let fuzz_register_model_arg =
    let doc =
      "Pin the flicker value domain of generated schedule plans to \
       $(b,regular) or $(b,safe) ($(b,atomic) turns flickering plans \
       inert); by default each flickering plan draws one of the two weak \
       models itself."
    in
    Term.(
      const (Option.map parse_register_model)
      $ Arg.(
          value
          & opt (some string) None
          & info [ "register-model" ] ~docv:"MODEL" ~doc))
  in
  let run seed count oracles models nprocs bound register_model reduce
      max_steps max_states out replay progress metrics_out trace_out
      flight_out flight_interval =
    (* Narrow the Reduced oracle's legs for this process only when the
       flag is given; replay keeps the default so .repro verdicts are
       self-contained. *)
    (match (replay, reduce) with
    | None, Some raw ->
        Fuzz.Oracle.reduced_modes :=
          (match parse_reduce raw with
          | Modelcheck.Reduce.Off -> []
          | Modelcheck.Reduce.Sym -> [ Modelcheck.Reduce.Sym ]
          | Modelcheck.Reduce.Sym_por -> [ Modelcheck.Reduce.Sym_por ])
    | Some _, Some _ ->
        prerr_endline "--reduce is ignored with --replay";
        exit 2
    | _, None -> ());
    match replay with
    | Some file -> (
        match Fuzz.Repro.load file with
        | Error e ->
            Printf.eprintf "cannot load %s: %s\n" file e;
            exit 2
        | Ok r -> (
            Printf.printf "replaying %s: oracle %s, recorded tag %s\n" file
              (Fuzz.Oracle.name r.Fuzz.Repro.oracle)
              r.Fuzz.Repro.tag;
            match Fuzz.Repro.replay r with
            | Fuzz.Repro.Reproduced ->
                print_endline "verdict: reproduced";
                exit 0
            | Fuzz.Repro.Changed tag ->
                Printf.printf "verdict: changed (now fails as %s)\n" tag;
                exit 1
            | Fuzz.Repro.Vanished ->
                print_endline "verdict: vanished (oracle now passes)";
                exit 1))
    | None ->
        let oracles =
          match oracles with
          | [] -> Fuzz.Oracle.all
          | names ->
              List.map (fun n -> or_usage_error (Fuzz.Oracle.of_name n)) names
        in
        let models =
          match models with [] -> Fuzz.Driver_params.default.models | l -> l
        in
        List.iter (fun m -> ignore (find_model m)) models;
        let tl =
          telemetry_setup ~name:"fuzz" ?flight_out ~flight_interval progress
            metrics_out trace_out
        in
        let cfg =
          {
            (Fuzz.Driver.default_config ~seed ~count) with
            Fuzz.Driver.oracles;
            params =
              {
                Fuzz.Driver_params.models;
                nprocs;
                bound;
                max_states;
                sched_len = max_steps;
                register_model;
              };
            out_dir = out;
            progress = tl.tl_progress;
            metrics = tl.tl_metrics;
          }
        in
        let s = Fuzz.Driver.run cfg in
        tl.tl_finish ();
        List.iter print_endline (Fuzz.Driver.summary_lines s);
        exit (if s.Fuzz.Driver.s_failures = [] then 0 else 1)
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Property-based fuzzing: differential oracles across the engines, \
          with shrinking and .repro reproducers")
    Term.(
      const run $ seed_arg $ count_arg $ oracle_arg $ fuzz_model_arg
      $ nprocs_arg $ bound_arg $ fuzz_register_model_arg $ fuzz_reduce_arg
      $ max_steps_arg $ max_states_arg $ out_arg $ replay_arg $ progress_arg
      $ metrics_out_arg $ trace_out_arg $ flight_out_arg $ flight_interval_arg)

(* -------------------------------------------------------------- bench *)

(* `bench locks`: the SLO observatory as a CLI verb — open-loop seeded
   traffic against chosen locks, scorecards to stdout and, as E13's and
   E16's are, recorded for the scorecard history. *)
let run_locks ~tl ~quick ~seed ~rate_raw ~ops ~duration_raw ~algos ~domains
    ~vbound =
  let parse_pos ~docv ~flag raw =
    let v = or_usage_error (Harness.Argscan.parse_suffixed ~docv ~flag raw) in
    if not (v > 0.0) then begin
      Printf.eprintf "%s: %s must be positive\n" flag docv;
      exit 2
    end;
    v
  in
  let rate = parse_pos ~docv:"RATE" ~flag:"--rate" rate_raw in
  let budget =
    match (ops, duration_raw) with
    | Some n, _ when n > 0 -> Workload.Openloop.Ops n
    | Some _, _ ->
        prerr_endline "--ops: must be positive";
        exit 2
    | None, Some d ->
        Workload.Openloop.Seconds
          (parse_pos ~docv:"DURATION" ~flag:"--duration" d)
    | None, None -> Workload.Openloop.Ops (if quick then 400 else 2_000)
  in
  let algos = if algos = [] then [ "bakery"; "bakery_pp" ] else algos in
  (* Bound-sensitive locks are created at the observatory's virtual
     bound, so the same M that judges the unbounded bakery's tickets
     also drives Bakery++'s resets. *)
  let resolve = Harness.Experiments.lock_resolver ~bound:vbound () in
  let t =
    Harness.Table.make
      ~title:
        (Printf.sprintf
           "bench locks: open-loop SLO scorecards (seed %d, rate %.0f/s, M=%d)"
           seed rate vbound)
      ~notes:
        [
          "latency from each op's intended start (no coordinated \
           omission); SLO = Workload.Slo.default";
          "overflow column: unbounded locks report when peak_ticket \
           crossed M; resetting locks report storm count and worst \
           storm duration";
        ]
      [
        "lock"; "domains"; "goodput/s"; "p50"; "p99"; "p999"; "max stall";
        "inv"; "jain"; "behind"; "SLO"; "overflow";
      ]
  in
  let cell = Harness.Experiments.ns_cell in
  let cards =
    List.map
      (fun algo ->
        let card =
          Workload.Suite.run_cell resolve ?progress:tl.tl_progress
            ?flight:tl.tl_flight ~virtual_bound:vbound ~algo ~nprocs:domains
            ~rate ~budget ~seed ()
        in
        let overflow_cell =
          match card.Workload.Scorecard.overflow with
          | None -> "-"
          | Some o -> (
              match (o.overflow_at_s, o.storms) with
              | Some at, _ ->
                  Printf.sprintf "ticket>M at %.4fs" at
              | None, storms when storms > 0 ->
                  Printf.sprintf "%d storm(s), worst %.4fs" storms
                    o.storm_max_s
              | None, _ -> "none")
        in
        Harness.Table.add_rowf t "%s|%d|%.0f|%s|%s|%s|%s|%d|%.3f|%d|%s|%s"
          algo domains card.goodput (cell card.p50_ns) (cell card.p99_ns)
          (cell card.p999_ns)
          (cell card.max_stall_ns)
          card.inversions card.jain card.behind
          (Harness.Experiments.slo_cell card)
          overflow_cell;
        Harness.Experiments.record_scorecard card;
        card)
      algos
  in
  print_string (Harness.Table.render t);
  print_newline ();
  List.iter
    (fun (card : Workload.Scorecard.t) ->
      match card.overflow with
      | Some o when o.resets > 0 ->
          Printf.printf
            "%s: %d reset(s) in %d storm(s) under M=%d (worst storm %.4fs)\n"
            card.algo o.resets o.storms o.virtual_bound o.storm_max_s
      | Some { overflow_at_s = Some at; overflow_ticket = Some tk; _ } ->
          Printf.printf
            "%s: a width-%d register would have overflowed after %.4fs \
             (ticket %d)\n"
            card.algo vbound at tk
      | _ -> ())
    cards

(* Everything `bench` runs by id, in the order `all` runs it: the
   experiments, the figures, then the microbenchmarks.  Each job renders
   its tables or charts as text blocks. *)
let bench_jobs =
  List.map
    (fun (e : Harness.Experiments.experiment) ->
      (e.id, e.summary, fun ~quick -> List.map Harness.Table.render (e.run ~quick)))
    Harness.Experiments.all
  @ [
      ( "figures",
        "F1-F2: overflow and reset scaling as ASCII charts",
        fun ~quick -> List.map snd (Harness.Figures.all ~quick) );
      ( "micro",
        "Uncontended acquire+release latency per lock family (Bechamel)",
        fun ~quick -> [ Harness.Table.render (Harness.Micro.table ~quick) ] );
    ]

let run_job ~quick ~tl (id, summary, blocks) =
  Printf.printf
    "---------------------------------------------------------------\n\
     %s: %s\n\n%!"
    (String.uppercase_ascii id) summary;
  let t0 = Telemetry.Clock.now_s () in
  Telemetry.Span.run
    (Option.value tl.tl_trace ~default:Telemetry.Sink.null)
    ~name:("bench." ^ id)
    (fun () -> List.iter print_endline (blocks ~quick));
  let wall = Telemetry.Clock.now_s () -. t0 in
  Printf.printf "(%s took %.1fs)\n\n%!" id wall;
  Option.iter
    (fun m -> Telemetry.Metrics.(set (gauge m ("bench." ^ id ^ ".wall_s")) wall))
    tl.tl_metrics;
  Option.iter
    (fun p ->
      Telemetry.Progress.force p (fun () ->
          Telemetry.Json.[ ("experiment", Str id); ("wall_s", Num wall) ]))
    tl.tl_progress

let bench_cmd =
  let ids_arg =
    let doc =
      "What to run, in order: experiment ids (see $(b,bakery_cli list)), \
       $(b,figures), $(b,micro), or $(b,all), the default (every \
       experiment, then the figures, then the microbenchmarks); or \
       $(b,locks) alone for the open-loop SLO suite."
    in
    Arg.(value & pos_all string [] & info [] ~docv:"ID" ~doc)
  in
  let quick_arg =
    Arg.(value & flag & info [ "quick" ] ~doc:"Small sizes (seconds, not minutes).")
  in
  let json_arg =
    out_file [ "json" ]
      ~doc:
        "Also write every datapoint the run recorded, stamped with run \
         metadata, to $(docv) as a JSON array."
  in
  let check_regress_arg =
    let doc =
      "Gate the run against history: exit 1 when a fresh E11/E12/E14/E15 \
       states/sec datapoint falls more than 15% below the best prior one \
       in BENCH_modelcheck.json, or a scorecard's goodput or p99 against \
       the best prior row of its cell in $(b,--out); exit 2 when the run \
       recorded neither."
    in
    Arg.(value & flag & info [ "check-regress" ] ~doc)
  in
  let seed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Arrival-schedule seed for `bench locks` (same seed, same schedule).")
  in
  let rate_arg =
    Arg.(value & opt string "2k" & info [ "rate" ] ~docv:"RATE" ~doc:"Offered aggregate arrival rate in ops/s for `bench locks`; unit suffixes (2k, 1M) accepted.")
  in
  let ops_arg =
    Arg.(value & opt (some int) None & info [ "ops" ] ~docv:"N" ~doc:"Operation budget for `bench locks` (deterministic non-timing fields); overrides --duration.")
  in
  let duration_arg =
    Arg.(value & opt (some string) None & info [ "duration" ] ~docv:"DURATION" ~doc:"Wall-clock budget for `bench locks`; unit suffixes (30s, 250ms) accepted.")
  in
  let algo_arg =
    let families =
      List.map
        (fun (f : Locks.Lock_intf.family) -> (f.family_name, f.family_name))
        Harness.Registry.lock_families
    in
    Term.(
      const
        (List.map (fun raw ->
             or_usage_error
               (Harness.Argscan.parse_enum ~docv:"LOCK" ~flag:"--algo"
                  ~values:families raw)))
      $ Arg.(value & opt_all string [] & info [ "algo" ] ~docv:"LOCK" ~doc:"Lock families to score (repeatable; default bakery and bakery_pp)."))
  in
  let domains_arg =
    int_flag ~min:1 [ "domains" ] ~default:2 ~docv:"D"
      ~doc:"Worker domains for `bench locks`."
  in
  let vbound_arg =
    int_flag ~min:1 [ "virtual-bound" ] ~default:64 ~docv:"M"
      ~doc:"Register width the overflow observatory judges tickets against (also the bound for bound-sensitive locks)."
  in
  let out_arg =
    out_file [ "out" ]
      ~doc:
        "Scorecard history the run's scorecards (E13, E16, `bench locks`) \
         are appended to; BENCH_locks.json when absent."
  in
  let bench_reduce_arg =
    let doc =
      "Narrow E15's reduction sweep to $(b,none), $(b,sym) or \
       $(b,sym+por); the unreduced baseline always runs as the ratio \
       denominator.  Other experiments ignore the flag."
    in
    Arg.(value & opt (some string) None & info [ "reduce" ] ~docv:"MODE" ~doc)
  in
  let run ids quick json check_regress seed rate_raw ops duration_raw algos
      domains vbound out reduce progress metrics_out trace_out flight_out
      flight_interval =
    let known =
      List.map (fun (id, _, _) -> (id, id)) bench_jobs
      @ [ ("all", "all"); ("locks", "locks") ]
    in
    List.iter
      (fun id ->
        ignore
          (or_usage_error
             (Harness.Argscan.parse_enum ~docv:"ID" ~flag:"bench" ~values:known
                id)))
      ids;
    let locks = List.mem "locks" ids in
    if locks && List.length ids > 1 then begin
      prerr_endline "bench locks does not combine with experiment ids";
      exit 2
    end;
    Option.iter
      (fun raw ->
        Harness.Experiments.e15_modes :=
          match parse_reduce raw with
          | Modelcheck.Reduce.Off -> [ Modelcheck.Reduce.Off ]
          | m -> [ Modelcheck.Reduce.Off; m ])
      reduce;
    (* bench locks: the observatory pushes one flight sample per poll
       itself — a second pull sampler would only interleave noise. *)
    let tl =
      telemetry_setup ~name:"bench" ?flight_out ~flight_interval
        ~flight_pull:(not locks) progress metrics_out trace_out
    in
    if locks then
      run_locks ~tl ~quick ~seed ~rate_raw ~ops ~duration_raw ~algos ~domains
        ~vbound
    else begin
      Printf.printf "Bakery++ reproduction bench (%s mode, %d core(s))\n\n"
        (if quick then "quick" else "full")
        (Domain.recommended_domain_count ());
      List.iter
        (fun id ->
          List.iter (run_job ~quick ~tl)
            (List.filter (fun (j, _, _) -> id = "all" || j = id) bench_jobs))
        (if ids = [] then [ "all" ] else ids)
    end;
    tl.tl_finish ();
    exit
      (Harness.History.record ?json ~check_regress
         ~modelcheck:"BENCH_modelcheck.json"
         ~scorecards:(Option.value out ~default:"BENCH_locks.json")
         (Harness.Experiments.take_metrics ())
         (Harness.Experiments.take_scorecards ()))
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:
         "Regenerate experiment tables, figures and microbenchmarks (see \
          EXPERIMENTS.md), or `bench locks` for open-loop SLO scorecards; \
          every run appends what it recorded to the BENCH histories")
    Term.(
      const run $ ids_arg $ quick_arg $ json_arg $ check_regress_arg $ seed_arg
      $ rate_arg $ ops_arg $ duration_arg $ algo_arg $ domains_arg $ vbound_arg
      $ out_arg $ bench_reduce_arg $ progress_arg $ metrics_out_arg
      $ trace_out_arg $ flight_out_arg $ flight_interval_arg)

(* ------------------------------------------------------------- report *)

(* Everything a run leaves behind — flight record, metrics snapshot,
   event stream, BENCH history — rendered into one deterministic
   markdown document.  Determinism is load-bearing: the same inputs must
   produce byte-identical output on any machine (golden-tested), so the
   verdict diff between two runs is exactly the run difference. *)
let report_cmd =
  let files_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"FILE"
          ~doc:
            "Run records (--flight-out, --metrics-out, --trace-out), routed \
             by their headers, and BENCH_*.json histories (a JSON array), \
             in any order.  Of several flight, metrics or event runs the \
             last one read is rendered; histories are joined in \
             command-line order, and scorecard rows are diffed against \
             their best prior cell.")
  in
  let out_arg =
    out_file [ "o"; "out" ] ~doc:"Write the report to $(docv) instead of stdout."
  in
  let run files out =
    if files = [] then begin
      prerr_endline "report: no FILE given";
      exit 2
    end;
    (* A BENCH history is one JSON array; a run record is JSON lines. *)
    let holds_array path =
      try
        In_channel.with_open_bin path (fun ic ->
            let rec first () =
              match In_channel.input_char ic with
              | Some (' ' | '\t' | '\r' | '\n') -> first ()
              | c -> c = Some '['
            in
            first ())
      with Sys_error _ -> false
    in
    let input =
      List.fold_left
        (fun (input : Obs.Report.input) path ->
          if holds_array path then
            {
              input with
              bench =
                input.bench @ or_usage_error (Workload.Suite.load_rows path);
            }
          else or_usage_error (Obs.Report.add_record input path))
        Obs.Report.empty files
    in
    let doc = Obs.Report.render input in
    match out with
    | None -> print_string doc
    | Some p ->
        let oc = open_out p in
        output_string oc doc;
        close_out oc
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Render a deterministic markdown run report from flight \
          records, metrics snapshots, event streams and BENCH_*.json rows")
    Term.(const run $ files_arg $ out_arg)

(* A model that fails at run time (an index outside its array, a modulo
   by zero) is the model's error, not the tool's: one line and exit 1,
   from every subcommand.  Any other exception stays cmdliner's internal
   error, exit 125. *)
let () =
  let info =
    Cmd.info "bakery_cli" ~version:"1.0.0"
      ~doc:"Bakery++ (ICPP 2020) reproduction toolkit"
  in
  let cmd =
    Cmd.group info
      [
        list_cmd; show_cmd; check_cmd; sim_cmd; explain_cmd; lasso_cmd;
        refine_cmd; verify_cmd; tla_cmd; graph_cmd; fuzz_cmd; bench_cmd;
        report_cmd;
      ]
  in
  exit
    (match Cmd.eval ~catch:false cmd with
    | code -> code
    | exception Mxlang.Eval.Error msg ->
        Printf.eprintf "model error: %s\n" msg;
        1
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        Printf.eprintf "bakery_cli: internal error, uncaught exception:\n%s\n%s"
          (Printexc.to_string e)
          (Printexc.raw_backtrace_to_string bt);
        Cmd.Exit.internal_error)
