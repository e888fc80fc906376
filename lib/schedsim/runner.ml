type crash_config = {
  crash_prob : float;
  restart_delay : int;
  only_outside_cs : bool;
}

type flicker_config = {
  flicker_prob : float;
  flicker_model : Regsem.Model.t;
  flicker_slack : int;
}

type overflow_policy = Detect | Stop | Wrap

type config = {
  nprocs : int;
  bound : int;
  strategy : Scheduler.strategy;
  max_steps : int;
  stop_after_cs : int option;
  overflow_policy : overflow_policy;
  crash : crash_config option;
  flicker : flicker_config option;
  seed : int;
  record_events : bool;
  record_rw : bool;
  progress : Telemetry.Progress.t option;
  metrics : Telemetry.Metrics.t option;
  trace : Telemetry.Sink.t option;
}

let default_config ~nprocs ~bound =
  {
    nprocs;
    bound;
    strategy = Scheduler.Round_robin;
    max_steps = 100_000;
    stop_after_cs = None;
    overflow_policy = Detect;
    crash = None;
    flicker = None;
    seed = 1;
    record_events = false;
    record_rw = false;
    progress = None;
    metrics = None;
    trace = None;
  }

type outcome = Completed | Steps_exhausted | Overflow_stop | Stuck

type result = {
  outcome : outcome;
  steps : int;
  cs_entries : int array;
  label_counts : int array array;
  overflow_events : int;
  mutex_violations : int;
  fcfs_inversions : int;
  crashes : int;
  flickers : int;
  events : Event.t list;
  final_shared : int array;
}

let total_cs r = Array.fold_left ( + ) 0 r.cs_entries

type sim = {
  cfg : config;
  env : Mxlang.Eval.env;
  program : Mxlang.Ast.program;
  ceilings : int array;
      (* per-variable value ceilings for Safe flicker; [||] otherwise *)
  shared : int array;
  locals : int array array;
  pcs : int array;
  crashed_until : int array; (* -1 = alive *)
  rng : Prng.Rng.t;
  sched : Scheduler.t;
  mutable time : int;
  mutable evs : Event.t list; (* reversed *)
  cs_entries : int array;
  label_counts : int array array;
  doorway_start_at : int array; (* -1 = not pending *)
  doorway_done_at : int array; (* -1 = not pending *)
  mutable overflow_events : int;
  mutable mutex_violations : int;
  mutable fcfs_inversions : int;
  mutable crashes : int;
  mutable flickers : int;
  mutable in_cs_count : int; (* processes currently at a Critical step *)
}

let emit sim e = if sim.cfg.record_events then sim.evs <- e :: sim.evs

(* Register-level read/write events are an opt-in refinement of the
   event log: they only flow when both [record_events] and [record_rw]
   are set, so existing event consumers (E8, metrics, CSV exports of
   old runs) see an unchanged stream by default. *)
let emit_rw sim e =
  if sim.cfg.record_events && sim.cfg.record_rw then sim.evs <- e :: sim.evs

let kind_of sim pc = sim.program.steps.(pc).kind

let make_sim program cfg =
  let env = Mxlang.Eval.make_env program ~nprocs:cfg.nprocs ~bound:cfg.bound in
  let ceilings =
    match cfg.flicker with
    | Some { flicker_model = Regsem.Model.Safe; _ } ->
        Regsem.Domain.ceilings program ~nprocs:cfg.nprocs ~bound:cfg.bound
    | _ -> [||]
  in
  {
    cfg;
    env;
    program;
    ceilings;
    shared = Mxlang.Eval.init_shared env;
    locals = Array.init cfg.nprocs (fun _ -> Mxlang.Eval.init_locals env);
    pcs = Array.make cfg.nprocs program.init_pc;
    crashed_until = Array.make cfg.nprocs (-1);
    rng = Prng.Rng.create cfg.seed;
    sched = Scheduler.make ~nprocs:cfg.nprocs cfg.strategy;
    time = 0;
    evs = [];
    cs_entries = Array.make cfg.nprocs 0;
    label_counts =
      Array.init cfg.nprocs (fun _ -> Array.make (Array.length program.steps) 0);
    doorway_start_at = Array.make cfg.nprocs (-1);
    doorway_done_at = Array.make cfg.nprocs (-1);
    overflow_events = 0;
    mutex_violations = 0;
    fcfs_inversions = 0;
    crashes = 0;
    flickers = 0;
    in_cs_count = 0;
  }

let alive sim pid = sim.crashed_until.(pid) < 0

(* A process is runnable if it is alive and some action guard holds
   (evaluated on the real, unperturbed memory). *)
let runnable_vector sim buffer =
  for pid = 0 to sim.cfg.nprocs - 1 do
    buffer.(pid) <-
      alive sim pid
      && Mxlang.Eval.enabled_actions sim.env ~shared:sim.shared
           ~locals:sim.locals.(pid) ~pid ~pc:sim.pcs.(pid)
         <> []
  done

(* Weak-register anomaly: build a read view of shared memory in which
   each cell that another live process's current step could write has,
   with probability [flicker_prob], a perturbed value drawn from the
   register model's candidate set — the value the in-flight write will
   store for a regular register, anything in the variable's range
   ({!Regsem.Domain.ceilings}) for a safe one.  A destination outside
   its variable overlaps no read: that write raises when it lands. *)
let perturbed_view sim fc ~reader =
  let view = Array.copy sim.shared in
  for other = 0 to sim.cfg.nprocs - 1 do
    if other <> reader && alive sim other then begin
      let eval =
        Mxlang.Eval.eval sim.env ~shared:sim.shared ~locals:sim.locals.(other)
          ~pid:other
      in
      List.iter
        (fun (a : Mxlang.Ast.action) ->
          List.iter
            (function
              | Mxlang.Ast.Lo _, _ -> ()
              | Mxlang.Ast.Sh (v, ix), e -> (
                  match eval ix with
                  | exception Mxlang.Eval.Error _ -> ()
                  | idx -> (
                      if
                        Mxlang.Eval.in_bounds sim.env v idx
                        && Prng.Rng.float sim.rng 1.0 < fc.flicker_prob
                      then
                        let cell = Mxlang.Eval.offset sim.env v + idx in
                        match
                          match fc.flicker_model with
                          | Regsem.Model.Atomic -> None
                          | Regsem.Model.Regular ->
                              (* the overlapped read may see the value
                                 the write is about to store *)
                              Some (eval e)
                          | Regsem.Model.Safe ->
                              Some
                                (Prng.Rng.int sim.rng
                                   (sim.ceilings.(v) + fc.flicker_slack + 1))
                        with
                        | Some value ->
                            view.(cell) <- value;
                            sim.flickers <- sim.flickers + 1;
                            emit sim
                              (Event.Flicker
                                 { time = sim.time; pid = reader; cell; value })
                        | None | (exception Mxlang.Eval.Error _) -> ())))
            a.effects)
        sim.program.steps.(sim.pcs.(other)).actions
    end
  done;
  view

(* Apply [action] for [pid]: [Eval] resolves its writes against
   [read_shared] (possibly a perturbed view); the runner's own policy is
   what a too-large store does and which events the writes leave. *)
let apply_action sim ~read_shared ~pid (a : Mxlang.Ast.action) =
  let locals = sim.locals.(pid) in
  List.iter
    (function
      | Mxlang.Eval.Local { slot; value } -> locals.(slot) <- value
      | Mxlang.Eval.Shared { var = v; cell = idx; value = raw } ->
          let cell = Mxlang.Eval.offset sim.env v + idx in
          let value =
            if sim.program.bounded.(v) && raw > sim.cfg.bound then begin
              sim.overflow_events <- sim.overflow_events + 1;
              emit sim
                (Event.Overflow
                   { time = sim.time; pid; var = v; cell = idx; value = raw });
              match sim.cfg.overflow_policy with
              | Wrap -> raw mod (sim.cfg.bound + 1)
              | Detect | Stop -> raw
            end
            else raw
          in
          emit_rw sim
            (Event.Write
               {
                 time = sim.time;
                 pid;
                 var = v;
                 cell = idx;
                 value;
                 prev = sim.shared.(cell);
                 raw;
               });
          sim.shared.(cell) <- value)
    (Mxlang.Eval.writes sim.env ~shared:read_shared ~locals ~pid a)

let crash_process sim pid =
  sim.crashes <- sim.crashes + 1;
  emit sim (Event.Crash { time = sim.time; pid });
  if kind_of sim sim.pcs.(pid) = Mxlang.Ast.Critical then
    sim.in_cs_count <- sim.in_cs_count - 1;
  (* Reset the process's own single-writer cells and locals (§1.2 cond 4). *)
  let p = sim.program in
  for v = 0 to p.nvars - 1 do
    if p.per_process.(v) then begin
      let cell = Mxlang.Eval.offset sim.env v + pid in
      emit_rw sim
        (Event.Write
           {
             time = sim.time;
             pid;
             var = v;
             cell = pid;
             value = p.init_shared.(v);
             prev = sim.shared.(cell);
             raw = p.init_shared.(v);
           });
      sim.shared.(cell) <- p.init_shared.(v)
    end
  done;
  Array.blit (Mxlang.Eval.init_locals sim.env) 0 sim.locals.(pid) 0
    (Array.length sim.locals.(pid));
  sim.pcs.(pid) <- p.init_pc;
  sim.doorway_start_at.(pid) <- -1;
  sim.doorway_done_at.(pid) <- -1;
  sim.crashed_until.(pid) <- sim.time + (match sim.cfg.crash with Some c -> c.restart_delay | None -> 0)

let maybe_crash sim =
  match sim.cfg.crash with
  | None -> ()
  | Some c ->
      if Prng.Rng.float sim.rng 1.0 < c.crash_prob then begin
        (* [only_outside_cs] also spares the exit protocol: a process
           there still holds the resource, and for algorithms with
           multi-writer state (e.g. a TAS bit) a crash would wedge the
           system rather than model the paper's benign failure. *)
        let eligible =
          List.filter
            (fun pid ->
              alive sim pid
              &&
              match kind_of sim sim.pcs.(pid) with
              | Mxlang.Ast.Critical | Mxlang.Ast.Exit -> not c.only_outside_cs
              | _ -> true)
            (List.init sim.cfg.nprocs Fun.id)
        in
        match eligible with
        | [] -> ()
        | l -> crash_process sim (List.nth l (Prng.Rng.int sim.rng (List.length l)))
      end

let maybe_restart sim =
  for pid = 0 to sim.cfg.nprocs - 1 do
    if sim.crashed_until.(pid) >= 0 && sim.time >= sim.crashed_until.(pid) then begin
      sim.crashed_until.(pid) <- -1;
      emit sim (Event.Restart { time = sim.time; pid })
    end
  done

(* Track CS entries/exits, doorway completion and FCFS inversions around a
   pc change of [pid]. *)
let note_transition sim pid ~from_pc ~to_pc =
  let from_kind = kind_of sim from_pc and to_kind = kind_of sim to_pc in
  if from_kind <> Mxlang.Ast.Doorway && to_kind = Mxlang.Ast.Doorway then
    sim.doorway_start_at.(pid) <- sim.time;
  (if from_kind = Mxlang.Ast.Doorway && to_kind <> Mxlang.Ast.Doorway then
     match to_kind with
     | Mxlang.Ast.Entry | Noncritical ->
         (* Abandoned doorway (e.g. Bakery++'s overflow reset): the
            process goes back behind the gate with no claim to a turn. *)
         sim.doorway_start_at.(pid) <- -1;
         sim.doorway_done_at.(pid) <- -1
     | Doorway | Waiting | Critical | Exit | Plain ->
         sim.doorway_done_at.(pid) <- sim.time;
         emit sim (Event.Doorway_done { time = sim.time; pid }));
  if from_kind <> Mxlang.Ast.Critical && to_kind = Mxlang.Ast.Critical then begin
    sim.cs_entries.(pid) <- sim.cs_entries.(pid) + 1;
    emit sim (Event.Cs_enter { time = sim.time; pid });
    (* First-come-first-served, in Lamport's sense: if another process
       finished its doorway before we *started* ours and it is still
       waiting, we have overtaken it.  (Processes whose doorways
       overlapped ours may legitimately enter in either order.) *)
    let my_start = sim.doorway_start_at.(pid) in
    if my_start >= 0 then
      for other = 0 to sim.cfg.nprocs - 1 do
        if
          other <> pid
          && sim.doorway_done_at.(other) >= 0
          && sim.doorway_done_at.(other) < my_start
          && kind_of sim sim.pcs.(other) <> Mxlang.Ast.Critical
        then sim.fcfs_inversions <- sim.fcfs_inversions + 1
      done;
    sim.doorway_start_at.(pid) <- -1;
    sim.doorway_done_at.(pid) <- -1;
    sim.in_cs_count <- sim.in_cs_count + 1;
    if sim.in_cs_count > 1 then begin
      sim.mutex_violations <- sim.mutex_violations + 1;
      let pids =
        List.filter
          (fun i -> kind_of sim sim.pcs.(i) = Mxlang.Ast.Critical)
          (List.init sim.cfg.nprocs Fun.id)
      in
      emit sim (Event.Mutex_violation { time = sim.time; pids })
    end
  end;
  if from_kind = Mxlang.Ast.Critical && to_kind <> Mxlang.Ast.Critical then begin
    sim.in_cs_count <- sim.in_cs_count - 1;
    emit sim (Event.Cs_exit { time = sim.time; pid })
  end

(* Step/crash/flicker telemetry around one simulator run: a per-step
   rate-limited progress tick, end-of-run registry counters, and one
   schedule-replay span (everything needed to reproduce the run:
   scheduler, seed, budget) on the trace sink. *)

let tick_of sim =
  match sim.cfg.progress with
  | None -> fun () -> ()
  | Some p ->
      let t0 = Unix.gettimeofday () in
      let fields () =
        let elapsed = Unix.gettimeofday () -. t0 in
        [
          ("steps", Telemetry.Json.Num (float_of_int sim.time));
          ( "cs_entries",
            Telemetry.Json.Num
              (float_of_int (Array.fold_left ( + ) 0 sim.cs_entries)) );
          ("crashes", Telemetry.Json.Num (float_of_int sim.crashes));
          ("flickers", Telemetry.Json.Num (float_of_int sim.flickers));
          ( "overflows",
            Telemetry.Json.Num (float_of_int sim.overflow_events) );
          ( "ksteps_s",
            Telemetry.Json.Num
              (if elapsed > 0.0 then
                 float_of_int sim.time /. elapsed /. 1e3
               else 0.0) );
        ]
      in
      fun () -> Telemetry.Progress.tick p fields

let outcome_tag = function
  | Completed -> "completed"
  | Steps_exhausted -> "steps_exhausted"
  | Overflow_stop -> "overflow_stop"
  | Stuck -> "stuck"

let record_finish sim outcome span =
  (match sim.cfg.metrics with
  | None -> ()
  | Some m ->
      let open Telemetry.Metrics in
      add (counter m "sim.steps") sim.time;
      add (counter m "sim.cs_entries") (Array.fold_left ( + ) 0 sim.cs_entries);
      add (counter m "sim.crashes") sim.crashes;
      add (counter m "sim.flickers") sim.flickers;
      add (counter m "sim.overflow_events") sim.overflow_events;
      add (counter m "sim.mutex_violations") sim.mutex_violations;
      add (counter m "sim.fcfs_inversions") sim.fcfs_inversions);
  (match sim.cfg.progress with
  | None -> ()
  | Some p ->
      Telemetry.Progress.force p (fun () ->
          [
            ("outcome", Telemetry.Json.Str (outcome_tag outcome));
            ("steps", Telemetry.Json.Num (float_of_int sim.time));
            ( "cs_entries",
              Telemetry.Json.Num
                (float_of_int (Array.fold_left ( + ) 0 sim.cs_entries)) );
            ("crashes", Telemetry.Json.Num (float_of_int sim.crashes));
            ("flickers", Telemetry.Json.Num (float_of_int sim.flickers));
            ( "overflows",
              Telemetry.Json.Num (float_of_int sim.overflow_events) );
          ]));
  match sim.cfg.trace with
  | None -> ()
  | Some sink ->
      Telemetry.Span.finish
        ~fields:
          [
            ("scheduler", Telemetry.Json.Str (Scheduler.describe sim.cfg.strategy));
            ("seed", Telemetry.Json.Num (float_of_int sim.cfg.seed));
            ("nprocs", Telemetry.Json.Num (float_of_int sim.cfg.nprocs));
            ("bound", Telemetry.Json.Num (float_of_int sim.cfg.bound));
            ("max_steps", Telemetry.Json.Num (float_of_int sim.cfg.max_steps));
            ("steps", Telemetry.Json.Num (float_of_int sim.time));
            ("outcome", Telemetry.Json.Str (outcome_tag outcome));
          ]
        sink span

let run program cfg =
  Mxlang.Validate.assert_valid program;
  let sim = make_sim program cfg in
  let span = Telemetry.Span.start ~name:"sim.replay" in
  let tick = tick_of sim in
  let runnable = Array.make cfg.nprocs false in
  let outcome = ref Steps_exhausted in
  let continue = ref true in
  while !continue && sim.time < cfg.max_steps do
    tick ();
    maybe_restart sim;
    maybe_crash sim;
    runnable_vector sim runnable;
    (match Scheduler.pick sim.sched ~runnable with
    | None ->
        if Array.exists (fun t -> t >= 0) sim.crashed_until then
          (* Everyone runnable is crashed; let time pass until a restart. *)
          ()
        else begin
          outcome := Stuck;
          continue := false
        end
    | Some pid ->
        let read_shared =
          match cfg.flicker with
          | None | Some { flicker_model = Regsem.Model.Atomic; _ } ->
              sim.shared
          | Some fc -> perturbed_view sim fc ~reader:pid
        in
        (match
           Mxlang.Eval.enabled_actions sim.env ~shared:read_shared
             ~locals:sim.locals.(pid) ~pid ~pc:sim.pcs.(pid)
         with
        | [] -> () (* flicker made the guard false: the step spins *)
        | a :: rest ->
            let a =
              if rest = [] then a
              else
                List.nth (a :: rest) (Prng.Rng.int sim.rng (1 + List.length rest))
            in
            let from_pc = sim.pcs.(pid) in
            if cfg.record_events && cfg.record_rw then
              List.iter
                (fun (r : Mxlang.Reads.read) ->
                  emit_rw sim
                    (Event.Read
                       {
                         time = sim.time;
                         pid;
                         var = r.rd_var;
                         cell = r.rd_cell;
                         value = r.rd_value;
                       }))
                (Mxlang.Reads.of_action sim.env ~shared:read_shared
                   ~locals:sim.locals.(pid) ~pid a);
            apply_action sim ~read_shared ~pid a;
            sim.pcs.(pid) <- a.target;
            sim.label_counts.(pid).(from_pc) <-
              sim.label_counts.(pid).(from_pc) + 1;
            emit sim
              (Event.Step { time = sim.time; pid; pc = from_pc; target = a.target });
            note_transition sim pid ~from_pc ~to_pc:a.target;
            if cfg.overflow_policy = Stop && sim.overflow_events > 0 then begin
              outcome := Overflow_stop;
              continue := false
            end;
            match cfg.stop_after_cs with
            | Some target
              when Array.fold_left ( + ) 0 sim.cs_entries >= target ->
                outcome := Completed;
                continue := false
            | _ -> ()));
    sim.time <- sim.time + 1
  done;
  record_finish sim !outcome span;
  {
    outcome = !outcome;
    steps = sim.time;
    cs_entries = sim.cs_entries;
    label_counts = sim.label_counts;
    overflow_events = sim.overflow_events;
    mutex_violations = sim.mutex_violations;
    fcfs_inversions = sim.fcfs_inversions;
    crashes = sim.crashes;
    flickers = sim.flickers;
    events = List.rev sim.evs;
    final_shared = Array.copy sim.shared;
  }
