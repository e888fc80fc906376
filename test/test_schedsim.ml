(* Tests for the deterministic concurrency simulator: scheduler
   strategies, run determinism, event accounting, crash-restart
   semantics, flicker injection and the derived metrics. *)

let check = Alcotest.check
let int_t = Alcotest.int
let bool_t = Alcotest.bool

let default ~nprocs ~bound = Schedsim.Runner.default_config ~nprocs ~bound

(* ------------------------------------------------------------ scheduler *)

let round_robin_skips_blocked () =
  let s = Schedsim.Scheduler.make ~nprocs:3 Schedsim.Scheduler.Round_robin in
  let runnable = [| true; false; true |] in
  check (Alcotest.option int_t) "first pick" (Some 0)
    (Schedsim.Scheduler.pick s ~runnable);
  check (Alcotest.option int_t) "skips blocked 1" (Some 2)
    (Schedsim.Scheduler.pick s ~runnable);
  check (Alcotest.option int_t) "wraps" (Some 0)
    (Schedsim.Scheduler.pick s ~runnable);
  check (Alcotest.option int_t) "none runnable" None
    (Schedsim.Scheduler.pick s ~runnable:[| false; false; false |])

let uniform_deterministic () =
  let picks seed =
    let s = Schedsim.Scheduler.make ~nprocs:4 (Schedsim.Scheduler.Uniform seed) in
    List.init 50 (fun _ ->
        Schedsim.Scheduler.pick s ~runnable:[| true; true; true; true |])
  in
  check bool_t "same seed, same schedule" true (picks 5 = picks 5);
  check bool_t "different seed, different schedule" true (picks 5 <> picks 6)

let uniform_only_runnable () =
  let s = Schedsim.Scheduler.make ~nprocs:4 (Schedsim.Scheduler.Uniform 9) in
  for _ = 1 to 100 do
    match Schedsim.Scheduler.pick s ~runnable:[| false; true; false; true |] with
    | Some i -> check bool_t "picked a runnable process" true (i = 1 || i = 3)
    | None -> Alcotest.fail "some process was runnable"
  done

let weighted_biases () =
  let s =
    Schedsim.Scheduler.make ~nprocs:2
      (Schedsim.Scheduler.Weighted ([| 1.0; 99.0 |], 3))
  in
  let count = Array.make 2 0 in
  for _ = 1 to 1000 do
    match Schedsim.Scheduler.pick s ~runnable:[| true; true |] with
    | Some i -> count.(i) <- count.(i) + 1
    | None -> ()
  done;
  check bool_t "heavy process scheduled far more often" true
    (count.(1) > 900 && count.(0) > 0)

let handicap_limits_victim () =
  let s =
    Schedsim.Scheduler.make ~nprocs:3
      (Schedsim.Scheduler.Handicap { victim = 0; period = 10; seed = 1 })
  in
  let count = Array.make 3 0 in
  for _ = 1 to 1000 do
    match Schedsim.Scheduler.pick s ~runnable:[| true; true; true |] with
    | Some i -> count.(i) <- count.(i) + 1
    | None -> ()
  done;
  check int_t "victim gets exactly its turns" 100 count.(0)

let scheduler_validation () =
  (match
     Schedsim.Scheduler.make ~nprocs:2 (Schedsim.Scheduler.Weighted ([| 1.0 |], 0))
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "weight length mismatch must be rejected");
  match
    Schedsim.Scheduler.make ~nprocs:2
      (Schedsim.Scheduler.Handicap { victim = 5; period = 2; seed = 0 })
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "victim out of range must be rejected"

(* --------------------------------------------------------------- runner *)

let run_deterministic () =
  let prog = Core.Bakery_pp_model.program () in
  let cfg =
    {
      (default ~nprocs:3 ~bound:4) with
      strategy = Schedsim.Scheduler.Uniform 17;
      max_steps = 20_000;
    }
  in
  let a = Schedsim.Runner.run prog cfg in
  let b = Schedsim.Runner.run prog cfg in
  check bool_t "identical cs counts" true (a.cs_entries = b.cs_entries);
  check bool_t "identical final memory" true (a.final_shared = b.final_shared);
  check int_t "identical steps" a.steps b.steps

let run_mutex_holds () =
  let prog = Core.Bakery_pp_model.program () in
  let cfg =
    {
      (default ~nprocs:4 ~bound:3) with
      strategy = Schedsim.Scheduler.Uniform 99;
      max_steps = 100_000;
    }
  in
  let r = Schedsim.Runner.run prog cfg in
  check int_t "no mutex violations" 0 r.mutex_violations;
  check int_t "no overflows" 0 r.overflow_events;
  check bool_t "progress" true (Schedsim.Runner.total_cs r > 100)

let run_stop_after_cs () =
  let prog = Algorithms.Tas_model.program () in
  let cfg =
    { (default ~nprocs:2 ~bound:4) with stop_after_cs = Some 10 }
  in
  let r = Schedsim.Runner.run prog cfg in
  check bool_t "completed" true (r.outcome = Schedsim.Runner.Completed);
  check int_t "exact stop" 10 (Schedsim.Runner.total_cs r)

let run_overflow_stop () =
  let prog = Algorithms.Bakery.program () in
  let cfg =
    {
      (default ~nprocs:2 ~bound:5) with
      strategy = Schedsim.Scheduler.Round_robin;
      overflow_policy = Schedsim.Runner.Stop;
      max_steps = 1_000_000;
    }
  in
  let r = Schedsim.Runner.run prog cfg in
  check bool_t "overflow reached" true (r.outcome = Schedsim.Runner.Overflow_stop);
  check bool_t "overflow recorded" true (r.overflow_events >= 1)

let run_wrap_breaks_mutex () =
  let prog = Algorithms.Bakery.program () in
  let cfg =
    {
      (default ~nprocs:3 ~bound:4) with
      strategy = Schedsim.Scheduler.Uniform 42;
      overflow_policy = Schedsim.Runner.Wrap;
      max_steps = 500_000;
    }
  in
  let r = Schedsim.Runner.run prog cfg in
  check bool_t "wrapping registers eventually break mutual exclusion" true
    (r.mutex_violations > 0)

let run_label_counts_sum () =
  let prog = Core.Bakery_pp_model.program () in
  let cfg =
    {
      (default ~nprocs:2 ~bound:8) with
      strategy = Schedsim.Scheduler.Uniform 3;
      max_steps = 5_000;
    }
  in
  let r = Schedsim.Runner.run prog cfg in
  let total_label_steps =
    Array.fold_left
      (fun acc per -> acc + Array.fold_left ( + ) 0 per)
      0 r.label_counts
  in
  (* Every simulated step executes exactly one label (blocked picks spin
     without executing, and those are not counted as label steps). *)
  check bool_t "label counts bounded by steps" true
    (total_label_steps <= r.steps);
  check bool_t "most steps execute" true
    (total_label_steps > r.steps / 2)

(* ---------------------------------------------------------------- crash *)

let crash_restarts_and_preserves_safety () =
  let prog = Core.Bakery_pp_model.program () in
  let cfg =
    {
      (default ~nprocs:3 ~bound:4) with
      strategy = Schedsim.Scheduler.Uniform 7;
      max_steps = 150_000;
      crash =
        Some { crash_prob = 0.002; restart_delay = 20; only_outside_cs = false };
      record_events = true;
    }
  in
  let r = Schedsim.Runner.run prog cfg in
  check bool_t "crashes happened" true (r.crashes > 10);
  check int_t "mutex holds through crashes" 0 r.mutex_violations;
  check int_t "no overflows through crashes" 0 r.overflow_events;
  let restarts =
    List.length
      (List.filter
         (function Schedsim.Event.Restart _ -> true | _ -> false)
         r.events)
  in
  check bool_t "crashed processes restart" true (restarts > 0);
  check bool_t "system keeps making progress" true
    (Schedsim.Runner.total_cs r > 50)

let crash_resets_own_registers () =
  (* After a crash, the crashed process's single-writer cells read 0. *)
  let prog = Core.Bakery_pp_model.program () in
  let cfg =
    {
      (default ~nprocs:2 ~bound:4) with
      strategy = Schedsim.Scheduler.Uniform 13;
      max_steps = 50_000;
      crash =
        Some { crash_prob = 0.01; restart_delay = 1_000_000; only_outside_cs = false };
    }
  in
  (* With an effectively infinite restart delay, both processes eventually
     crash and stay down: all per-process cells must then be 0. *)
  let r = Schedsim.Runner.run prog cfg in
  if r.crashes >= 2 then
    Array.iteri
      (fun _ v -> check int_t "register reset to initial" 0 v)
      r.final_shared

let crash_only_outside_cs () =
  let prog = Algorithms.Tas_model.program () in
  let cfg =
    {
      (default ~nprocs:2 ~bound:4) with
      strategy = Schedsim.Scheduler.Uniform 5;
      max_steps = 50_000;
      crash =
        Some { crash_prob = 0.05; restart_delay = 10; only_outside_cs = true };
      record_events = true;
    }
  in
  (* TAS holds a shared non-per-process lock bit, so a CS crash would
     wedge the system; only_outside_cs avoids that.  The check: the
     system still completes CS entries to the end. *)
  let r = Schedsim.Runner.run prog cfg in
  check bool_t "progress sustained" true (Schedsim.Runner.total_cs r > 100)

(* -------------------------------------------------------------- flicker *)

let flicker_cfg ~nprocs ~bound ~model =
  {
    (default ~nprocs ~bound) with
    strategy = Schedsim.Scheduler.Uniform 21;
    max_steps = 100_000;
    flicker =
      Some
        {
          Schedsim.Runner.flicker_prob = 0.1;
          flicker_model = model;
          flicker_slack = 0;
        };
  }

let flicker_counts_and_safety () =
  let prog = Core.Bakery_pp_model.program () in
  let cfg = flicker_cfg ~nprocs:3 ~bound:6 ~model:Regsem.Model.Safe in
  let r = Schedsim.Runner.run prog cfg in
  check bool_t "flickers injected" true (r.flickers > 0);
  check int_t "mutex holds under safe-register anomalies" 0 r.mutex_violations;
  check int_t "no overflow under in-range flicker" 0 r.overflow_events

let flicker_atomic_model_is_inert () =
  let prog = Core.Bakery_pp_model.program () in
  let r =
    Schedsim.Runner.run prog
      (flicker_cfg ~nprocs:3 ~bound:6 ~model:Regsem.Model.Atomic)
  in
  let clean =
    Schedsim.Runner.run prog
      { (flicker_cfg ~nprocs:3 ~bound:6 ~model:Regsem.Model.Atomic) with flicker = None }
  in
  check int_t "atomic flicker model injects nothing" 0 r.flickers;
  check bool_t "atomic flicker run equals a flicker-free run" true
    (r.cs_entries = clean.cs_entries && r.final_shared = clean.final_shared)

let flicker_regular_stays_in_written_range () =
  (* Under a regular register a flickered read returns the value the
     in-flight write is about to store, so Bakery++'s bounded tickets
     can never be observed above M + 1 (the pre-reset overflow value). *)
  let prog = Core.Bakery_pp_model.program () in
  let bound = 6 in
  let r =
    Schedsim.Runner.run prog
      (flicker_cfg ~nprocs:3 ~bound ~model:Regsem.Model.Regular)
  in
  check bool_t "regular flickers injected" true (r.flickers > 0);
  check int_t "mutex holds under regular-register anomalies" 0
    r.mutex_violations

(* -------------------------------------------------------------- metrics *)

let metrics_throughput_and_jain () =
  let prog = Algorithms.Ticket_model.program () in
  let cfg =
    {
      (default ~nprocs:2 ~bound:(1 lsl 20)) with
      strategy = Schedsim.Scheduler.Uniform 2;
      max_steps = 50_000;
      record_events = true;
    }
  in
  let r = Schedsim.Runner.run prog cfg in
  let tp = Schedsim.Metrics.throughput r in
  check bool_t "throughput positive" true (tp > 0.0);
  let j = Workload.Fairness.jain r.cs_entries in
  check bool_t "jain in (0,1]" true (j > 0.0 && j <= 1.0);
  check bool_t "ticket lock is fair" true (j > 0.9);
  let entries = Schedsim.Metrics.cs_entry_times r in
  check int_t "event log agrees with counters"
    (Schedsim.Runner.total_cs r) (List.length entries);
  check bool_t "waiting time observed" true
    (Schedsim.Metrics.max_waiting_time r >= 0)

let metrics_label_count () =
  let prog = Core.Bakery_pp_model.program () in
  let cfg =
    {
      (default ~nprocs:2 ~bound:2) with
      strategy = Schedsim.Scheduler.Uniform 41;
      max_steps = 100_000;
    }
  in
  let r = Schedsim.Runner.run prog cfg in
  let resets =
    Schedsim.Metrics.label_count prog r Core.Bakery_pp_model.reset_label
  in
  check bool_t "tiny M forces resets" true (resets > 0);
  match Schedsim.Metrics.label_count prog r "no_such_label" with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "unknown label must raise"

let bounded_overtaking () =
  (* Bakery-family FCFS implies at most N-1 overtakes after the doorway. *)
  let nprocs = 4 in
  List.iter
    (fun prog ->
      let cfg =
        {
          (default ~nprocs ~bound:(1 lsl 20)) with
          strategy = Schedsim.Scheduler.Uniform 61;
          max_steps = 150_000;
          record_events = true;
        }
      in
      let r = Schedsim.Runner.run prog cfg in
      let ot = Schedsim.Metrics.max_overtakes r in
      check bool_t
        (Printf.sprintf "%s: max overtakes %d <= N-1" prog.Mxlang.Ast.title ot)
        true
        (ot <= nprocs - 1))
    [
      Algorithms.Bakery.program ();
      Core.Bakery_pp_model.program ();
      Algorithms.Ticket_model.program ();
    ]

let fcfs_zero_for_bakery () =
  List.iter
    (fun prog ->
      let cfg =
        {
          (default ~nprocs:4 ~bound:(1 lsl 20)) with
          strategy = Schedsim.Scheduler.Uniform 31;
          max_steps = 150_000;
        }
      in
      let r = Schedsim.Runner.run prog cfg in
      check int_t
        (Printf.sprintf "FCFS holds for %s" prog.Mxlang.Ast.title)
        0 r.fcfs_inversions)
    [
      Algorithms.Bakery.program ();
      Core.Bakery_pp_model.program ();
      Algorithms.Ticket_model.program ();
    ]

(* -------------------------------------------------------------- history *)

let replay_reproduces_run () =
  let prog = Core.Bakery_pp_model.program () in
  let cfg =
    {
      (default ~nprocs:3 ~bound:4) with
      strategy = Schedsim.Scheduler.Uniform 57;
      max_steps = 20_000;
      record_events = true;
    }
  in
  let original = Schedsim.Runner.run prog cfg in
  let schedule = Schedsim.History.schedule_of original in
  check bool_t "schedule nonempty" true (Array.length schedule > 1000);
  let replayed =
    Schedsim.Runner.run prog
      {
        cfg with
        strategy = Schedsim.Scheduler.Replay schedule;
        max_steps = Array.length schedule;
      }
  in
  check bool_t "same per-process CS entries" true
    (original.cs_entries = replayed.cs_entries);
  check bool_t "same final memory" true
    (original.final_shared = replayed.final_shared);
  check int_t "same reset count"
    (Schedsim.Metrics.label_count prog original Core.Bakery_pp_model.reset_label)
    (Schedsim.Metrics.label_count prog replayed Core.Bakery_pp_model.reset_label)

let history_export () =
  let prog = Algorithms.Ticket_model.program () in
  let cfg =
    {
      (default ~nprocs:2 ~bound:(1 lsl 20)) with
      strategy = Schedsim.Scheduler.Uniform 3;
      max_steps = 2_000;
      record_events = true;
    }
  in
  let r = Schedsim.Runner.run prog cfg in
  let text = Schedsim.History.to_text prog r in
  let csv = Schedsim.History.to_csv prog r in
  let contains hay needle =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  check bool_t "text mentions CS entries" true (contains text "ENTER CS");
  check bool_t "csv has header" true (contains csv "time,event,pid,detail");
  check bool_t "csv has steps" true (contains csv ",step,");
  check bool_t "csv has cs events" true (contains csv ",cs_enter,")

(* A destination index outside its variable is the same error in the
   simulator as in the checker, compiled or interpreted: both resolve
   writes through [Eval].  Two processes, per-process [a] and [c], one
   step writing a[pid+1] := 7: process 1's write falls past [a]. *)
let out_of_range_write () =
  let p =
    let open Mxlang in
    let b = Builder.create ~title:"write_past_end" in
    let a = Builder.shared_per_process b "a" () in
    let _c = Builder.shared_per_process b "c" () in
    let l0 = Builder.fresh_label b "L0" in
    Builder.define b l0 ~kind:Ast.Noncritical
      [ Builder.action ~effects:[ Dsl.(set a (self +: one) (int 7)) ] l0 ];
    Builder.build b
  in
  let error_of f =
    match f () with
    | _ -> None
    | exception Mxlang.Eval.Error msg -> Some msg
  in
  let expected = Some "write a[2]: index out of range" in
  let sys = Modelcheck.System.make p ~nprocs:2 ~bound:3 in
  List.iter
    (fun (what, f) ->
      check Alcotest.(option string) what expected (error_of f))
    [
      ("check, compiled", fun () -> ignore (Modelcheck.Explore.run sys));
      ( "check, interpreted",
        fun () -> ignore (Modelcheck.Explore.run ~interpreted:true sys) );
      ( "sim",
        fun () -> ignore (Schedsim.Runner.run p (default ~nprocs:2 ~bound:3)) );
    ]

let () =
  Alcotest.run "schedsim"
    [
      ( "scheduler",
        [
          Alcotest.test_case "round robin" `Quick round_robin_skips_blocked;
          Alcotest.test_case "uniform determinism" `Quick uniform_deterministic;
          Alcotest.test_case "uniform picks runnable" `Quick
            uniform_only_runnable;
          Alcotest.test_case "weighted bias" `Quick weighted_biases;
          Alcotest.test_case "handicap quota" `Quick handicap_limits_victim;
          Alcotest.test_case "argument validation" `Quick scheduler_validation;
        ] );
      ( "runner",
        [
          Alcotest.test_case "deterministic replay" `Quick run_deterministic;
          Alcotest.test_case "mutex + no overflow in long run" `Quick
            run_mutex_holds;
          Alcotest.test_case "stop after N entries" `Quick run_stop_after_cs;
          Alcotest.test_case "overflow stop policy" `Quick run_overflow_stop;
          Alcotest.test_case "wrap policy corrupts bakery" `Quick
            run_wrap_breaks_mutex;
          Alcotest.test_case "label accounting" `Quick run_label_counts_sum;
          Alcotest.test_case "out-of-range write raises" `Quick
            out_of_range_write;
        ] );
      ( "crash",
        [
          Alcotest.test_case "safety through crash-restart" `Quick
            crash_restarts_and_preserves_safety;
          Alcotest.test_case "crash resets own registers" `Quick
            crash_resets_own_registers;
          Alcotest.test_case "only_outside_cs" `Quick crash_only_outside_cs;
        ] );
      ( "flicker",
        [
          Alcotest.test_case "safe-register anomalies" `Quick
            flicker_counts_and_safety;
          Alcotest.test_case "atomic model is inert" `Quick
            flicker_atomic_model_is_inert;
          Alcotest.test_case "regular-register anomalies" `Quick
            flicker_regular_stays_in_written_range;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "throughput, jain, events" `Quick
            metrics_throughput_and_jain;
          Alcotest.test_case "label_count" `Quick metrics_label_count;
          Alcotest.test_case "FCFS inversions are zero for bakery family"
            `Quick fcfs_zero_for_bakery;
          Alcotest.test_case "bounded overtaking (<= N-1)" `Quick
            bounded_overtaking;
        ] );
      ( "history",
        [
          Alcotest.test_case "schedule replay is exact" `Quick
            replay_reproduces_run;
          Alcotest.test_case "text and csv export" `Quick history_export;
        ] );
    ]
