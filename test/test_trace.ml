(* Tier-1 tests for lib/trace: golden determinism of the explainer on
   the whole .repro corpus, Chrome trace-event well-formedness (parsed
   back through Telemetry.Json: one complete label track per process,
   tiled and monotone), vector-clock laws on fuzz-generated schedules,
   the self-describing JSONL codec (round trip + schema rejection), the
   trace-derived FCFS-inversion query against the runner's counter, and
   the differential guarantee that switching register-level recording
   on changes nothing but the event stream. *)

module J = Telemetry.Json

let check = Alcotest.check
let int_t = Alcotest.int
let bool_t = Alcotest.bool
let string_t = Alcotest.string

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------- corpus *)

(* Only the schedule entries: the explainer tests below re-execute
   each case through the simulator, which program-case repros (e.g.
   the reduced_* tie-break entries) cannot do — test_fuzz.ml replays
   those through their own oracle. *)
let corpus_files () =
  Sys.readdir "corpus" |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".repro")
  |> List.sort compare
  |> List.map (Filename.concat "corpus")
  |> List.filter (fun file ->
         match Fuzz.Repro.load file with
         | Error e -> Alcotest.failf "%s: cannot load: %s" file e
         | Ok r -> (
             match r.Fuzz.Repro.case with
             | Fuzz.Oracle.Sched_case _ -> true
             | Fuzz.Oracle.Prog_case _ -> false))

let plan_of_file file =
  match Fuzz.Repro.load file with
  | Error e -> Alcotest.failf "%s: cannot load: %s" file e
  | Ok r -> (
      match r.Fuzz.Repro.case with
      | Fuzz.Oracle.Sched_case pl -> pl
      | Fuzz.Oracle.Prog_case _ ->
          Alcotest.failf "%s: expected a schedule case" file)

(* Same path the CLI `explain --repro` takes: re-execute the schedule
   with full event recording and lift the run into a causal trace. *)
let run_plan ?(record_rw = true) (pl : Fuzz.Gen.plan) =
  let p = Harness.Registry.find_model pl.Fuzz.Gen.pl_model in
  let cfg =
    {
      (Fuzz.Oracle.sim_config pl) with
      Schedsim.Runner.record_events = true;
      record_rw;
    }
  in
  (p, Schedsim.Runner.run p cfg)

let trace_of_plan pl =
  let p, r = run_plan pl in
  (r, Trace.Of_sim.trace p ~nprocs:pl.Fuzz.Gen.pl_nprocs ~bound:pl.pl_bound r)

(* Random plans for the law/differential tests: a mix of safe and
   unsafe models, wrapping on, occasional crash/flicker injection. *)
let gen_plan seed =
  let rng = Prng.Rng.create seed in
  (* all three scale to the 3 processes the plans run with (peterson2
     does not) *)
  Fuzz.Gen.plan rng
    ~models:[ "bakery_pp"; "bakery"; "bakery_mod_naive" ]
    ~nprocs:3 ~bound:3 ~max_len:80

(* ---------------------------------------------------- explain goldens *)

(* The annotated story is a pure function of the repro file: rendering
   it must reproduce the committed golden byte for byte.  Catching any
   accidental nondeterminism (wall clocks, hash order) and any silent
   wording drift in one place. *)
let test_explain_goldens () =
  let files = corpus_files () in
  check bool_t "corpus is non-empty" true (List.length files >= 5);
  List.iter
    (fun file ->
      let base = Filename.remove_extension (Filename.basename file) in
      let golden = Filename.concat "golden" (base ^ ".explain.txt") in
      let _, tr = trace_of_plan (plan_of_file file) in
      let got = Trace.Explain.render tr in
      check string_t base (read_file golden) got)
    files

let test_explain_deterministic () =
  List.iter
    (fun file ->
      let pl = plan_of_file file in
      let _, t1 = trace_of_plan pl in
      let _, t2 = trace_of_plan pl in
      check string_t
        (file ^ ": two runs explain identically")
        (Trace.Explain.render t1) (Trace.Explain.render t2))
    (corpus_files ())

(* The wrap corpus entries are the paper's §3 scenario: the story must
   name the failed mutex conjunct and the wrapping write it observed. *)
let test_explain_names_the_corruption () =
  List.iter
    (fun file ->
      let pl = plan_of_file file in
      let _, tr = trace_of_plan pl in
      let s = Trace.Explain.render tr in
      let wants =
        [
          "VIOLATION: mutual-exclusion";
          "at most one process is at a Critical-kind label";
        ]
        (* only the bakery_wrap entries corrupt through the runner's
           register-wrap policy; bakery_mod_naive wraps inside its own
           modulo arithmetic, which never exceeds M *)
        @
        if
          String.length (Filename.basename file) >= 11
          && String.sub (Filename.basename file) 0 11 = "bakery_wrap"
        then [ "WRAPPED"; "happens-before" ]
        else []
      in
      List.iter
        (fun needle ->
          check bool_t
            (Printf.sprintf "%s: story mentions %S" file needle)
            true (contains s needle))
        wants)
    (corpus_files ())

(* ----------------------------------------------------- chrome export *)

let obj_fields = function J.Obj l -> l | _ -> Alcotest.fail "expected object"

let fnum name o =
  match Option.bind (J.member name o) J.to_num with
  | Some x -> x
  | None -> Alcotest.failf "missing numeric field %S" name

let fstr name o =
  match J.member name o with
  | Some (J.Str s) -> s
  | _ -> Alcotest.failf "missing string field %S" name

let chrome_events tr =
  match J.parse (Trace.Chrome.to_string tr) with
  | Error e -> Alcotest.failf "chrome JSON does not parse back: %s" e
  | Ok j -> (
      match J.member "traceEvents" j with
      | Some (J.Arr l) -> l
      | _ -> Alcotest.fail "no traceEvents array")

let test_chrome_well_formed () =
  List.iter
    (fun file ->
      let pl = plan_of_file file in
      let _, tr = trace_of_plan pl in
      let events = chrome_events tr in
      let nprocs = tr.Trace.Event.nprocs in
      let total = max (Array.length tr.events) 1 in
      (* every process is a named track *)
      for p = 0 to nprocs - 1 do
        let named =
          List.exists
            (fun e ->
              fstr "ph" e = "M"
              && fstr "name" e = "thread_name"
              && int_of_float (fnum "tid" e) = p)
            events
        in
        check bool_t (Printf.sprintf "%s: p%d track named" file p) true named;
        (* ... carrying complete label spans that tile [0, end] with
           monotone timestamps: the "one complete track per process"
           acceptance bar. *)
        let spans =
          List.filter_map
            (fun e ->
              if
                J.member "ph" e = Some (J.Str "X")
                && J.member "cat" e = Some (J.Str "label")
                && int_of_float (fnum "tid" e) = p
              then Some (fnum "ts" e, fnum "dur" e)
              else None)
            events
          |> List.sort compare
        in
        check bool_t (Printf.sprintf "%s: p%d has spans" file p) true
          (spans <> []);
        let last_end =
          List.fold_left
            (fun expected_start (ts, dur) ->
              check (Alcotest.float 0.0)
                (Printf.sprintf "%s: p%d spans tile (ts %.0f)" file p ts)
                expected_start ts;
              check bool_t "span length is non-negative" true (dur >= 0.0);
              ts +. dur)
            0.0 spans
        in
        check (Alcotest.float 0.0)
          (Printf.sprintf "%s: p%d track covers the whole run" file p)
          (float_of_int total) last_end
      done;
      (* instants are well-formed and inside the run *)
      List.iter
        (fun e ->
          match fstr "ph" e with
          | "i" ->
              let ts = fnum "ts" e in
              check bool_t "instant inside run" true
                (ts >= 0.0 && ts <= float_of_int total);
              check bool_t "instant has scope" true
                (match fstr "s" e with "t" | "g" | "p" -> true | _ -> false)
          | "X" | "M" -> ()
          | ph -> Alcotest.failf "unexpected phase %S" ph)
        events;
      (* a wrap-corpus trace must surface the violation as an instant *)
      ignore (obj_fields (List.hd events)))
    (corpus_files ())

let test_chrome_has_violation_instant () =
  let _, tr = trace_of_plan (plan_of_file "corpus/bakery_wrap_56.repro") in
  let events = chrome_events tr in
  check bool_t "violation instant present" true
    (List.exists
       (fun e ->
         fstr "ph" e = "i"
         && J.member "cat" e = Some (J.Str "violation"))
       events)

(* ------------------------------------------------- vector-clock laws *)

let test_vclock_laws () =
  for seed = 1 to 20 do
    let pl = gen_plan seed in
    let _, tr = trace_of_plan pl in
    let evs = tr.Trace.Event.events in
    let n = Array.length evs in
    Array.iter
      (fun (e : Trace.Event.t) ->
        (* irreflexivity *)
        if Trace.Vclock.lt e.vc e.vc then
          Alcotest.failf "seed %d: vc < itself at seq %d" seed e.seq)
      evs;
    (* consistency with program order: along one process, clocks grow
       strictly *)
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        let a = evs.(i) and b = evs.(j) in
        if a.pid >= 0 && a.pid = b.pid && not (Trace.Vclock.lt a.vc b.vc) then
          Alcotest.failf "seed %d: program order violated (seq %d vs %d)" seed
            a.seq b.seq
      done
    done;
    (* reads-from edges are happens-before edges *)
    Array.iter
      (fun (e : Trace.Event.t) ->
        if e.observed >= 0 then begin
          let w = evs.(e.observed) in
          if not (Trace.Vclock.leq w.vc e.vc) then
            Alcotest.failf "seed %d: observation at seq %d not after its \
                            write at seq %d" seed e.seq w.seq
        end)
      evs;
    (* transitivity on a strided sample of triples *)
    let stride = max 1 (n / 12) in
    let i = ref 0 in
    while !i < n do
      let j = ref (!i + stride) in
      while !j < n do
        let k = !j + stride in
        if k < n then begin
          let a = evs.(!i) and b = evs.(!j) and c = evs.(k) in
          if
            Trace.Vclock.lt a.vc b.vc
            && Trace.Vclock.lt b.vc c.vc
            && not (Trace.Vclock.lt a.vc c.vc)
          then Alcotest.failf "seed %d: transitivity violated" seed
        end;
        j := !j + stride
      done;
      i := !i + stride
    done
  done

(* -------------------------------------------------------- JSONL codec *)

let test_jsonl_round_trip () =
  List.iter
    (fun file ->
      let _, tr = trace_of_plan (plan_of_file file) in
      let path = Filename.temp_file "trace" ".jsonl" in
      Trace.Jsonl.write ~path tr;
      (match Trace.Jsonl.read ~path with
      | Error e -> Alcotest.failf "%s: read back failed: %s" file e
      | Ok tr' ->
          (* the story and the Chrome export are total functions of the
             trace: equality there is structural equality that matters *)
          check string_t
            (file ^ ": explain survives the round trip")
            (Trace.Explain.render tr) (Trace.Explain.render tr');
          check string_t
            (file ^ ": chrome survives the round trip")
            (Trace.Chrome.to_string tr) (Trace.Chrome.to_string tr');
          check int_t
            (file ^ ": event count survives")
            (Array.length tr.events)
            (Array.length tr'.Trace.Event.events));
      Sys.remove path)
    (corpus_files ())

let test_jsonl_rejects_wrong_schema () =
  let _, tr = trace_of_plan (plan_of_file "corpus/bakery_wrap_56.repro") in
  let path = Filename.temp_file "trace" ".jsonl" in
  Trace.Jsonl.write ~path tr;
  let lines = String.split_on_char '\n' (String.trim (read_file path)) in
  let oc = open_out path in
  List.iteri
    (fun i line ->
      let line =
        if i = 0 then
          (* bump the header's schema field only *)
          match J.parse line with
          | Ok (J.Obj fields) ->
              J.to_string
                (J.Obj
                   (List.map
                      (function
                        | "schema", _ -> ("schema", J.Num 99.0)
                        | kv -> kv)
                      fields))
          | _ -> Alcotest.fail "header line does not parse"
        else line
      in
      output_string oc line;
      output_char oc '\n')
    lines;
  close_out oc;
  (match Trace.Jsonl.read ~path with
  | Ok _ -> Alcotest.fail "schema 99 must be rejected"
  | Error e ->
      check bool_t "error names the schema" true
        (String.length e > 0
        &&
        let rec has i =
          i + 2 <= String.length e
          && (String.sub e i 2 = "99" || has (i + 1))
        in
        has 0));
  Sys.remove path

(* The header gate every run record passes: a header must carry the
   accepted name and the current schema, and the refusal names what it
   found. *)
let test_check_schema_unit () =
  let module R = Telemetry.Record in
  let read_header fields =
    let path = Filename.temp_file "record" ".jsonl" in
    let oc = open_out path in
    output_string oc (J.to_string (J.Obj fields) ^ "\n");
    close_out oc;
    let r = R.read ~accept:[ R.Trace ] ~decode:(fun _ j -> Ok j) path in
    Sys.remove path;
    r
  in
  let header =
    match R.header R.Trace with J.Obj f -> f | _ -> Alcotest.fail "header"
  in
  let set k v = List.map (fun (k', v') -> if k' = k then (k, v) else (k', v')) in
  let refused what fields =
    match read_header fields with
    | Ok _ -> Alcotest.failf "%s must be rejected" what
    | Error e -> e
  in
  ignore
    (refused "missing schema" (List.filter (fun (k, _) -> k <> "schema") header));
  (match read_header header with
  | Ok [ run ] -> check bool_t "one trace run" true (run.R.name = R.Trace)
  | Ok _ -> Alcotest.fail "expected exactly one run"
  | Error e -> Alcotest.failf "current schema rejected: %s" e);
  let e = refused "a flight header" (set "name" (J.Str "flight") header) in
  check bool_t ("wrong name is named: " ^ e) true (contains e "flight");
  let e = refused "schema 99" (set "schema" (J.Num 99.0) header) in
  check bool_t ("error names the schema: " ^ e) true (contains e "99")

(* --------------------------------------------- derived FCFS inversions *)

(* E8's fairness metric is now a query over the causal trace; the
   runner's counter doubles as the differential oracle. *)
let test_query_inversions_match_runner () =
  for seed = 1 to 30 do
    let pl = gen_plan seed in
    let r, tr = trace_of_plan pl in
    check int_t
      (Printf.sprintf "seed %d (%s): derived inversions" seed
         pl.Fuzz.Gen.pl_model)
      r.Schedsim.Runner.fcfs_inversions
      (Trace.Query.fcfs_inversions tr)
  done

(* -------------------------------------- recording is observation-only *)

(* Switching register-level recording on must change nothing but the
   event stream: same counters, same final memory, and the non-R/W
   events are the identical subsequence.  This is the in-repo half of
   the "tracing disabled stays bit-identical" acceptance criterion. *)
let test_record_rw_is_pure_observation () =
  for seed = 1 to 15 do
    let pl = gen_plan seed in
    let prog, r_off = run_plan ~record_rw:false pl in
    let _, r_on = run_plan ~record_rw:true pl in
    let open Schedsim.Runner in
    check int_t "steps" r_off.steps r_on.steps;
    check (Alcotest.array int_t) "cs_entries" r_off.cs_entries r_on.cs_entries;
    check int_t "mutex_violations" r_off.mutex_violations r_on.mutex_violations;
    check int_t "overflow_events" r_off.overflow_events r_on.overflow_events;
    check int_t "fcfs_inversions" r_off.fcfs_inversions r_on.fcfs_inversions;
    check int_t "crashes" r_off.crashes r_on.crashes;
    check int_t "flickers" r_off.flickers r_on.flickers;
    check (Alcotest.array int_t) "final_shared" r_off.final_shared
      r_on.final_shared;
    let strip evs =
      List.filter
        (fun (e : Schedsim.Event.t) ->
          match e with
          | Schedsim.Event.Read _ | Schedsim.Event.Write _ -> false
          | _ -> true)
        evs
      |> List.map (Schedsim.Event.to_string prog)
    in
    check
      (Alcotest.list string_t)
      "non-R/W event stream identical" (strip r_off.events)
      (strip r_on.events)
  done

(* -------------------------------------------------- lock-zoo tracing *)

let test_lock_ring_trace () =
  let nprocs = 2 and iters = 60 in
  let family = Harness.Registry.find_family "tas" in
  let ring = Locks.Ring.create ~nprocs () in
  let inst =
    Locks.Ring.wrap ring (family.make ~nprocs ~bound:(1 lsl 20))
  in
  let counter = ref 0 in
  let worker pid () =
    for _ = 1 to iters do
      inst.Locks.Lock_intf.acquire pid;
      incr counter;
      inst.release pid
    done
  in
  let d = Domain.spawn (worker 1) in
  worker 0 ();
  Domain.join d;
  check int_t "critical sections all ran" (nprocs * iters) !counter;
  check int_t "nothing dropped" 0 (Locks.Ring.dropped ring);
  let entries = Locks.Ring.flush ring in
  check int_t "three records per cycle" (3 * nprocs * iters)
    (List.length entries);
  let tr = Trace.Of_locks.trace ~lock:family.family_name ~nprocs entries in
  (* the ring stamps Released before the releasing store, so on the
     merged log the lock is held by at most one domain at a time *)
  let holder = ref (-1) in
  Array.iter
    (fun (e : Trace.Event.t) ->
      match e.kind with
      | Trace.Event.Acquire _ ->
          if !holder <> -1 then
            Alcotest.failf "p%d acquired while p%d still held" e.pid !holder;
          holder := e.pid
      | Trace.Event.Release _ ->
          check int_t "release by the holder" !holder e.pid;
          holder := -1
      | _ -> ())
    tr.Trace.Event.events;
  (* every hand-over is a happens-before edge *)
  Array.iter
    (fun (e : Trace.Event.t) ->
      if e.observed >= 0 then
        check bool_t "acquire after the release it observed" true
          (Trace.Vclock.leq tr.events.(e.observed).vc e.vc))
    tr.events;
  (* and the whole thing exports cleanly *)
  ignore (chrome_events tr)

(* ------------------------------------------------------------ re-walk *)

(* The checker path: explore a violating model, re-walk the
   counterexample, and check the walk-derived trace explains the same
   conjunct the checker reported. *)
let test_rewalk_explains_checker_violation () =
  let p = Harness.Registry.find_model "bakery_mod_naive" in
  let sys = Modelcheck.System.make p ~nprocs:3 ~bound:2 in
  let invariants =
    [ Modelcheck.Invariant.mutex; Modelcheck.Invariant.no_overflow ]
  in
  let r = Modelcheck.Explore.run ~invariants sys in
  match r.outcome with
  | Modelcheck.Explore.Violation { invariant; trace = ctrex } -> (
      match Modelcheck.Rewalk.of_trace sys ctrex with
      | Error e -> Alcotest.failf "re-walk failed: %s" e
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
          (match violation with
          | None -> Alcotest.fail "final state must falsify a conjunct"
          | Some f ->
              check string_t "same conjunct as the checker" invariant
                f.Modelcheck.Invariant.f_name);
          let tr = Trace.Of_walk.trace ?violation w in
          check int_t "one step block per counterexample entry"
            (List.length w.rw_steps)
            (Array.fold_left
               (fun acc (e : Trace.Event.t) ->
                 match e.kind with
                 | Trace.Event.Label _ -> acc + 1
                 | _ -> acc)
               0 tr.Trace.Event.events);
          let s = Trace.Explain.render tr in
          check bool_t "story carries a violation section" true
            (String.length s > 0
            &&
            let rec has i =
              i + 9 <= String.length s
              && (String.sub s i 9 = "violation" || has (i + 1))
            in
            has 0))
  | _ -> Alcotest.fail "bakery_mod_naive at N=3 M=2 must violate mutex"

let () =
  Alcotest.run "trace"
    [
      ( "explain",
        [
          Alcotest.test_case "goldens" `Quick test_explain_goldens;
          Alcotest.test_case "deterministic" `Quick test_explain_deterministic;
          Alcotest.test_case "names the corruption" `Quick
            test_explain_names_the_corruption;
        ] );
      ( "chrome",
        [
          Alcotest.test_case "well-formed tracks" `Quick
            test_chrome_well_formed;
          Alcotest.test_case "violation instant" `Quick
            test_chrome_has_violation_instant;
        ] );
      ( "vclock",
        [ Alcotest.test_case "laws on fuzzed schedules" `Quick test_vclock_laws ] );
      ( "jsonl",
        [
          Alcotest.test_case "round trip" `Quick test_jsonl_round_trip;
          Alcotest.test_case "rejects wrong schema" `Quick
            test_jsonl_rejects_wrong_schema;
          Alcotest.test_case "check_schema unit" `Quick test_check_schema_unit;
        ] );
      ( "query",
        [
          Alcotest.test_case "fcfs inversions match runner" `Quick
            test_query_inversions_match_runner;
        ] );
      ( "purity",
        [
          Alcotest.test_case "record_rw is observation-only" `Quick
            test_record_rw_is_pure_observation;
        ] );
      ( "locks",
        [ Alcotest.test_case "ring -> causal trace" `Quick test_lock_ring_trace ] );
      ( "rewalk",
        [
          Alcotest.test_case "explains the checker violation" `Quick
            test_rewalk_explains_checker_violation;
        ] );
    ]
