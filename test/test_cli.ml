(* End-to-end smoke tests for bin/bakery_cli: every subcommand's --help
   exits 0, and a tiny model-checking run with --progress/--metrics-out
   prints a TLC-style progress line and leaves a parseable JSONL metrics
   file whose numbers agree with the search. *)

let check = Alcotest.check
let int_t = Alcotest.int
let bool_t = Alcotest.bool

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

(* The dune deps field builds the executable next door in
   _build/default/bin/; resolve it relative to this test binary so the
   path works under both [dune runtest] and [dune exec]. *)
let cli =
  let here = Filename.dirname Sys.executable_name in
  Filename.concat (Filename.concat (Filename.concat here "..") "bin")
    "bakery_cli.exe"

let run_capture ?cwd args =
  let out = Filename.temp_file "cli" ".out" in
  let err = Filename.temp_file "cli" ".err" in
  let cmd =
    Printf.sprintf "%s%s %s > %s 2> %s"
      (match cwd with Some d -> "cd " ^ Filename.quote d ^ " && " | None -> "")
      (Filename.quote cli)
      (String.concat " " (List.map Filename.quote args))
      (Filename.quote out) (Filename.quote err)
  in
  let code = Sys.command cmd in
  let slurp path =
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    Sys.remove path;
    s
  in
  (code, slurp out, slurp err)

(* The non-blank lines of a JSONL file, which is then removed. *)
let read_jsonl path =
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       let l = input_line ic in
       if String.trim l <> "" then lines := l :: !lines
     done
   with End_of_file -> close_in ic);
  Sys.remove path;
  List.rev !lines

let metric_name line =
  match Telemetry.Json.parse line with
  | Error e -> Alcotest.fail ("unparseable metrics line: " ^ e)
  | Ok v -> (
      match Telemetry.Json.member "metric" v with
      | Some (Telemetry.Json.Str n) -> Some n
      | _ -> None)

let help_smoke () =
  let code, out, _ = run_capture [ "--help" ] in
  check int_t "--help exits 0" 0 code;
  check bool_t "--help mentions check" true
    (String.length out > 0
    && contains ~affix:"check" out)

let subcommand_help name () =
  let code, out, err = run_capture [ name; "--help" ] in
  check int_t (name ^ " --help exits 0") 0 code;
  check bool_t (name ^ " --help has output") true
    (String.length out > 0 || String.length err > 0)

let subcommands =
  [
    "list"; "show"; "check"; "sim"; "explain"; "lasso"; "refine"; "verify";
    "tla"; "graph"; "fuzz"; "bench"; "report";
  ]

let check_progress_metrics () =
  let metrics = Filename.temp_file "cli" ".jsonl" in
  Sys.remove metrics;
  let code, out, err =
    run_capture
      [
        "check"; "bakery_pp"; "-n"; "2"; "-m"; "3"; "--progress";
        "--metrics-out"; metrics;
      ]
  in
  check int_t "check exits 0" 0 code;
  check bool_t "report on stdout" true
    (contains ~affix:"Invariants hold" out);
  (* at least one TLC-style progress line, with the rate fields *)
  check bool_t "progress line printed" true
    (contains ~affix:"[progress explore" err);
  List.iter
    (fun field ->
      check bool_t ("progress line has " ^ field) true
        (contains ~affix:(field ^ "=") err))
    [ "generated"; "distinct"; "kstates_s" ];
  (* the metrics file is JSONL: every line parses, and the recorded
     counters are sane for this tiny configuration *)
  let lines = read_jsonl metrics in
  check bool_t "metrics file non-empty" true (lines <> []);
  let find_metric name =
    List.find_map
      (fun line ->
        match Telemetry.Json.parse line with
        | Error e -> Alcotest.fail ("unparseable metrics line: " ^ e)
        | Ok v -> (
            match Telemetry.Json.member "metric" v with
            | Some (Telemetry.Json.Str n) when n = name ->
                Telemetry.Json.member "value" v
            | _ -> None))
      lines
  in
  (match find_metric "explore.generated" with
  | Some (Telemetry.Json.Num n) ->
      check bool_t "generated > 0" true (n > 0.0)
  | _ -> Alcotest.fail "explore.generated missing");
  (match find_metric "explore.distinct" with
  | Some (Telemetry.Json.Num n) ->
      check bool_t "distinct > 0" true (n > 0.0)
  | _ -> Alcotest.fail "explore.distinct missing");
  (* what the visited set held when the search finished *)
  (match find_metric "explore.table_mb" with
  | Some (Telemetry.Json.Num n) ->
      check bool_t "table_mb > 0" true (n > 0.0)
  | _ -> Alcotest.fail "explore.table_mb missing");
  (* the first line is the run record header, stamped with run metadata *)
  match Telemetry.Json.parse (List.hd lines) with
  | Ok v ->
      check bool_t "first line is the metrics header" true
        (Telemetry.Json.member "kind" v = Some (Telemetry.Json.Str "header")
        && Telemetry.Json.member "name" v
           = Some (Telemetry.Json.Str "metrics"));
      check bool_t "header carries git_rev" true
        (Telemetry.Json.member "git_rev" v <> None);
      check bool_t "header carries nprocs" true
        (Telemetry.Json.member "nprocs" v <> None)
  | Error e -> Alcotest.fail e

(* [--parallel 1] runs the sharded engine inline on one domain: the
   sequential engine's counts, and the sharded engine's snapshot. *)
let check_parallel_one () =
  let counts args =
    let code, out, _ =
      run_capture ([ "check"; "bakery_pp"; "-n"; "3"; "-m"; "2" ] @ args)
    in
    check int_t "check exits 0" 0 code;
    let line =
      List.find (contains ~affix:"states generated")
        (String.split_on_char '\n' out)
    in
    Scanf.sscanf line
      "Invariants hold. %d states generated, %d distinct, depth %d"
      (fun g d k -> (g, d, k))
  in
  let metrics = Filename.temp_file "cli" ".jsonl" in
  Sys.remove metrics;
  let one = counts [ "--parallel"; "1"; "--metrics-out"; metrics ] in
  check
    Alcotest.(triple int int int)
    "the pinned N=3/M=2 counts" (128_139, 47_343, 84) one;
  check bool_t "snapshot carries par_explore.distinct" true
    (List.exists
       (fun line -> metric_name line = Some "par_explore.distinct")
       (read_jsonl metrics))

(* ---------------------------------------------------------------- fuzz *)

let fuzz_args = [ "fuzz"; "--seed"; "3"; "--count"; "5" ]

let fuzz_run_and_metrics () =
  let metrics = Filename.temp_file "cli" ".jsonl" in
  Sys.remove metrics;
  let code, out, _ =
    run_capture (fuzz_args @ [ "--metrics-out"; metrics ])
  in
  check int_t "fuzz exits 0 when nothing fails" 0 code;
  check bool_t "summary header" true (contains ~affix:"fuzz: seed=3" out);
  check bool_t "per-oracle lines" true (contains ~affix:"compile" out);
  check bool_t "total line" true (contains ~affix:"total: 30 cases" out);
  check bool_t "regsem oracle in rotation" true (contains ~affix:"regsem" out);
  check bool_t "reduced oracle in rotation" true (contains ~affix:"reduced" out);
  (* metrics snapshot parses and records the case counters *)
  let lines = read_jsonl metrics in
  check bool_t "metrics non-empty" true (lines <> []);
  let seen name = List.exists (fun line -> metric_name line = Some name) lines in
  List.iter
    (fun m -> check bool_t (m ^ " recorded") true (seen m))
    [ "fuzz.compile.cases"; "fuzz.parallel.cases"; "fuzz.replay.cases" ]

let fuzz_deterministic () =
  let c1, out1, _ = run_capture fuzz_args in
  let c2, out2, _ = run_capture fuzz_args in
  check int_t "same exit code" c1 c2;
  check Alcotest.string "byte-identical summaries" out1 out2

let fuzz_replay_corpus () =
  (* the committed corpus replays through the CLI with the recorded
     verdict (exit 0 = reproduced) *)
  let file = Filename.concat "corpus" "mod_naive_wrap_41.repro" in
  let code, out, _ = run_capture [ "fuzz"; "--replay"; file ] in
  check int_t "replay exits 0" 0 code;
  check bool_t "reports reproduced" true (contains ~affix:"reproduced" out);
  (* and an unreadable file is a usage error, distinct from a mismatch *)
  let bad = Filename.temp_file "cli" ".repro" in
  let oc = open_out bad in
  output_string oc "not json";
  close_out oc;
  let code, _, err = run_capture [ "fuzz"; "--replay"; bad ] in
  Sys.remove bad;
  check int_t "bad file exits 2" 2 code;
  check bool_t "error names the file" true (contains ~affix:".repro" err)

(* ------------------------------------------------------------- explain *)

let explain_repro () =
  (* the acceptance scenario: the wrap repro explains deterministically,
     naming the failed mutex conjunct and the wrapping write *)
  let file = Filename.concat "corpus" "bakery_wrap_56.repro" in
  let code, out, _ = run_capture [ "explain"; "--repro"; file ] in
  check int_t "explain exits 0" 0 code;
  List.iter
    (fun affix ->
      check bool_t ("story mentions " ^ affix) true (contains ~affix out))
    [
      "VIOLATION: mutual-exclusion";
      "at most one process is at a Critical-kind label";
      "WRAPPED";
      "happens-before";
    ];
  let code2, out2, _ = run_capture [ "explain"; "--repro"; file ] in
  check int_t "same exit" code code2;
  check Alcotest.string "byte-identical stories" out out2

let explain_chrome_out () =
  let file = Filename.concat "corpus" "bakery_wrap_56.repro" in
  let json = Filename.temp_file "cli" ".json" in
  let code, _, _ =
    run_capture [ "explain"; "--repro"; file; "--chrome-out"; json ]
  in
  check int_t "explain exits 0" 0 code;
  let ic = open_in_bin json in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove json;
  (* well-formed by our own parser, with events on every process track *)
  match Telemetry.Json.parse s with
  | Error e -> Alcotest.fail ("chrome JSON unparseable: " ^ e)
  | Ok v -> (
      match Telemetry.Json.member "traceEvents" v with
      | Some (Telemetry.Json.Arr evs) ->
          check bool_t "has events" true (List.length evs > 0)
      | _ -> Alcotest.fail "no traceEvents array")

let explain_model () =
  let code, out, _ =
    run_capture [ "explain"; "--model"; "bakery_mod_naive"; "-n"; "3"; "-m"; "2" ]
  in
  check int_t "explain --model exits 0" 0 code;
  check bool_t "source is the checker" true
    (contains ~affix:"source: modelcheck" out);
  check bool_t "names the conjunct" true
    (contains ~affix:"at most one process is at a Critical-kind label" out)

let explain_usage_errors () =
  let code, _, err = run_capture [ "explain" ] in
  check int_t "no input is a usage error" 2 code;
  check bool_t "says which flags" true (contains ~affix:"--repro" err);
  let file = Filename.concat "corpus" "bakery_wrap_56.repro" in
  let code, _, _ =
    run_capture [ "explain"; "--repro"; file; "--model"; "bakery_pp" ]
  in
  check int_t "both inputs is a usage error" 2 code

(* ------------------------------------------------- weak register flag *)

let register_model_flag () =
  (* an unknown model is a usage error that names the flag and lists
     the valid values (Harness.Argscan.parse_enum's contract) *)
  let code, _, err =
    run_capture
      [ "check"; "bakery_pp"; "-n"; "2"; "-m"; "3"; "--register-model"; "x" ]
  in
  check int_t "unknown model is a usage error" 2 code;
  check bool_t "error names the flag" true
    (contains ~affix:"--register-model" err);
  check bool_t "error lists the valid models" true
    (contains ~affix:"atomic" err && contains ~affix:"regular" err
   && contains ~affix:"safe" err);
  (* the flag is documented on every subcommand that takes it *)
  List.iter
    (fun sub ->
      let _, out, _ = run_capture [ sub; "--help" ] in
      check bool_t (sub ^ " --help documents --register-model") true
        (contains ~affix:"--register-model" out))
    [ "check"; "explain"; "fuzz"; "sim" ];
  (* and a weak-model check actually runs: TLC-equivalent exploration
     of bakery_pp survives safe registers at this size *)
  let code, out, _ =
    run_capture
      [ "check"; "bakery_pp"; "-n"; "2"; "-m"; "3"; "--register-model"; "safe" ]
  in
  check int_t "safe check exits 0" 0 code;
  check bool_t "safe check reports a pass" true
    (contains ~affix:"Invariants hold" out)

(* ----------------------------------------------------------- --reduce *)

let reduce_usage_errors () =
  (* an unknown mode is a usage error naming the flag and the values,
     uniformly across the subcommands that take it *)
  List.iter
    (fun args ->
      let code, _, err = run_capture (args @ [ "--reduce"; "bogus" ]) in
      check int_t
        (String.concat " " args ^ " --reduce bogus exits 2")
        2 code;
      check bool_t "error names the flag" true (contains ~affix:"--reduce" err);
      check bool_t "error lists the modes" true
        (contains ~affix:"none" err && contains ~affix:"sym" err
       && contains ~affix:"sym+por" err))
    [
      [ "check"; "ticket_mod"; "-n"; "2"; "-m"; "2" ];
      [ "explain"; "--model"; "ticket"; "-n"; "2"; "-m"; "2" ];
      [ "fuzz"; "--seed"; "1"; "--count"; "1" ];
      [ "bench"; "e15" ];
    ];
  (* replaying a corpus file pins the oracle, so --reduce is rejected *)
  let file = Filename.concat "corpus" "mod_naive_wrap_41.repro" in
  let code, _, err =
    run_capture [ "fuzz"; "--replay"; file; "--reduce"; "sym" ]
  in
  check int_t "--replay with --reduce exits 2" 2 code;
  check bool_t "error explains the clash" true (contains ~affix:"--replay" err);
  (* the flag is documented wherever it is accepted *)
  List.iter
    (fun sub ->
      let _, out, _ = run_capture [ sub; "--help" ] in
      check bool_t (sub ^ " --help documents --reduce") true
        (contains ~affix:"--reduce" out))
    [ "check"; "explain"; "fuzz"; "bench" ]

(* the report's one non-deterministic token is the elapsed wall-clock
   ("..., 0.002s"); blank its digits so the rest must match exactly *)
let mask_timing s =
  String.mapi
    (fun i c ->
      if
        (c >= '0' && c <= '9')
        && (let j = ref i in
            while
              !j < String.length s
              && ((s.[!j] >= '0' && s.[!j] <= '9') || s.[!j] = '.')
            do
              incr j
            done;
            !j < String.length s && s.[!j] = 's')
      then '#'
      else c)
    s

let reduce_check_deterministic () =
  let args =
    [ "check"; "ticket_mod"; "-n"; "3"; "-m"; "3"; "--reduce"; "sym+por" ]
  in
  let code1, out1, _ = run_capture args in
  let code2, out2, _ = run_capture args in
  check int_t "reduced check exits 0" 0 code1;
  check int_t "same exit" code1 code2;
  check Alcotest.string "reports identical modulo timing" (mask_timing out1)
    (mask_timing out2);
  check bool_t "report names the reduction" true
    (contains ~affix:"reduction: sym+por" out1);
  check bool_t "still a pass" true (contains ~affix:"Invariants hold" out1);
  (* an uncertified model must say so rather than silently claim
     canonicalization *)
  let _, out, _ =
    run_capture [ "check"; "bakery_pp"; "-n"; "2"; "-m"; "3"; "--reduce"; "sym" ]
  in
  check bool_t "fallback reason surfaces" true
    (contains ~affix:"canonicalization off" out)

let reduce_explain_original_pids () =
  (* a counterexample found in the quotient must be told in original
     process coordinates: ticket n2 m2 overflows, and the story needs
     both processes' steps to reach a ticket above M *)
  let args =
    [ "explain"; "--model"; "ticket"; "-n"; "2"; "-m"; "2"; "--reduce"; "sym" ]
  in
  let code, out, _ = run_capture args in
  check int_t "reduced explain exits 0" 0 code;
  check bool_t "finds the overflow" true
    (contains ~affix:"VIOLATION: no-overflow" out);
  check bool_t "p0 acts in the story" true (contains ~affix:"p0" out);
  check bool_t "p1 acts in the story" true (contains ~affix:"p1" out);
  let code2, out2, _ = run_capture args in
  check int_t "same exit" code code2;
  check Alcotest.string "byte-identical stories" out out2

(* ------------------------------------------------------- bench locks *)

(* The acceptance contract: two `bench locks` runs with the same seed
   append scorecards that agree on every non-timing field, into the
   --out file, via the persisted-row codec. *)
let bench_locks_deterministic () =
  let out_file = Filename.temp_file "cli_locks" ".json" in
  Sys.remove out_file;
  let args =
    [
      "bench"; "locks"; "--seed"; "7"; "--ops"; "120"; "--rate"; "5k";
      "--algo"; "ttas"; "--domains"; "2"; "--out"; out_file;
    ]
  in
  let code1, out1, err1 = run_capture args in
  if code1 <> 0 then Alcotest.fail ("first run failed: " ^ out1 ^ err1);
  let code2, _, _ = run_capture args in
  check int_t "second run exits 0" 0 code2;
  check bool_t "scorecard table rendered" true
    (contains ~affix:"goodput" out1 && contains ~affix:"ttas" out1);
  let rows =
    match Workload.Suite.load_rows out_file with
    | Ok rows -> rows
    | Error e -> Alcotest.fail ("persisted rows unreadable: " ^ e)
  in
  Sys.remove out_file;
  check int_t "one appended row per run" 2 (List.length rows);
  match List.map Workload.Scorecard.of_json rows with
  | [ Ok a; Ok b ] ->
      check
        (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
        "same seed, same deterministic fields"
        (Workload.Scorecard.deterministic_fields a)
        (Workload.Scorecard.deterministic_fields b)
  | _ -> Alcotest.fail "persisted rows are not parseable scorecards"

let bench_locks_usage_errors () =
  let code, _, err = run_capture [ "bench"; "locks"; "--rate"; "5x" ] in
  check int_t "malformed --rate exits 2" 2 code;
  check bool_t "error names --rate" true (contains ~affix:"--rate" err);
  let code, _, err =
    run_capture [ "bench"; "locks"; "--duration"; "abc" ]
  in
  check int_t "malformed --duration exits 2" 2 code;
  check bool_t "error names --duration" true
    (contains ~affix:"--duration" err);
  let code, _, err = run_capture [ "bench"; "locks"; "e11" ] in
  check int_t "locks mixed with experiment ids exits 2" 2 code;
  check bool_t "mixing error mentions locks" true (contains ~affix:"locks" err);
  List.iter
    (fun (flag, args) ->
      let code, out, err = run_capture ([ "bench"; "locks"; "--ops"; "10" ] @ args) in
      let what = String.concat " " args in
      check int_t (what ^ " exits 2") 2 code;
      check bool_t (what ^ " names " ^ flag) true (contains ~affix:flag err);
      check Alcotest.string (what ^ " runs nothing") "" out)
    [
      ("--domains", [ "--domains"; "0" ]);
      ("--domains", [ "--domains=-1" ]);
      ("--virtual-bound", [ "--virtual-bound"; "0" ]);
      ("--algo", [ "--algo"; "nosuch" ]);
    ];
  let _, _, err = run_capture [ "bench"; "locks"; "--algo"; "nosuch" ] in
  List.iter
    (fun (f : Locks.Lock_intf.family) ->
      check bool_t ("--algo lists " ^ f.family_name) true
        (contains ~affix:f.family_name err))
    Harness.Registry.lock_families

(* ------------------------------------------------------------- bench *)

(* Runs [args] in a fresh directory, since every bench run appends to
   BENCH_modelcheck.json in its working directory: the exit code,
   stdout, stderr and the rows left in that file.  The directory is
   removed afterwards. *)
let bench_in_temp_dir args =
  let dir = Filename.temp_dir "cli_bench" "" in
  let code, out, err = run_capture ~cwd:dir args in
  let history = Filename.concat dir "BENCH_modelcheck.json" in
  let rows = Workload.Suite.load_rows history in
  if Sys.file_exists history then Sys.remove history;
  Sys.rmdir dir;
  (code, out, err, rows)

let bench_persists_datapoints () =
  let code, out, err, rows =
    bench_in_temp_dir [ "bench"; "--quick"; "e11"; "figures" ]
  in
  if code <> 0 then Alcotest.fail ("bench failed: " ^ out ^ err);
  check bool_t "figures printed F1" true (contains ~affix:"F1" out);
  let rows = match rows with Ok rows -> rows | Error e -> Alcotest.fail e in
  check bool_t "e11 left datapoints" true (rows <> []);
  List.iter
    (fun row ->
      List.iter
        (fun field ->
          check bool_t (field ^ " present") true
            (Telemetry.Json.member field row <> None))
        [ "experiment"; "metric"; "value"; "timestamp"; "engine" ])
    rows

let bench_check_regress_needs_datapoints () =
  let code, _, err, _ =
    bench_in_temp_dir [ "bench"; "--quick"; "--check-regress"; "e1" ]
  in
  check int_t "nothing to gate exits 2" 2 code;
  check bool_t "error names --check-regress" true
    (contains ~affix:"--check-regress" err)

(* ------------------------------------------------------------- report *)

let slurp_lines path =
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       let l = input_line ic in
       if String.trim l <> "" then lines := l :: !lines
     done
   with End_of_file -> close_in ic);
  List.rev !lines

(* check → flight record + metrics snapshot → report: the full
   pipeline, with the rendered document byte-identical across renders
   (the determinism contract the golden tests pin in-process). *)
let report_pipeline () =
  let flight = Filename.temp_file "cli" ".flight.jsonl" in
  let metrics = Filename.temp_file "cli" ".metrics.jsonl" in
  List.iter Sys.remove [ flight; metrics ];
  let code, _, err =
    run_capture
      [
        "check"; "bakery_pp"; "-n"; "2"; "-m"; "3"; "--flight-out"; flight;
        "--flight-interval"; "0.005"; "--metrics-out"; metrics;
      ]
  in
  if code <> 0 then Alcotest.fail ("check failed: " ^ err);
  (* the flight record is well-formed JSONL with the run record header *)
  let lines = slurp_lines flight in
  check bool_t "flight has header + samples" true (List.length lines >= 2);
  (match Telemetry.Json.parse (List.hd lines) with
  | Ok v ->
      check bool_t "first line is the header" true
        (Telemetry.Json.member "kind" v = Some (Telemetry.Json.Str "header")
        && Telemetry.Json.member "name" v = Some (Telemetry.Json.Str "flight"))
  | Error e -> Alcotest.fail ("header unparseable: " ^ e));
  let render out_file =
    let code, out, err =
      run_capture [ "report"; flight; metrics; "-o"; out_file ]
    in
    if code <> 0 then Alcotest.fail ("report failed: " ^ out ^ err);
    let ic = open_in_bin out_file in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Sys.remove out_file;
    s
  in
  let doc1 = render (Filename.temp_file "cli" ".md") in
  let doc2 = render (Filename.temp_file "cli" ".md") in
  check Alcotest.string "re-render is byte-identical" doc1 doc2;
  List.iter
    (fun affix ->
      check bool_t ("report has " ^ affix) true (contains ~affix doc1))
    [
      "# Run report"; "- verdict:"; "## Time series"; "## Metrics snapshot";
      "explore.generated";
    ];
  (* stdout when no -o *)
  let code, out, _ = run_capture [ "report"; flight ] in
  check int_t "report to stdout exits 0" 0 code;
  check bool_t "stdout report rendered" true (contains ~affix:"# Run report" out);
  List.iter Sys.remove [ flight; metrics ]

(* A finished search has nothing left to project: its report shows no
   completion ETA, whether it reads the flight alone or with the
   metrics snapshot. *)
let report_finished_no_eta () =
  let flight = Filename.temp_file "cli" ".flight.jsonl" in
  let metrics = Filename.temp_file "cli" ".metrics.jsonl" in
  List.iter Sys.remove [ flight; metrics ];
  let code, out, err =
    run_capture
      [
        "check"; "bakery_pp"; "-n"; "3"; "-m"; "2"; "--register-model";
        "safe"; "--metrics-out"; metrics; "--flight-out"; flight;
        "--flight-interval"; "0.01";
      ]
  in
  if code <> 0 then Alcotest.fail ("check failed: " ^ err);
  check bool_t "the check passes with 224371 states" true
    (contains ~affix:"224371 distinct" out);
  List.iter
    (fun files ->
      let code, doc, err = run_capture ("report" :: files) in
      if code <> 0 then Alcotest.fail ("report failed: " ^ err);
      check bool_t "the flight has live progress" true
        (contains ~affix:"explore.live_distinct" doc);
      check bool_t
        (String.concat " " ("report" :: files) ^ " has no ETA")
        false
        (contains ~affix:"Completion ETA" doc))
    [ [ metrics; flight ]; [ flight ] ];
  List.iter Sys.remove [ flight; metrics ]

(* A check's metrics snapshot carries the process's resident memory,
   which sees the visited set's index outside the GC's heap count, and
   the report shows it. *)
let check_resident_memory () =
  let metrics = Filename.temp_file "cli" ".metrics.jsonl" in
  Sys.remove metrics;
  let code, _, err =
    run_capture
      [ "check"; "bakery_pp"; "-n"; "3"; "-m"; "2"; "--metrics-out"; metrics ]
  in
  if code <> 0 then Alcotest.fail ("check failed: " ^ err);
  let _, doc, _ = run_capture [ "report"; metrics ] in
  let lines = read_jsonl metrics in
  let value name =
    List.find_map
      (fun line ->
        match Telemetry.Json.parse line with
        | Ok v when metric_name line = Some name ->
            Option.bind (Telemetry.Json.member "value" v) Telemetry.Json.to_num
        | _ -> None)
      lines
  in
  if Sys.file_exists "/proc/self/status" then begin
    match (value "gc.vm_rss_mb", value "gc.vm_hwm_mb") with
    | Some rss, Some hwm ->
        check bool_t "resident memory is positive" true (rss > 0.0);
        check bool_t "its peak is at least the present" true (hwm >= rss);
        check bool_t "the report shows the peak" true
          (contains ~affix:"gc.vm_hwm_mb" doc)
    | _ -> Alcotest.fail "gc.vm_rss_mb or gc.vm_hwm_mb missing"
  end

let write_file path text =
  let oc = open_out path in
  output_string oc text;
  close_out oc

let report_usage_errors () =
  let code, _, err = run_capture [ "report"; "/nonexistent.jsonl" ] in
  check int_t "missing flight file exits 2" 2 code;
  check bool_t "error names the file" true
    (contains ~affix:"/nonexistent.jsonl" err);
  (* a malformed line is rejected with its line number *)
  let bad = Filename.temp_file "cli" ".jsonl" in
  write_file bad
    (Telemetry.Json.to_string
       (Telemetry.Record.header Telemetry.Record.Metrics)
    ^ "\nnot json\n");
  let code, _, err = run_capture [ "report"; bad ] in
  Sys.remove bad;
  check int_t "malformed metrics line exits 2" 2 code;
  check bool_t "error carries the line number" true (contains ~affix:":2" err)

(* One check run's three run records plus a BENCH history render the
   same document whatever order the files are named in. *)
let report_any_order () =
  let tmp suffix =
    let p = Filename.temp_file "cli" suffix in
    Sys.remove p;
    p
  in
  let flight = tmp ".flight.jsonl" and metrics = tmp ".metrics.jsonl" in
  let events = tmp ".events.jsonl" and bench = tmp ".json" in
  let code, _, err =
    run_capture
      [
        "check"; "bakery_pp"; "-n"; "2"; "-m"; "3"; "--flight-out"; flight;
        "--flight-interval"; "0.005"; "--metrics-out"; metrics; "--trace-out";
        events;
      ]
  in
  if code <> 0 then Alcotest.fail ("check failed: " ^ err);
  write_file bench
    "[{\"kind\": \"lock_scorecard\", \"algo\": \"bakery_pp\", \"domains\": 2, \
     \"rate\": 4000, \"goodput\": 1000, \"p99_ns\": 2000000, \"slo_pass\": true}]\n";
  let render files =
    let code, out, err = run_capture ("report" :: files) in
    if code <> 0 then Alcotest.fail ("report failed: " ^ err);
    out
  in
  let rec permutations = function
    | [] -> [ [] ]
    | l ->
        List.concat_map
          (fun x ->
            List.map (List.cons x)
              (permutations (List.filter (( <> ) x) l)))
          l
  in
  let files = [ flight; metrics; events; bench ] in
  let doc = render files in
  List.iter
    (fun affix ->
      check bool_t ("report has " ^ affix) true (contains ~affix doc))
    [
      "- flight:"; "- metrics snapshot:"; "- trace:"; "- bench rows: 1";
      "## Time series"; "## Metrics snapshot"; "## Scorecards";
      "## Trace events";
    ];
  List.iter
    (fun order ->
      check Alcotest.string
        ("same document for " ^ String.concat " " order)
        doc (render order))
    (permutations files);
  List.iter Sys.remove files

(* What is not a flight, metrics or event record is refused by name,
   never rendered as an OK run. *)
let report_refuses_non_records () =
  let causal = Filename.temp_file "cli" ".causal.jsonl" in
  let code, _, _ =
    run_capture
      [
        "explain"; "--model"; "bakery_mod_naive"; "-n"; "3"; "-m"; "2";
        "--trace-out"; causal;
      ]
  in
  check int_t "explain exits 0" 0 code;
  let empty = Filename.temp_file "cli" ".empty.jsonl" in
  let headless = Filename.temp_file "cli" ".headless.jsonl" in
  write_file headless "{\"metric\": \"x\", \"value\": 1}\n";
  let missing = Filename.concat (Filename.get_temp_dir_name ()) "cli_missing.jsonl" in
  List.iter
    (fun (what, file) ->
      let code, out, err = run_capture [ "report"; file ] in
      check int_t (what ^ " exits 2") 2 code;
      check bool_t (what ^ ": error names the file") true
        (contains ~affix:file err);
      check Alcotest.string (what ^ " renders nothing") "" out)
    [
      ("a causal trace", causal); ("an empty file", empty);
      ("JSONL without a header", headless); ("a missing file", missing);
    ];
  let code, out, _ = run_capture [ "report" ] in
  check int_t "no FILE exits 2" 2 code;
  check Alcotest.string "no FILE renders nothing" "" out;
  List.iter Sys.remove [ causal; empty; headless ]

(* Runs append to a record; the report renders the last one. *)
let report_last_run () =
  let flight = Filename.temp_file "cli" ".flight.jsonl" in
  let metrics = Filename.temp_file "cli" ".metrics.jsonl" in
  List.iter Sys.remove [ flight; metrics ];
  for _ = 1 to 2 do
    let code, _, err =
      run_capture
        [
          "check"; "bakery_pp"; "-n"; "2"; "-m"; "3"; "--flight-out"; flight;
          "--flight-interval"; "0.005"; "--metrics-out"; metrics;
        ]
    in
    if code <> 0 then Alcotest.fail ("check failed: " ^ err)
  done;
  let runs =
    match
      Telemetry.Record.read ~accept:[ Telemetry.Record.Flight ]
        ~decode:(fun _ j -> Obs.Flight.sample_of_json j)
        flight
    with
    | Ok runs -> runs
    | Error e -> Alcotest.fail e
  in
  check int_t "the record holds two runs" 2 (List.length runs);
  let flight_line doc =
    List.find_opt
      (fun l -> contains ~affix:"- flight:" l)
      (String.split_on_char '\n' doc)
  in
  let second = List.nth runs 1 in
  let expected =
    flight_line
      (Obs.Report.render
         {
           Obs.Report.empty with
           flight_header = Some second.header;
           flight = second.body;
         })
  in
  let code, out, err = run_capture [ "report"; flight; metrics ] in
  if code <> 0 then Alcotest.fail ("report failed: " ^ err);
  check
    Alcotest.(option string)
    "sample count and span are the second run's" expected (flight_line out);
  List.iter Sys.remove [ flight; metrics ]

(* Start a check that writes a flight record and a metrics snapshot,
   wait until the sampler has written a few lines, kill it with
   [signal], and return both files once it has died of that signal. *)
let kill_mid_flight signal =
  let flight = Filename.temp_file "cli" ".flight.jsonl" in
  let metrics = Filename.temp_file "cli" ".metrics.jsonl" in
  List.iter Sys.remove [ flight; metrics ];
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process cli
      [|
        cli; "check"; "bakery_pp"; "-n"; "3"; "-m"; "6"; "--flight-out";
        flight; "--flight-interval"; "0.01"; "--metrics-out"; metrics;
      |]
      Unix.stdin devnull devnull
  in
  Unix.close devnull;
  let deadline = Unix.gettimeofday () +. 10.0 in
  let enough () =
    Sys.file_exists flight && List.length (slurp_lines flight) >= 4
  in
  while (not (enough ())) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.02
  done;
  check bool_t "run produced flight lines before the kill" true (enough ());
  Unix.kill pid signal;
  (match Unix.waitpid [] pid with
  | _, Unix.WSIGNALED s when s = signal -> ()
  | _, _ -> Alcotest.fail "process did not die from the signal");
  (flight, metrics)

(* The crash-forensics contract (satellite of the flight recorder):
   SIGTERM mid-run must leave a flight record whose every line is
   whole, and, because the CLI catches SIGTERM to write it before dying
   of the signal, a metrics snapshot. *)
let report_kill_mid_flight () =
  let flight, metrics = kill_mid_flight Sys.sigterm in
  let lines = slurp_lines flight in
  check bool_t "record survived the kill" true (List.length lines >= 4);
  List.iteri
    (fun i line ->
      match Telemetry.Json.parse line with
      | Ok _ -> ()
      | Error e ->
          Alcotest.failf "line %d torn after SIGTERM: %s (%s)" (i + 1) e line)
    lines;
  (* and the well-formed prefix renders *)
  let code, out, _ = run_capture [ "report"; flight ] in
  check int_t "report renders the killed run's record" 0 code;
  check bool_t "killed-run report has series" true
    (contains ~affix:"## Time series" out);
  check bool_t "metrics snapshot written on SIGTERM" true
    (List.exists
       (fun l -> contains ~affix:{|"kind": "metric"|} l)
       (slurp_lines metrics));
  let code, out, err = run_capture [ "report"; flight; metrics ] in
  List.iter Sys.remove [ flight; metrics ];
  if code <> 0 then Alcotest.fail ("report failed: " ^ err);
  check bool_t "killed-run report finds the snapshot" false
    (contains ~affix:"snapshot missing" out)

(* SIGKILL cannot be caught: the per-line flush still leaves whole
   flight lines, but the metrics run holds only its header, and the
   report says its snapshot is missing. *)
let report_sigkill_loses_snapshot () =
  let flight, metrics = kill_mid_flight Sys.sigkill in
  let code, out, err = run_capture [ "report"; flight; metrics ] in
  List.iter Sys.remove [ flight; metrics ];
  if code <> 0 then Alcotest.fail ("report failed: " ^ err);
  check bool_t "killed-run report names the missing snapshot" true
    (contains ~affix:"- finding: metrics: snapshot missing" out)

(* ------------------------------------------------- shared model flags *)

let model_size_usage_errors () =
  (* -n and -m below 1 are usage errors naming the flag, on every
     subcommand that builds a model, rather than an uncaught exception
     from the evaluator *)
  List.iter
    (fun args ->
      List.iter
        (fun (flag, bad) ->
          let code, _, err = run_capture (args @ [ flag; bad ]) in
          let what = String.concat " " (args @ [ flag; bad ]) in
          check int_t (what ^ " exits 2") 2 code;
          check bool_t (what ^ " names the flag") true
            (contains ~affix:flag err))
        [ ("-n", "0"); ("-m", "0") ])
    [
      [ "check"; "bakery_pp" ];
      [ "sim"; "bakery_pp" ];
      [ "explain"; "--model"; "bakery_pp" ];
      [ "lasso" ];
      [ "refine" ];
      [ "verify" ];
      [ "graph"; "bakery_pp" ];
      [ "fuzz"; "--count"; "1" ];
    ]

let out_of_range_usage_errors () =
  (* an out-of-range number is a usage error naming the flag, not a run
     that silently does nothing or something other than what was asked *)
  List.iter
    (fun (flag, args) ->
      let code, out, err = run_capture args in
      let what = String.concat " " args in
      check int_t (what ^ " exits 2") 2 code;
      check bool_t (what ^ " names " ^ flag) true (contains ~affix:flag err);
      check Alcotest.string (what ^ " runs nothing") "" out)
    [
      ("--crash", [ "sim"; "bakery"; "-n"; "2"; "-m"; "3"; "--crash"; "2.0" ]);
      ("--crash", [ "sim"; "bakery"; "--crash=-0.5" ]);
      ("--flicker", [ "sim"; "bakery"; "--flicker"; "1.5" ]);
      ("--steps", [ "sim"; "bakery"; "--steps=-5" ]);
      ("--parallel", [ "check"; "bakery_pp"; "--parallel=-1" ]);
      ("--cap", [ "check"; "bakery"; "--cap=-1" ]);
      ("--cap", [ "check"; "ticket"; "-n"; "3"; "-m"; "2"; "--cap"; "4" ]);
      ("--max-states", [ "check"; "bakery_pp"; "--max-states=-5" ]);
      ("--max-states", [ "check"; "bakery_pp"; "--max-states"; "0" ]);
      ( "--max-states",
        [ "explain"; "--model"; "bakery_mod_naive"; "--max-states"; "0" ] );
      ( "--max-steps",
        [ "explain"; "--model"; "bakery_mod_naive"; "--max-steps=-1" ] );
      ("--max-states", [ "graph"; "bakery_pp"; "--max-states"; "0" ]);
      ("--count", [ "fuzz"; "--count=-1" ]);
      ("--max-states", [ "fuzz"; "--count"; "1"; "--max-states"; "0" ]);
    ]

let out_file_usage_errors () =
  (* a file to write whose directory is missing is a usage error naming
     the flag, found before the run rather than after it *)
  let bad = "/nonexistent/dir/out" in
  List.iter
    (fun (flag, args) ->
      let code, out, err = run_capture args in
      let what = String.concat " " args in
      check int_t (what ^ " exits 2") 2 code;
      check bool_t (what ^ " names " ^ flag) true (contains ~affix:flag err);
      check Alcotest.string (what ^ " runs nothing") "" out)
    [
      ("--metrics-out", [ "check"; "bakery_pp"; "--metrics-out"; bad ]);
      ("--trace-out", [ "sim"; "bakery_pp"; "--trace-out"; bad ]);
      ("--flight-out", [ "fuzz"; "--count"; "1"; "--flight-out"; bad ]);
      ("--chrome-out", [ "sim"; "bakery_pp"; "--chrome-out"; bad ]);
      ("--dot-out", [ "check"; "bakery_mod_naive"; "--dot-out"; bad ]);
      ( "--trace-out",
        [ "explain"; "--model"; "bakery_mod_naive"; "--trace-out"; bad ] );
      ("--dot-out", [ "explain"; "--model"; "bakery_mod_naive"; "--dot-out"; bad ]);
      ("-o/--output", [ "tla"; "bakery_pp"; "-o"; bad ]);
      ("-o/--output", [ "graph"; "bakery_pp"; "-o"; bad ]);
      ("--json", [ "bench"; "--quick"; "e1"; "--json"; bad ]);
      ("--out", [ "bench"; "--quick"; "e1"; "--out"; bad ]);
      ("-o/--out", [ "report"; "-o"; bad; "golden/flight_small.jsonl" ]);
    ]

(* A model that fails at run time is reported as the model's error:
   one line naming it, exit 1, from the checker and the simulator
   alike. *)
let model_runtime_errors () =
  List.iter
    (fun (args, msg) ->
      let code, out, err = run_capture args in
      let what = String.concat " " args in
      check int_t (what ^ " exits 1") 1 code;
      check Alcotest.string (what ^ " prints one line")
        ("model error: " ^ msg ^ "\n")
        err;
      check Alcotest.string (what ^ " prints no result") "" out)
    [
      ( [
          "check"; "eisenberg_mcguire"; "-n"; "3"; "-m"; "3";
          "--register-model"; "safe";
        ],
        "read flag[3]: index out of range 0..2" );
      ( [
          "sim"; "eisenberg_mcguire"; "-n"; "3"; "-m"; "3"; "--steps";
          "200000"; "--flicker"; "0.2"; "--seed"; "3";
        ],
        "read flag[3]: index out of range 0..2" );
    ]

(* The two-process models run with exactly two processes: any other
   -n is a usage error naming the flag, found before the run opens any
   output file, on every subcommand that builds a model. *)
let two_process_usage_errors () =
  let metrics = Filename.temp_file "cli" ".metrics.jsonl" in
  Sys.remove metrics;
  List.iter
    (fun model ->
      List.iter
        (fun n ->
          List.iter
            (fun args ->
              let args = args @ [ "-n"; n; "-m"; "3" ] in
              let code, out, err = run_capture args in
              let what = String.concat " " args in
              check int_t (what ^ " exits 2") 2 code;
              check bool_t (what ^ " names -n") true
                (String.starts_with ~prefix:"-n/--nprocs:" err);
              check Alcotest.string (what ^ " runs nothing") "" out;
              check bool_t (what ^ " opens no metrics file") false
                (Sys.file_exists metrics))
            [
              [ "check"; model; "--metrics-out"; metrics ];
              [ "sim"; model; "--metrics-out"; metrics ];
              [ "graph"; model ];
              [ "explain"; "--model"; model ];
              [
                "fuzz"; "--model"; model; "--count"; "1"; "--metrics-out";
                metrics;
              ];
            ])
        [ "1"; "3" ])
    [ "dekker"; "peterson2" ]

(* The replay oracle's default models fit -n: peterson2 runs only with
   two processes, so at -n 3 the default list leaves it out and says so
   on stderr, and the run passes where it once failed with a model
   error. *)
let fuzz_default_models_fit_n () =
  let code, out, err =
    run_capture [ "fuzz"; "-n"; "3"; "--count"; "3"; "--oracle"; "replay" ]
  in
  check int_t "fuzz -n 3 exits 0" 0 code;
  check bool_t "only bakery_pp is fuzzed" true
    (contains ~affix:"models=bakery_pp n=3" out);
  check bool_t "stderr says peterson2 is left out" true
    (contains ~affix:"leave out peterson2" err);
  let code, out, err =
    run_capture [ "fuzz"; "-n"; "2"; "--count"; "1"; "--oracle"; "replay" ]
  in
  check int_t "fuzz -n 2 exits 0" 0 code;
  check bool_t "-n 2 keeps peterson2" true
    (contains ~affix:"models=bakery_pp,peterson2 n=2" out);
  check Alcotest.string "-n 2 leaves nothing out" "" err

(* A search that runs out of budget has refuted nothing: [check] and
   [explain] exit 3, not 1, and print no counterexample. *)
let budget_exhausted_exits_3 () =
  let code, out, _ =
    run_capture
      [ "check"; "bakery_pp"; "-n"; "3"; "-m"; "2"; "--max-states"; "1000" ]
  in
  check int_t "check exits 3" 3 code;
  check bool_t "check says it is inconclusive" true
    (contains ~affix:"INCONCLUSIVE" out);
  check bool_t "check prints no counterexample" false
    (contains ~affix:"<init>" out);
  let code, out, err =
    run_capture
      [
        "explain"; "--model"; "bakery_mod_naive"; "-n"; "3"; "-m"; "2";
        "--max-states"; "100";
      ]
  in
  check int_t "explain exits 3" 3 code;
  check Alcotest.string "explain prints nothing on stdout" "" out;
  check bool_t "explain names the budget" true
    (contains ~affix:"--max-states" err)

(* An unknown scheduler is a usage error found in the flag's term,
   before the run opens any output file. *)
let sim_sched_usage_error () =
  let metrics = Filename.temp_file "cli" ".metrics.jsonl" in
  Sys.remove metrics;
  let code, out, err =
    run_capture
      [ "sim"; "bakery_pp"; "--sched"; "bogus"; "--metrics-out"; metrics ]
  in
  check int_t "--sched bogus exits 2" 2 code;
  check bool_t "error starts with the flag" true
    (String.starts_with ~prefix:"--sched:" err);
  check bool_t "error lists the schedulers" true
    (contains ~affix:"rr|round-robin|uniform|handicap" err);
  check Alcotest.string "runs nothing" "" out;
  check bool_t "no metrics file opened" false (Sys.file_exists metrics)

let lasso_victim_usage_error () =
  (* a victim that is not one of the -n processes is a usage error, not
     a verdict about a process that does not exist *)
  List.iter
    (fun args ->
      let code, out, err = run_capture ("lasso" :: args) in
      let what = String.concat " " ("lasso" :: args) in
      check int_t (what ^ " exits 2") 2 code;
      check bool_t (what ^ " names --victim") true
        (contains ~affix:"--victim" err);
      check Alcotest.string (what ^ " reports no verdict") "" out)
    [
      [ "-n"; "3"; "-m"; "2"; "--victim=3" ];
      [ "-n"; "3"; "-m"; "2"; "--victim=-1" ];
      [ "-n"; "2"; "-m"; "2"; "--victim"; "5" ];
    ]

let () =
  Alcotest.run "cli"
    [
      ( "help",
        Alcotest.test_case "--help" `Quick help_smoke
        :: List.map
             (fun name ->
               Alcotest.test_case (name ^ " --help") `Quick
                 (subcommand_help name))
             subcommands );
      ( "telemetry",
        [
          Alcotest.test_case "check --progress --metrics-out" `Quick
            check_progress_metrics;
          Alcotest.test_case "check --parallel 1" `Quick check_parallel_one;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "run + metrics snapshot" `Quick
            fuzz_run_and_metrics;
          Alcotest.test_case "summary is deterministic" `Quick
            fuzz_deterministic;
          Alcotest.test_case "--replay on the corpus" `Quick fuzz_replay_corpus;
          Alcotest.test_case "default models fit -n" `Quick
            fuzz_default_models_fit_n;
        ] );
      ( "bench-locks",
        [
          Alcotest.test_case "same-seed scorecards agree" `Quick
            bench_locks_deterministic;
          Alcotest.test_case "usage errors" `Quick bench_locks_usage_errors;
        ] );
      ( "bench",
        [
          Alcotest.test_case "datapoints persisted" `Quick
            bench_persists_datapoints;
          Alcotest.test_case "--check-regress with nothing to gate" `Quick
            bench_check_regress_needs_datapoints;
        ] );
      ( "explain",
        [
          Alcotest.test_case "--repro acceptance scenario" `Quick explain_repro;
          Alcotest.test_case "--chrome-out well-formed" `Quick
            explain_chrome_out;
          Alcotest.test_case "--model counterexample" `Quick explain_model;
          Alcotest.test_case "usage errors" `Quick explain_usage_errors;
        ] );
      ( "regsem",
        [
          Alcotest.test_case "--register-model flag" `Quick
            register_model_flag;
        ] );
      ( "report",
        [
          Alcotest.test_case "check → flight → report pipeline" `Quick
            report_pipeline;
          Alcotest.test_case "a finished check has no ETA" `Quick
            report_finished_no_eta;
          Alcotest.test_case "resident memory in the snapshot" `Quick
            check_resident_memory;
          Alcotest.test_case "usage errors" `Quick report_usage_errors;
          Alcotest.test_case "SIGTERM leaves whole lines" `Quick
            report_kill_mid_flight;
          Alcotest.test_case "SIGKILL loses the snapshot" `Quick
            report_sigkill_loses_snapshot;
          Alcotest.test_case "any order of files" `Quick report_any_order;
          Alcotest.test_case "refuses what is not a run record" `Quick
            report_refuses_non_records;
          Alcotest.test_case "appended runs: the last is rendered" `Quick
            report_last_run;
        ] );
      ( "model flags",
        [
          Alcotest.test_case "-n and -m below 1" `Quick model_size_usage_errors;
          Alcotest.test_case "out-of-range numbers" `Quick
            out_of_range_usage_errors;
          Alcotest.test_case "lasso --victim out of range" `Quick
            lasso_victim_usage_error;
          Alcotest.test_case "output paths checked first" `Quick
            out_file_usage_errors;
          Alcotest.test_case "sim --sched unknown" `Quick sim_sched_usage_error;
          Alcotest.test_case "model runtime errors" `Quick model_runtime_errors;
          Alcotest.test_case "two-process models refuse other -n" `Quick
            two_process_usage_errors;
          Alcotest.test_case "an exhausted budget exits 3" `Quick
            budget_exhausted_exits_3;
        ] );
      ( "reduce",
        [
          Alcotest.test_case "usage errors" `Quick reduce_usage_errors;
          Alcotest.test_case "reduced check is deterministic" `Quick
            reduce_check_deterministic;
          Alcotest.test_case "explain renders original pids" `Quick
            reduce_explain_original_pids;
        ] );
    ]
