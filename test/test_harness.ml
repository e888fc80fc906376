(* Tests for the experiment harness: statistics, tables, workloads,
   the throughput runner, and smoke runs of the experiment registry in
   quick mode. *)

let check = Alcotest.check
let int_t = Alcotest.int
let bool_t = Alcotest.bool
let float_t = Alcotest.float 1e-9

module S = Harness.Stats
module T = Harness.Table

(* ---------------------------------------------------------------- stats *)

let stats_basics () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  check float_t "mean" 2.5 (S.mean xs);
  check float_t "median" 2.5 (S.median xs);
  check float_t "min" 1.0 (S.minimum xs);
  check float_t "max" 4.0 (S.maximum xs);
  check float_t "p0" 1.0 (S.percentile xs 0.0);
  check float_t "p100" 4.0 (S.percentile xs 100.0);
  check float_t "p50 single" 7.0 (S.percentile [| 7.0 |] 50.0);
  check bool_t "stddev positive" true (S.stddev xs > 1.0 && S.stddev xs < 1.5);
  check float_t "stddev of singleton" 0.0 (S.stddev [| 3.0 |])

let stats_jain () =
  let jain = Workload.Fairness.jain in
  check float_t "jain equal" 1.0 (jain [| 5; 5; 5 |]);
  let unfair = jain [| 10; 0; 0; 0 |] in
  check bool_t "jain maximally unfair is 1/N" true (abs_float (unfair -. 0.25) < 1e-9);
  check float_t "jain all zero" 1.0 (jain [| 0; 0 |])

let stats_errors () =
  (match S.mean [||] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty mean rejected");
  match S.percentile [| 1.0 |] 101.0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "percentile out of range rejected"

let stats_format_si () =
  check Alcotest.string "plain" "12" (S.format_si 12.0);
  check Alcotest.string "kilo" "12.30k" (S.format_si 12_300.0);
  check Alcotest.string "mega" "4.56M" (S.format_si 4_560_000.0);
  check Alcotest.string "giga" "1.20G" (S.format_si 1.2e9)

(* ---------------------------------------------------------------- table *)

let table_render_and_csv () =
  let t = T.make ~title:"demo" ~notes:[ "a note" ] [ "name"; "value" ] in
  T.add_row t [ "alpha"; "1" ];
  T.add_rowf t "beta|%d" 2;
  let s = T.render t in
  let has needle =
    let n = String.length needle and h = String.length s in
    let rec go i = i + n <= h && (String.sub s i n = needle || go (i + 1)) in
    go 0
  in
  check bool_t "title" true (has "== demo ==");
  check bool_t "row" true (has "alpha");
  check bool_t "note" true (has "note: a note");
  let csv = T.to_csv t in
  check bool_t "csv header" true (String.length csv > 0 && String.sub csv 0 10 = "name,value");
  (match T.add_row t [ "only-one-cell" ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "arity mismatch rejected");
  let q = T.make ~title:"q" [ "x" ] in
  T.add_row q [ "has,comma" ];
  check bool_t "csv escaping" true
    (let c = T.to_csv q in
     let needle = "\"has,comma\"" in
     let n = String.length needle and h = String.length c in
     let rec go i = i + n <= h && (String.sub c i n = needle || go (i + 1)) in
     go 0)

(* ------------------------------------------------------------- workload *)

let workload_draws () =
  let rng = Prng.Rng.create 1 in
  check int_t "fixed" 7 (Workload.Shape.draw rng (Workload.Shape.Fixed 7));
  for _ = 1 to 100 do
    let v = Workload.Shape.draw rng (Workload.Shape.Uniform (3, 9)) in
    check bool_t "uniform in range" true (v >= 3 && v <= 9)
  done;
  match Workload.Shape.draw rng (Workload.Shape.Uniform (9, 3)) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty range rejected"

let workload_spin_effectful () =
  check bool_t "spin returns a value" true (Workload.Shape.spin 100 <> 0);
  check int_t "spin 0 is identity-ish" 1 (Workload.Shape.spin 0)

(* ----------------------------------------------------------- throughput *)

let throughput_runs () =
  let f = Harness.Registry.find_family "tas" in
  let inst = f.make ~nprocs:2 ~bound:8 in
  let r = Harness.Throughput.run ~duration:0.05 inst ~nprocs:2 in
  check int_t "two domains" 2 (Array.length r.per_domain);
  check int_t "total is the sum" r.total (Array.fold_left ( + ) 0 r.per_domain);
  check bool_t "some progress" true (r.total > 0);
  check bool_t "ops rate positive" true (r.ops_per_sec > 0.0)

let overflow_runner () =
  let lock = Locks.Bakery_bounded_lock.create ~nprocs:2 ~bound:16 in
  let r =
    Harness.Throughput.run_until_overflow ~max_seconds:3.0
      ~make:(fun () ->
        Locks.Lock_intf.instance_of (module Locks.Bakery_bounded_lock) lock)
      ~recover:(Locks.Bakery_bounded_lock.crash_reset lock)
      ~nprocs:2 ()
  in
  check bool_t "terminates with a count" true (r.acquires_before >= 0);
  if r.overflowed then
    check bool_t "overflow was counted by the registers" true
      (Locks.Bakery_bounded_lock.overflows lock >= 1)

(* ---------------------------------------------------------------- chart *)

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let chart_renders () =
  let s =
    Harness.Chart.render ~title:"demo" ~x_label:"n" ~y_label:"t"
      [
        { Harness.Chart.label = "a"; marker = '*'; points = [ (1.0, 1.0); (2.0, 4.0) ] };
        { Harness.Chart.label = "b"; marker = 'o'; points = [ (1.0, 2.0); (2.0, 8.0) ] };
      ]
  in
  check bool_t "title" true (contains s "-- demo --");
  check bool_t "legend a" true (contains s "* = a");
  check bool_t "legend b" true (contains s "o = b");
  check bool_t "has markers" true (contains s "*" && contains s "o")

let chart_log_axes () =
  let s =
    Harness.Chart.render ~title:"log" ~log_x:true ~log_y:true
      [
        {
          Harness.Chart.label = "p";
          marker = '#';
          points = [ (10.0, 100.0); (100.0, 1000.0); (-1.0, 5.0) ];
        };
      ]
  in
  check bool_t "log axis annotated" true (contains s "1e");
  (* the (-1, 5) point is silently dropped on a log axis *)
  check bool_t "renders despite bad point" true (contains s "#")

let chart_errors () =
  (match
     Harness.Chart.render ~title:"none" ~log_x:true
       [ { Harness.Chart.label = "z"; marker = '*'; points = [ (-1.0, 1.0) ] } ]
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "no plottable points must raise");
  match
    Harness.Chart.render ~title:"tiny" ~width:2 ~height:2
      [ { Harness.Chart.label = "z"; marker = '*'; points = [ (1.0, 1.0) ] } ]
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "tiny canvas must raise"

let figures_smoke () =
  List.iter
    (fun (id, chart) ->
      check bool_t (id ^ " rendered") true (String.length chart > 200))
    (Harness.Figures.all ~quick:true)

(* -------------------------------------------------------------- history *)

module J = Telemetry.Json

(* [f ()] with stdout sent to a temp file; returns its result and what
   it printed. *)
let with_stdout f =
  let path = Filename.temp_file "history" ".out" in
  flush stdout;
  let saved = Unix.dup Unix.stdout in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  Unix.dup2 fd Unix.stdout;
  Unix.close fd;
  let r =
    Fun.protect
      ~finally:(fun () ->
        flush stdout;
        Unix.dup2 saved Unix.stdout;
        Unix.close saved)
      f
  in
  let ic = open_in_bin path in
  let out = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  (r, out)

let write_file path text =
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc

let metric = "bakery_pp_n3_m2/compiled/states_per_sec"

let e11 value : Harness.Experiments.datapoint =
  {
    dp_exp = "e11";
    dp_metric = metric;
    dp_value = value;
    dp_engine = Some "compiled";
    dp_wall_s = Some 0.1;
  }

(* One gated run of [fresh] against the history at [path]; scorecards go
   to a file that is removed afterwards. *)
let gate path fresh =
  let cards = Filename.temp_file "history" ".locks.json" in
  Sys.remove cards;
  let r =
    with_stdout (fun () ->
        Harness.History.record ~check_regress:true ~modelcheck:path
          ~scorecards:cards [ fresh ] [])
  in
  check bool_t "no scorecard file without scorecards" false
    (Sys.file_exists cards);
  r

let prior_row value =
  Printf.sprintf {|{"experiment": "e11", "metric": %S, "value": %s}|} metric
    value

let history_gate () =
  let path = Filename.temp_file "history" ".json" in
  write_file path ("[" ^ prior_row "1000" ^ "]");
  let code, out = gate path (e11 500.0) in
  check int_t "half the best prior fails" 1 code;
  check bool_t "the line says REGRESSION" true (contains out "REGRESSION");
  let code, out = gate path (e11 900.0) in
  check int_t "0.9x the best prior passes" 0 code;
  check bool_t "the line shows the best prior" true (contains out "1000");
  (match Workload.Suite.load_rows path with
  | Ok rows -> check int_t "both fresh rows appended" 3 (List.length rows)
  | Error e -> Alcotest.fail e);
  Sys.remove path

let history_malformed_prior () =
  let path = Filename.temp_file "history" ".json" in
  write_file path
    ("[" ^ prior_row "1000" ^ ", " ^ prior_row {|"fast"|}
    ^ {|, {"experiment": "e11", "value": 5}]|});
  let code, out = gate path (e11 950.0) in
  Sys.remove path;
  check int_t "gated against the numeric row" 0 code;
  check bool_t "malformed rows counted" true
    (contains out "skipping 2 malformed prior row(s)")

let history_damaged_file () =
  let path = Filename.temp_file "history" ".json" in
  write_file path {|{"not": "an array"}|};
  let code, out = gate path (e11 950.0) in
  check int_t "no prior, no regression" 0 code;
  check bool_t "damage reported" true (contains out "not a JSON array");
  (match Workload.Suite.load_rows path with
  | Ok [ row ] ->
      check bool_t "replaced by the fresh row" true
        (J.member "metric" row = Some (J.Str metric))
  | Ok _ | Error _ -> Alcotest.fail "the damaged history was not replaced");
  Sys.remove path

let history_stamp () =
  let row = Harness.History.stamp ~timestamp:42.0 [ ("k", J.Str "v") ] in
  check bool_t "own fields kept" true (J.member "k" row = Some (J.Str "v"));
  check bool_t "timestamp" true (J.member "timestamp" row = Some (J.Num 42.0));
  List.iter
    (fun field ->
      check bool_t (field ^ " stamped") true (J.member field row <> None))
    [ "git_rev"; "gc_minor"; "gc_major"; "gc_heap_mb" ]

(* ------------------------------------------------------------- registry *)

let registry_families () =
  check int_t "eighteen lock families" 18
    (List.length Harness.Registry.lock_families);
  let names =
    List.map
      (fun (f : Locks.Lock_intf.family) -> f.family_name)
      Harness.Registry.lock_families
  in
  List.iter
    (fun n -> check bool_t (n ^ " registered") true (List.mem n names))
    [ "bakery"; "bakery_pp"; "black_white_bakery"; "ticket_mod"; "ttas" ];
  match Harness.Registry.find_family "nope" with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "unknown family must raise"

(* ---------------------------------------------------------- experiments *)

let experiment_registry () =
  check int_t "sixteen experiments plus three ablations" 19
    (List.length Harness.Experiments.all);
  let expected =
    [
      "e1"; "e2"; "e3"; "e4"; "e5"; "e6"; "e7"; "e8"; "e9"; "e10"; "e11";
      "e12"; "e13"; "e14"; "e15"; "e16"; "a1"; "a2"; "a3";
    ]
  in
  check (Alcotest.list Alcotest.string) "ids are ordered" expected
    (List.map (fun (e : Harness.Experiments.experiment) -> e.id)
       Harness.Experiments.all);
  match Harness.Experiments.find "e99" with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "unknown experiment must raise"

(* Each experiment must produce well-formed, non-empty tables in quick
   mode.  The checker-only ones are cheap; the domain ones take a few
   hundred milliseconds each. *)
let experiment_smoke id =
  let e = Harness.Experiments.find id in
  let tables = e.run ~quick:true in
  check bool_t (id ^ " produced tables") true (List.length tables > 0);
  List.iter
    (fun t ->
      let rendered = Harness.Table.render t in
      check bool_t (id ^ " table nonempty") true (String.length rendered > 80))
    tables

let () =
  Alcotest.run "harness"
    [
      ( "stats",
        [
          Alcotest.test_case "descriptive stats" `Quick stats_basics;
          Alcotest.test_case "jain index" `Quick stats_jain;
          Alcotest.test_case "error cases" `Quick stats_errors;
          Alcotest.test_case "SI formatting" `Quick stats_format_si;
        ] );
      ("table", [ Alcotest.test_case "render and csv" `Quick table_render_and_csv ]);
      ( "workload",
        [
          Alcotest.test_case "draws" `Quick workload_draws;
          Alcotest.test_case "spin" `Quick workload_spin_effectful;
        ] );
      ( "throughput",
        [
          Alcotest.test_case "domain runner" `Quick throughput_runs;
          Alcotest.test_case "overflow runner" `Slow overflow_runner;
        ] );
      ( "chart",
        [
          Alcotest.test_case "renders" `Quick chart_renders;
          Alcotest.test_case "log axes" `Quick chart_log_axes;
          Alcotest.test_case "error cases" `Quick chart_errors;
          Alcotest.test_case "figures (quick)" `Slow figures_smoke;
        ] );
      ( "history",
        [
          Alcotest.test_case "states/sec gate" `Quick history_gate;
          Alcotest.test_case "malformed prior rows" `Quick
            history_malformed_prior;
          Alcotest.test_case "damaged history file" `Quick history_damaged_file;
          Alcotest.test_case "stamped rows" `Quick history_stamp;
        ] );
      ("registry", [ Alcotest.test_case "lock families" `Quick registry_families ]);
      ( "experiments",
        Alcotest.test_case "registry shape" `Quick experiment_registry
        :: List.map
             (fun id ->
               Alcotest.test_case (id ^ " quick run") `Slow (fun () ->
                   experiment_smoke id))
             [
               "e1"; "e2"; "e3"; "e4"; "e5"; "e6"; "e7"; "e8"; "e9"; "e10";
               "e12"; "e13"; "e15"; "e16"; "a1"; "a2"; "a3";
             ] );
    ]
