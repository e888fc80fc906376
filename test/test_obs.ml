(* The flight-recorder subsystem: series math, drift/ETA analyzers,
   flight codec + ring recorder, and the deterministic report renderer
   (golden-filed: same inputs must render byte-identically forever,
   or the golden is updated knowingly). *)

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let str_t = Alcotest.string
let close epsilon = Alcotest.float epsilon

(* ------------------------------------------------------------ series *)

let series_stats () =
  check bool_t "mean of empty is nan" true (Float.is_nan (Obs.Series.mean [||]));
  check (close 1e-9) "mean" 2.0 (Obs.Series.mean [| 1.; 2.; 3. |]);
  check (close 1e-9) "stddev" 1.0 (Obs.Series.stddev [| 1.; 2.; 3. |]);
  check (close 1e-9) "stddev single" 0.0 (Obs.Series.stddev [| 5. |])

let series_sparkline () =
  check str_t "empty" "" (Obs.Series.sparkline [||]);
  check str_t "flat is mid-level" "▄▄▄" (Obs.Series.sparkline [| 2.; 2.; 2. |]);
  check str_t "ramp spans the levels" "▁▂▃▄▅▆▇█"
    (Obs.Series.sparkline [| 0.; 1.; 2.; 3.; 4.; 5.; 6.; 7. |]);
  check str_t "non-finite renders as dot" "▁·█"
    (Obs.Series.sparkline [| 0.; nan; 1. |])

let series_fit () =
  (match Obs.Series.fit ~t:[| 0.; 1.; 2.; 3. |] ~y:[| 1.; 3.; 5.; 7. |] with
  | None -> Alcotest.fail "fit of a perfect line failed"
  | Some f ->
      check (close 1e-9) "slope" 2.0 f.Obs.Series.slope;
      check (close 1e-9) "intercept" 1.0 f.Obs.Series.intercept;
      check (close 1e-9) "r2 of exact fit" 1.0 f.Obs.Series.r2;
      check (close 1e-9) "stderr of exact fit" 0.0 f.Obs.Series.slope_stderr);
  check bool_t "fit needs two points" true
    (Obs.Series.fit ~t:[| 1. |] ~y:[| 1. |] = None);
  check bool_t "fit needs t variance" true
    (Obs.Series.fit ~t:[| 2.; 2.; 2. |] ~y:[| 1.; 2.; 3. |] = None)

(* ----------------------------------------------------------- analyze *)

let drift_verdicts () =
  let v s = Obs.Analyze.(verdict_to_string (drift ~metric:"m" s).verdict) in
  let ramp = Array.init 40 (fun i -> 10. +. float_of_int i) in
  check str_t "monotone growth is rising" "rising" (v ramp);
  check str_t "monotone decay is falling" "falling"
    (v (Array.init 40 (fun i -> 50. -. float_of_int i)));
  check str_t "flat stays flat" "flat" (v (Array.make 40 5.));
  check str_t "too short is insufficient" "insufficient"
    (v [| 1.; 2.; 3. |]);
  (* A single spike must not register as drift: window means absorb
     it. *)
  let spiky = Array.make 40 5. in
  spiky.(17) <- 500.;
  check str_t "one spike is not a drift" "flat" (v spiky);
  (* Sub-threshold growth (well under 10% first-to-last) stays flat. *)
  check str_t "sub-threshold growth is flat" "flat"
    (v (Array.init 40 (fun i -> 100. +. (0.01 *. float_of_int i))))

let eta_linear () =
  (* y = 100 t starting at t=0: after 10 samples (t=9, y=900), reaching
     5000 needs (5000-900)/100 = 41 s, with zero-width bands. *)
  let t = Array.init 10 float_of_int in
  let y = Array.map (fun x -> 100. *. x) t in
  (match Obs.Analyze.eta ~target:5000. ~t ~y with
  | None -> Alcotest.fail "eta on linear data failed"
  | Some e ->
      check (close 1e-6) "remaining" 41.0 e.Obs.Analyze.remaining_s;
      check (close 1e-6) "lo band" 41.0 e.Obs.Analyze.lo_s;
      check (close 1e-6) "hi band" 41.0 e.Obs.Analyze.hi_s;
      check (close 1e-6) "rate" 100.0 e.Obs.Analyze.rate);
  check bool_t "no eta when regressing" true
    (Obs.Analyze.eta ~target:100. ~t ~y:(Array.map (fun v -> -.v) y) = None);
  match Obs.Analyze.eta ~target:500. ~t ~y with
  | Some e ->
      check (close 1e-9) "past target means zero remaining" 0.0
        e.Obs.Analyze.remaining_s
  | None -> Alcotest.fail "eta past target failed"

(* ETA monotone convergence: on exactly linear progress, the point
   estimate can only shrink as more of the series is observed — a
   longer prefix never pushes the finish line further out. *)
let eta_monotone_convergence =
  QCheck.Test.make ~count:200 ~name:"eta converges monotonically on linear data"
    QCheck.(
      triple (float_range 0.1 1000.) (float_range 0.0 100.) (int_range 5 60))
    (fun (rate, y0, n) ->
      let t = Array.init n (fun i -> 0.5 *. float_of_int i) in
      let y = Array.map (fun x -> y0 +. (rate *. x)) t in
      let target = y0 +. (rate *. 1000.) in
      let remaining k =
        match
          Obs.Analyze.eta ~target ~t:(Array.sub t 0 k) ~y:(Array.sub y 0 k)
        with
        | Some e -> e.Obs.Analyze.remaining_s
        | None -> QCheck.Test.fail_report "eta vanished on a linear prefix"
      in
      let ok = ref true in
      for k = 3 to n - 1 do
        if remaining (k + 1) > remaining k +. 1e-6 then ok := false
      done;
      !ok)

let shard_analyzers () =
  (match Obs.Analyze.imbalance ~occ_min:[| 10.; 5. |] ~occ_max:[| 20.; 40. |] with
  | Some r -> check (close 1e-9) "worst ratio" 8.0 r
  | None -> Alcotest.fail "imbalance with data returned None");
  check bool_t "no data, no ratio" true
    (Obs.Analyze.imbalance ~occ_min:[||] ~occ_max:[||] = None);
  (* min occupancy clamps to 1 so an empty shard cannot divide by 0 *)
  (match Obs.Analyze.imbalance ~occ_min:[| 0. |] ~occ_max:[| 7. |] with
  | Some r -> check (close 1e-9) "zero min clamps" 7.0 r
  | None -> Alcotest.fail "imbalance clamp returned None");
  match Obs.Analyze.starvation ~steals:[| 5.; 5.; 5. |] ~idle:[| 0.; 90.; 200. |] with
  | Some (sg, ig) ->
      check (close 1e-9) "steal growth" 0.0 sg;
      check (close 1e-9) "idle growth" 200.0 ig
  | None -> Alcotest.fail "starvation with data returned None"

(* ------------------------------------------------------------ flight *)

let flight_codec () =
  let s = Obs.Flight.sample ~seq:3 ~at_s:1.5 [ ("b", 2.); ("a", 1.) ] in
  check bool_t "values sorted by name" true
    (List.map fst s.Obs.Flight.values = [ "a"; "b" ]);
  match
    Obs.Flight.sample_of_json (Telemetry.Json.Obj (Obs.Flight.sample_fields s))
  with
  | Ok s' -> check bool_t "sample round-trips" true (s = s')
  | Error e -> Alcotest.fail ("sample round-trip: " ^ e)

let tmp_path name =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "obs_test_%d_%s" (Unix.getpid ()) name)

(* A flight record as the report reads it. *)
let load_flight path =
  Result.map
    (fun (i : Obs.Report.input) -> (i.flight_header, i.flight))
    (Obs.Report.add_record Obs.Report.empty path)

let flight_load () =
  let path = tmp_path "flight_load.jsonl" in
  if Sys.file_exists path then Sys.remove path;
  let sink = Telemetry.Sink.jsonl Telemetry.Record.Flight path in
  (* A foreign event (tee'd progress line) must be skipped, not fatal. *)
  sink.emit (Telemetry.Sink.event ~kind:"progress" ~name:"explore" []);
  List.iter
    (fun s ->
      sink.emit
        (Telemetry.Sink.event ~kind:"flight" ~name:"recorder"
           (Obs.Flight.sample_fields s)))
    [
      Obs.Flight.sample ~seq:0 ~at_s:0.0 [ ("x", 1.) ];
      Obs.Flight.sample ~seq:1 ~at_s:0.5 [ ("x", 2.); ("y", 9.) ];
    ];
  sink.close ();
  (match load_flight path with
  | Error e -> Alcotest.fail e
  | Ok (header, samples) ->
      check bool_t "header found" true (header <> None);
      check int_t "two samples" 2 (List.length samples);
      check
        (Alcotest.list str_t)
        "names are the sorted union" [ "x"; "y" ]
        (Obs.Flight.names samples);
      check bool_t "series skips absent values" true
        (Obs.Flight.series samples "y" = [| 9. |]);
      check bool_t "times zip with series" true
        (Obs.Flight.times samples "y" = [| 0.5 |]));
  (* A future-schema header must be refused, not misread. *)
  let oc = open_out path in
  output_string oc
    "{\"kind\": \"header\", \"name\": \"flight\", \"schema\": 999}\n";
  close_out oc;
  (match load_flight path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "wrong schema version was accepted");
  Sys.remove path

(* ---------------------------------------------------------- recorder *)

let recorder_ring () =
  let r = Obs.Recorder.create ~capacity:4 () in
  for i = 0 to 9 do
    Obs.Recorder.record r [ ("v", float_of_int i) ]
  done;
  Obs.Recorder.stop r;
  let samples = Obs.Recorder.samples r in
  check int_t "ring keeps capacity" 4 (List.length samples);
  check int_t "dropped counted" 6 (Obs.Recorder.dropped r);
  check
    (Alcotest.list int_t)
    "oldest-first surviving seqs" [ 6; 7; 8; 9 ]
    (List.map (fun s -> s.Obs.Flight.seq) samples);
  Obs.Recorder.stop r;
  check bool_t "record after stop is a no-op" true
    (Obs.Recorder.record r [ ("v", 99.) ];
     List.length (Obs.Recorder.samples r) = 4)

let recorder_sink () =
  let path = tmp_path "recorder_sink.jsonl" in
  if Sys.file_exists path then Sys.remove path;
  let r = Obs.Recorder.create ~capacity:2 ~path () in
  for i = 0 to 4 do
    Obs.Recorder.record r [ ("v", float_of_int i) ]
  done;
  Obs.Recorder.stop r;
  (match load_flight path with
  | Error e -> Alcotest.fail e
  | Ok (header, samples) ->
      check bool_t "sink writes the header" true (header <> None);
      (* the sink gets every sample, ring eviction notwithstanding *)
      check int_t "sink is complete" 5 (List.length samples));
  Sys.remove path

let recorder_sampler () =
  let polls = ref 0 in
  let r = Obs.Recorder.create () in
  Obs.Recorder.start_sampler ~interval_s:0.01 r ~poll:(fun () ->
      incr polls;
      [ ("n", float_of_int !polls) ]);
  Unix.sleepf 0.08;
  Obs.Recorder.stop r;
  let n = List.length (Obs.Recorder.samples r) in
  check bool_t "sampler recorded repeatedly" true (n >= 2);
  Obs.Recorder.stop r;
  check int_t "stop is idempotent" n (List.length (Obs.Recorder.samples r))

let recorder_of_metrics () =
  let m = Telemetry.Metrics.create () in
  Telemetry.Metrics.add (Telemetry.Metrics.counter m "c") 7;
  Telemetry.Metrics.set (Telemetry.Metrics.gauge m "g") 2.5;
  let h = Telemetry.Metrics.histogram m "h" in
  ignore (Telemetry.Metrics.histogram m "empty");
  List.iter (Telemetry.Metrics.observe h) [ 0.001; 0.001; 0.5 ];
  let flat = Obs.Recorder.of_metrics m in
  let get k = List.assoc_opt k flat in
  check bool_t "counter flattens" true (get "c" = Some 7.);
  check bool_t "gauge flattens" true (get "g" = Some 2.5);
  check bool_t "histogram count" true (get "h.count" = Some 3.);
  check bool_t "histogram p50" true (get "h.p50" = Some 0.001);
  check bool_t "histogram p999 present" true (get "h.p999" <> None);
  check bool_t "empty histogram skipped" true (get "empty.count" = None)

(* ------------------------------------------------------------ report *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* The golden pair pins the whole rendering contract: float formats,
   section order, sparkline scaling, drift thresholds, verdict logic.
   Regenerate (consciously!) with:
     dune exec test/test_obs.exe -- obs golden 2>/dev/null, or render
     golden/flight_small.jsonl through `bakery_cli report`. *)
let report_golden () =
  match Obs.Report.add_record Obs.Report.empty "golden/flight_small.jsonl" with
  | Error e -> Alcotest.fail e
  | Ok input ->
      let rendered = Obs.Report.render input in
      check str_t "report matches golden/report_small.md"
        (read_file "golden/report_small.md")
        rendered

let report_deterministic () =
  (* Same in-memory input, two renders, byte equality — no hidden
     clock/host dependence. *)
  let samples =
    List.init 12 (fun i ->
        Obs.Flight.sample ~seq:i
          ~at_s:(0.1 *. float_of_int i)
          [
            ("explore.live_distinct", 100. *. float_of_int i);
            ("explore.max_states", 5000.);
            ("gc.heap_mb", 3. +. float_of_int i);
          ])
  in
  let input = { Obs.Report.empty with Obs.Report.flight = samples } in
  check str_t "byte-identical re-render" (Obs.Report.render input)
    (Obs.Report.render input);
  let doc = Obs.Report.render input in
  check bool_t "heap drift flagged" true
    (let has sub =
       let n = String.length doc and m = String.length sub in
       let rec go i = i + m <= n && (String.sub doc i m = sub || go (i + 1)) in
       go 0
     in
     has "ATTENTION" && has "gc.heap_mb" && has "Completion ETA")

let report_scorecard_diff () =
  let row ?(goodput = 1000.) ?(slo = true) () =
    Telemetry.Json.Obj
      [
        ("kind", Telemetry.Json.Str "lock_scorecard");
        ("algo", Telemetry.Json.Str "bakery_pp");
        ("domains", Telemetry.Json.Num 2.);
        ("rate", Telemetry.Json.Num 4000.);
        ("goodput", Telemetry.Json.Num goodput);
        ("p99_ns", Telemetry.Json.Num 2.0e6);
        ("slo_pass", Telemetry.Json.Bool slo);
        ("drift_p99", Telemetry.Json.Str "rising");
      ]
  in
  let doc =
    Obs.Report.render
      {
        Obs.Report.empty with
        Obs.Report.bench = [ row (); row ~goodput:500. ~slo:false () ];
      }
  in
  let has sub =
    let n = String.length doc and m = String.length sub in
    let rec go i = i + m <= n && (String.sub doc i m = sub || go (i + 1)) in
    go 0
  in
  check bool_t "regression vs best prior flagged" true (has "-50.0%");
  check bool_t "slo failure flagged" true (has "SLO fail");
  check bool_t "drift extra column flagged" true (has "drift_p99=rising")

let () =
  Alcotest.run "obs"
    [
      ( "series",
        [
          Alcotest.test_case "stats" `Quick series_stats;
          Alcotest.test_case "sparkline" `Quick series_sparkline;
          Alcotest.test_case "least squares" `Quick series_fit;
        ] );
      ( "analyze",
        [
          Alcotest.test_case "drift verdicts" `Quick drift_verdicts;
          Alcotest.test_case "eta on linear data" `Quick eta_linear;
          QCheck_alcotest.to_alcotest eta_monotone_convergence;
          Alcotest.test_case "shard analyzers" `Quick shard_analyzers;
        ] );
      ( "flight",
        [
          Alcotest.test_case "sample codec" `Quick flight_codec;
          Alcotest.test_case "load / schema gate" `Quick flight_load;
        ] );
      ( "recorder",
        [
          Alcotest.test_case "ring eviction" `Quick recorder_ring;
          Alcotest.test_case "jsonl sink" `Quick recorder_sink;
          Alcotest.test_case "background sampler" `Quick recorder_sampler;
          Alcotest.test_case "metrics flattening" `Quick recorder_of_metrics;
        ] );
      ( "report",
        [
          Alcotest.test_case "golden file" `Quick report_golden;
          Alcotest.test_case "deterministic render" `Quick report_deterministic;
          Alcotest.test_case "scorecard diff" `Quick report_scorecard_diff;
        ] );
    ]
