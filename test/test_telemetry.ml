(* Telemetry subsystem tests: histogram bucket/percentile math, snapshot
   determinism, JSON round-trips and JSONL sink escaping, progress
   rate-limiting, bench-driver argv scanning, the lock latency wrapper —
   and the load-bearing one: exploration with telemetry attached is
   bit-identical to exploration without it. *)

module T = Telemetry
module MC = Modelcheck

let check = Alcotest.check
let int_t = Alcotest.int
let bool_t = Alcotest.bool
let string_t = Alcotest.string

(* ------------------------------------------------------------ metrics *)

let counters_and_gauges () =
  let m = T.Metrics.create () in
  let c = T.Metrics.counter m "events" in
  T.Metrics.incr c;
  T.Metrics.add c 9;
  check int_t "counter accumulates" 10 (T.Metrics.counter_value c);
  let c' = T.Metrics.counter m "events" in
  T.Metrics.incr c';
  check int_t "same name, same counter" 11 (T.Metrics.counter_value c);
  let g = T.Metrics.gauge m "depth" in
  T.Metrics.set g 42.0;
  T.Metrics.set g 17.0;
  check (Alcotest.float 0.0) "gauge keeps last" 17.0 (T.Metrics.gauge_value g);
  (match T.Metrics.gauge m "events" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "kind mismatch must raise")

let histogram_buckets () =
  let m = T.Metrics.create () in
  let h = T.Metrics.histogram m ~buckets:[| 1.0; 2.0; 5.0 |] "lat" in
  check bool_t "empty percentile is nan" true
    (Float.is_nan (T.Metrics.percentile h 0.5));
  (* a value exactly on a bound lands in that bucket (upper bounds are
     inclusive), one just above spills into the next *)
  T.Metrics.observe h 1.0;
  check (Alcotest.float 0.0) "on-bound stays" 1.0 (T.Metrics.percentile h 1.0);
  T.Metrics.observe h 1.0001;
  check (Alcotest.float 0.0) "above bound spills" 2.0
    (T.Metrics.percentile h 1.0);
  (* overflow bucket reports the maximum observation, not a bound *)
  T.Metrics.observe h 7.5;
  check (Alcotest.float 0.0) "overflow reports max" 7.5
    (T.Metrics.percentile h 1.0)

let percentile_math () =
  let m = T.Metrics.create () in
  let h = T.Metrics.histogram m ~buckets:[| 1.0; 2.0; 5.0 |] "lat" in
  for _ = 1 to 100 do
    T.Metrics.observe h 0.5
  done;
  for _ = 1 to 100 do
    T.Metrics.observe h 1.5
  done;
  (* rank = ceil(q * 200): q=0.5 -> rank 100, inside the first bucket *)
  check (Alcotest.float 0.0) "p50" 1.0 (T.Metrics.percentile h 0.50);
  check (Alcotest.float 0.0) "p95" 2.0 (T.Metrics.percentile h 0.95);
  match T.Metrics.snapshot m with
  | [ ("lat", T.Metrics.Histogram s) ] ->
      check int_t "count" 200 s.count;
      check (Alcotest.float 1e-9) "sum" 200.0 s.sum;
      check (Alcotest.float 0.0) "min" 0.5 s.min;
      check (Alcotest.float 0.0) "max" 1.5 s.max
  | _ -> Alcotest.fail "snapshot shape"

let snapshot_determinism () =
  let m = T.Metrics.create () in
  T.Metrics.set (T.Metrics.gauge m "zulu") 1.0;
  T.Metrics.incr (T.Metrics.counter m "alpha");
  T.Metrics.observe (T.Metrics.histogram m "mike") 0.5;
  let names = List.map fst (T.Metrics.snapshot m) in
  check (Alcotest.list string_t) "sorted by name"
    [ "alpha"; "mike"; "zulu" ] names;
  check bool_t "snapshots of unchanged registry are equal" true
    (T.Metrics.snapshot m = T.Metrics.snapshot m)

(* ----------------------------------------------------------- quantile *)

(* The atomic bucket walk in Metrics and the reference bucketizer in
   Quantile must be the same estimator: feed identical samples to both
   and demand identical answers at every tail, p999 included.  This is
   the gate that keeps a future "optimisation" of one copy from
   silently changing what p99 means. *)
let quantile_differential () =
  let rng = Random.State.make [| 0xB41; 7 |] in
  let bounds = T.Quantile.default_buckets in
  for case = 1 to 20 do
    let n = 1 + Random.State.int rng 500 in
    let samples =
      Array.init n (fun _ ->
          (* span the ladder: log-uniform over ~[1e-7, 20) hits the
             underflow bucket, every middle bucket and the overflow *)
          1e-7 *. exp (Random.State.float rng (log 2e8)))
    in
    let m = T.Metrics.create () in
    let h = T.Metrics.histogram m ~buckets:bounds "lat" in
    Array.iter (T.Metrics.observe h) samples;
    List.iter
      (fun q ->
        let fast = T.Metrics.percentile h q in
        let ref_v = T.Quantile.of_samples ~bounds samples ~q in
        check (Alcotest.float 0.0)
          (Printf.sprintf "case %d n=%d q=%g" case n q)
          ref_v fast)
      [ 0.5; 0.9; 0.95; 0.99; 0.999; 1.0 ]
  done

let quantile_edges () =
  check int_t "rank clamps to 1" 1 (T.Quantile.rank ~q:0.0 ~count:100);
  check int_t "rank is a ceiling" 51 (T.Quantile.rank ~q:0.505 ~count:100);
  check int_t "rank tops out at count" 100 (T.Quantile.rank ~q:1.0 ~count:100);
  check bool_t "empty estimate is nan" true
    (Float.is_nan
       (T.Quantile.estimate ~bounds:[| 1.0 |] ~counts:[| 0; 0 |] ~max:nan
          ~q:0.5));
  (* a rank landing in the overflow bucket reports the observed max,
     not a bucket bound *)
  check (Alcotest.float 0.0) "overflow reports max" 42.0
    (T.Quantile.estimate ~bounds:[| 1.0 |] ~counts:[| 1; 1 |] ~max:42.0 ~q:1.0)

(* p999 is part of the shared contract: present in snapshots, in the
   JSON encoding, and in the lock-latency stats, always ordered within
   the tail. *)
let p999_everywhere () =
  let m = T.Metrics.create () in
  let h = T.Metrics.histogram m "lat" in
  for _ = 1 to 998 do
    T.Metrics.observe h 1e-4
  done;
  T.Metrics.observe h 2.0;
  T.Metrics.observe h 2.0;
  (* count 1000: rank(0.999) = 999 > 998 small observations, so p999
     must resolve into the outlier bucket while p99 stays small *)
  (match T.Metrics.snapshot m with
  | [ ("lat", T.Metrics.Histogram s) ] ->
      check bool_t "tail ordered p50<=p95<=p99<=p999<=max" true
        (s.p50 <= s.p95 && s.p95 <= s.p99 && s.p99 <= s.p999
       && s.p999 <= s.max);
      check (Alcotest.float 0.0) "p999 catches the 1-in-1000 outlier" 2.0
        s.p999;
      (match T.Metrics.value_to_json (T.Metrics.Histogram s) with
      | T.Json.Obj fields ->
          check bool_t "p999 serialized" true (List.mem_assoc "p999" fields)
      | _ -> Alcotest.fail "histogram JSON is not an object")
  | _ -> Alcotest.fail "snapshot shape");
  check bool_t "lock ladder is the shared one" true
    (Locks.Latency.buckets_s = T.Quantile.latency_buckets_s)

(* --------------------------------------------------------------- json *)

let json_roundtrip () =
  let open T.Json in
  let v =
    Obj
      [
        ("name", Str "quote\" slash\\ newline\n tab\t ctrl\x01");
        ("xs", Arr [ Num 1.0; Num 2.5; Bool true; Null ]);
        ("t", Num 1785969713.25);
      ]
  in
  match parse (to_string v) with
  | Ok v' ->
      check bool_t "round trip" true (v = v');
      check bool_t "timestamp precision survives" true
        (member "t" v' = Some (Num 1785969713.25))
  | Error e -> Alcotest.fail ("parse failed: " ^ e)

let json_errors () =
  let bad s =
    match T.Json.parse s with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail ("accepted invalid JSON: " ^ s)
  in
  bad "";
  bad "{";
  bad "[1, ]";
  bad "{\"a\": 1,}";
  bad "[1] trailing";
  bad "\"unterminated";
  match T.Json.parse "  [1, {\"a\": [true, null]}]  " with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("rejected valid JSON: " ^ e)

let jsonl_sink_escaping () =
  let path = Filename.temp_file "telemetry" ".jsonl" in
  let sink = T.Sink.jsonl T.Record.Events path in
  sink.emit
    (T.Sink.event ~time:1.5 ~kind:"progress" ~name:"weird \"name\"\n"
       [ ("k\\ey", T.Json.Str "v\nal"); ("n", T.Json.Num 3.0) ]);
  sink.emit (T.Sink.event ~time:2.0 ~kind:"span" ~name:"ok" []);
  sink.close ();
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  Sys.remove path;
  let header, lines =
    match List.rev !lines with
    | h :: rest -> (h, rest)
    | [] -> Alcotest.fail "empty sink file"
  in
  check bool_t "the header line comes first" true
    (match T.Json.parse header with
    | Ok h -> h = T.Record.header T.Record.Events
    | Error _ -> false);
  check int_t "one line per event" 2 (List.length lines);
  List.iter
    (fun line ->
      match T.Json.parse line with
      | Ok (T.Json.Obj fields) ->
          check bool_t "has t/kind/name" true
            (List.mem_assoc "t" fields
            && List.mem_assoc "kind" fields
            && List.mem_assoc "name" fields)
      | Ok _ -> Alcotest.fail "line is not an object"
      | Error e -> Alcotest.fail ("unparseable JSONL line: " ^ e))
    lines;
  match T.Json.parse (List.hd lines) with
  | Ok v ->
      check bool_t "escaped name round-trips" true
        (T.Json.member "name" v = Some (T.Json.Str "weird \"name\"\n"));
      check bool_t "escaped field round-trips" true
        (T.Json.member "k\\ey" v = Some (T.Json.Str "v\nal"))
  | Error e -> Alcotest.fail e

(* ----------------------------------------------------------- progress *)

let progress_rate_limit () =
  let count = ref 0 in
  let sink =
    { T.Sink.emit = (fun _ -> incr count); close = (fun () -> ()) }
  in
  (* a huge interval: nothing emits no matter how hard we tick *)
  let p = T.Progress.create ~interval:3600.0 ~batch:1 ~name:"t" sink () in
  for _ = 1 to 10_000 do
    T.Progress.tick p (fun () -> [])
  done;
  check int_t "rate-limited ticks emit nothing" 0 !count;
  T.Progress.force p (fun () -> []);
  check int_t "force always emits" 1 !count;
  check int_t "emitted agrees" 1 (T.Progress.emitted p);
  (* zero interval: every poll emits *)
  let p0 = T.Progress.create ~interval:0.0 ~batch:1 ~name:"t" sink () in
  count := 0;
  for _ = 1 to 5 do
    T.Progress.poll p0 (fun () -> [])
  done;
  check int_t "zero interval emits every poll" 5 !count

let progress_fields_lazy () =
  (* the field thunk must not run when no line is due *)
  let sink = T.Sink.null in
  let p = T.Progress.create ~interval:3600.0 ~batch:8 ~name:"t" sink () in
  let evaluated = ref 0 in
  for _ = 1 to 1000 do
    T.Progress.tick p (fun () ->
        incr evaluated;
        [])
  done;
  check int_t "field thunk never evaluated" 0 !evaluated

let clock_monotone () =
  let last = ref (T.Clock.now_s ()) in
  for _ = 1 to 1000 do
    let n = T.Clock.now_s () in
    check bool_t "now_s non-decreasing" true (n >= !last);
    last := n
  done

let runmeta_capture () =
  let m = T.Runmeta.capture () in
  check bool_t "nprocs positive" true (m.nprocs >= 1);
  check string_t "ocaml version" Sys.ocaml_version m.ocaml;
  check bool_t "git rev nonempty" true (String.length m.git_rev > 0);
  let fields = T.Runmeta.to_fields m in
  check bool_t "fields cover the record" true
    (List.for_all
       (fun k -> List.mem_assoc k fields)
       [ "git_rev"; "host"; "nprocs"; "os"; "ocaml" ])

(* ------------------------------------------------------------ argscan *)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

(* unit-suffixed values: the duration/count grammar `bench locks` uses
   for --rate and --duration *)
let argscan_suffixed () =
  let ok raw expect =
    match Harness.Argscan.parse_suffixed ~flag:"--rate" raw with
    | Ok v ->
        check (Alcotest.float 1e-9) (raw ^ " parses") expect v
    | Error e -> Alcotest.fail (raw ^ " rejected: " ^ e)
  in
  ok "30" 30.0;
  ok "30s" 30.0;
  ok "250ms" 0.25;
  ok "40us" 4e-5;
  ok "50k" 50_000.0;
  ok "50K" 50_000.0;
  ok "2M" 2e6;
  ok "0.5G" 5e8;
  ok "1e6" 1e6;
  ok "1.5e3ms" 1.5;
  let err what raw fragment =
    match Harness.Argscan.parse_suffixed ~docv:"RATE" ~flag:"--rate" raw with
    | Ok v -> Alcotest.fail (Printf.sprintf "%s accepted as %g" what v)
    | Error e ->
        check bool_t (what ^ ": names the flag") true
          (contains ~needle:"--rate" e);
        check bool_t
          (what ^ ": explains itself (" ^ e ^ ")")
          true
          (contains ~needle:fragment e)
  in
  err "bare suffix" "k" "expected a number";
  err "empty" "" "expected a number";
  err "unknown suffix" "30x" "unknown";
  (* lowercase m alone would be ambiguous (milli vs mega) — rejected *)
  err "ambiguous m" "30m" "unknown";
  err "garbage mantissa" "1.2.3s" "cannot read";
  err "negative" "-5s" "negative"

(* -------------------------------------------------------------- gc *)

let gc_gauges () =
  let fields = T.Metrics.gc_fields () in
  List.iter
    (fun key ->
      match List.assoc_opt key fields with
      | Some (T.Json.Num v) ->
          check bool_t (key ^ " is non-negative") true (v >= 0.0)
      | Some _ -> Alcotest.fail (key ^ " is not a number")
      | None -> Alcotest.fail ("missing gc field " ^ key))
    [ "gc_minor"; "gc_major"; "gc_heap_mb" ];
  let m = T.Metrics.create () in
  T.Metrics.observe_gc m;
  let g name = T.Metrics.gauge_value (T.Metrics.gauge m name) in
  check bool_t "minor collections gauge set" true
    (g "gc.minor_collections" >= 0.0);
  check bool_t "major collections gauge set" true
    (g "gc.major_collections" >= 0.0);
  check bool_t "heap gauge reads megabytes" true (g "gc.heap_mb" > 0.0);
  (* resident memory comes from the kernel where it can be read; its
     peak is never below its present *)
  if Sys.file_exists "/proc/self/status" then begin
    check bool_t "resident memory read" true (g "gc.vm_rss_mb" > 0.0);
    check bool_t "peak resident memory at least the present" true
      (g "gc.vm_hwm_mb" >= g "gc.vm_rss_mb");
    check bool_t "the gc fields carry both" true
      (List.mem_assoc "gc_vm_rss_mb" fields
      && List.mem_assoc "gc_vm_hwm_mb" fields)
  end;
  (* forcing a minor collection moves the counter, proving the gauges
     track the live GC rather than a creation-time snapshot *)
  let before = g "gc.minor_collections" in
  Gc.minor ();
  T.Metrics.observe_gc m;
  check bool_t "refresh observes new collections" true
    (g "gc.minor_collections" > before)

(* ----------------------------------------------------- latency wrapper *)

let latency_wrapper () =
  let family = Harness.Registry.find_family "tas" in
  let inst = family.make ~nprocs:2 ~bound:64 in
  let wrapped = Locks.Latency.instrument inst in
  for _ = 1 to 50 do
    wrapped.acquire 0;
    wrapped.release 0
  done;
  let stats = wrapped.stats () in
  let get k =
    match List.assoc_opt k stats with
    | Some v -> v
    | None -> Alcotest.fail ("missing stat " ^ k)
  in
  check bool_t "p50 <= p95 <= p99 <= max" true
    (get "acq_p50_ns" <= get "acq_p95_ns"
    && get "acq_p95_ns" <= get "acq_p99_ns"
    && get "acq_p99_ns" <= get "acq_max_ns");
  check bool_t "max positive after 50 acquires" true (get "acq_max_ns" > 0);
  check string_t "name preserved" inst.instance_name wrapped.instance_name

(* ---------------------------------------------- differential explore *)

let stats_eq (a : MC.Explore.stats) (b : MC.Explore.stats) =
  a.generated = b.generated && a.distinct = b.distinct && a.depth = b.depth

let differential_explore () =
  let run_pair sys =
    let plain = MC.Explore.run ~max_states:200_000 sys in
    let m = T.Metrics.create () in
    let p = T.Progress.create ~interval:0.0 ~batch:1 ~name:"explore" T.Sink.null () in
    let instrumented =
      MC.Explore.run ~max_states:200_000 ~progress:p ~metrics:m sys
    in
    check bool_t "stats identical with telemetry attached" true
      (stats_eq plain.stats instrumented.stats);
    check bool_t "progress actually fired" true (T.Progress.emitted p > 0);
    check bool_t "outcome identical (traces included)" true
      (plain.outcome = instrumented.outcome);
    (plain, m)
  in
  (* passing system *)
  let sys = MC.System.make (Core.Bakery_pp_model.program ()) ~nprocs:2 ~bound:3 in
  let r, m = run_pair sys in
  check bool_t "pass" true (r.outcome = MC.Explore.Pass);
  (* the metrics registry saw the same numbers the checker reported *)
  (match List.assoc_opt "explore.generated" (T.Metrics.snapshot m) with
  | Some (T.Metrics.Counter n) -> check int_t "metrics agree" r.stats.generated n
  | _ -> Alcotest.fail "explore.generated missing from registry");
  (* violating system: the overflow counterexample trace must also match *)
  let sys =
    MC.System.make (Algorithms.Bakery.program ()) ~nprocs:2 ~bound:2
  in
  let r, _ = run_pair sys in
  match r.outcome with
  | MC.Explore.Violation { invariant; _ } ->
      check string_t "overflow found" "no-overflow" invariant
  | _ -> Alcotest.fail "expected an overflow violation"

let differential_par_explore () =
  let sys = MC.System.make (Core.Bakery_pp_model.program ()) ~nprocs:2 ~bound:3 in
  let plain = MC.Par_explore.run ~domains:2 sys in
  let m = T.Metrics.create () in
  let p = T.Progress.create ~interval:0.0 ~batch:1 ~name:"par" T.Sink.null () in
  let instrumented = MC.Par_explore.run ~domains:2 ~progress:p ~metrics:m sys in
  check bool_t "parallel stats identical with telemetry" true
    (stats_eq plain.stats instrumented.stats);
  check bool_t "parallel progress fired" true (T.Progress.emitted p > 0);
  check bool_t "parallel outcome identical" true
    (plain.outcome = instrumented.outcome)

(* ---------------------------------------------------------------- suite *)

let () =
  Alcotest.run "telemetry"
    [
      ( "metrics",
        [
          Alcotest.test_case "counters and gauges" `Quick counters_and_gauges;
          Alcotest.test_case "histogram bucket boundaries" `Quick
            histogram_buckets;
          Alcotest.test_case "percentile math" `Quick percentile_math;
          Alcotest.test_case "snapshot determinism" `Quick snapshot_determinism;
        ] );
      ( "quantile",
        [
          Alcotest.test_case "differential vs reference" `Quick
            quantile_differential;
          Alcotest.test_case "rank and overflow edges" `Quick quantile_edges;
          Alcotest.test_case "p999 everywhere" `Quick p999_everywhere;
        ] );
      ( "json",
        [
          Alcotest.test_case "round trip" `Quick json_roundtrip;
          Alcotest.test_case "parse errors" `Quick json_errors;
          Alcotest.test_case "jsonl sink escaping" `Quick jsonl_sink_escaping;
        ] );
      ( "progress",
        [
          Alcotest.test_case "rate limiting" `Quick progress_rate_limit;
          Alcotest.test_case "lazy fields" `Quick progress_fields_lazy;
          Alcotest.test_case "monotonic clock" `Quick clock_monotone;
          Alcotest.test_case "run metadata" `Quick runmeta_capture;
        ] );
      ( "argscan",
        [
          Alcotest.test_case "unit-suffixed values" `Quick argscan_suffixed;
        ] );
      ("gc", [ Alcotest.test_case "gauges and fields" `Quick gc_gauges ]);
      ( "locks",
        [ Alcotest.test_case "latency wrapper" `Quick latency_wrapper ] );
      ( "differential",
        [
          Alcotest.test_case "explore unchanged by telemetry" `Quick
            differential_explore;
          Alcotest.test_case "par_explore unchanged by telemetry" `Quick
            differential_par_explore;
        ] );
    ]
