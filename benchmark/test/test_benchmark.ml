(* Runs the benchmark at --tiny sizes and checks its contract: every
   metric BENCHMARK.json names is printed with its unit, the --json
   output parses and reports no failure, and a trace is well formed. *)

module Json = Telemetry.Json

let exe = "../run.exe"
let workloads = [ "mc_atomic"; "mc_weak_par"; "mc_sym"; "lock_bakery_pp" ]

let read_file path = In_channel.with_open_bin path In_channel.input_all

let parse_json s =
  match Json.parse s with Ok j -> j | Error e -> Alcotest.failf "bad JSON (%s): %s" e s

let field name j =
  match Json.member name j with Some v -> v | None -> Alcotest.failf "no field %s" name

let num j = match Json.to_num j with Some v -> v | None -> Alcotest.fail "not a number"
let str j = match Json.to_str j with Some v -> v | None -> Alcotest.fail "not a string"
let arr = function Json.Arr l -> l | _ -> Alcotest.fail "not an array"

(* (name, unit) of one metric list of BENCHMARK.json. *)
let catalogue key =
  arr (field key (parse_json (read_file "../../BENCHMARK.json")))
  |> List.map (fun m -> (str (field "name" m), str (field "unit" m)))

(* Run the benchmark; its stdout lines, after asserting exit 0. *)
let run args =
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let lines = In_channel.input_all ic |> String.split_on_char '\n' in
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ -> Alcotest.failf "run.exe %s failed:\n%s" (String.concat " " args) (String.concat "\n" lines));
  lines

(* "metric <name> <value> <unit>" lines as (name, unit) pairs. *)
let printed lines =
  List.filter_map
    (fun l ->
      match String.split_on_char ' ' l with
      | [ "metric"; name; v; unit ] ->
          ignore (float_of_string v);
          Some (name, unit)
      | _ -> None)
    lines

let check_result ~expect j =
  Alcotest.(check bool) "correct" true (field "correct" j = Json.Bool true);
  Alcotest.(check bool) "attempted" true (num (field "attempted" j) >= 1.0);
  Alcotest.(check (float 0.0)) "failed" 0.0 (num (field "failed" j));
  let metrics = field "metrics" j in
  List.iter
    (fun (name, unit) ->
      let m = field name metrics in
      Alcotest.(check string) (name ^ " unit") unit (str (field "unit" m));
      ignore (num (field "value" m)))
    expect

let test_end_to_end () =
  let expect = catalogue "end_to_end" in
  let lines =
    run [ "--workload"; "all"; "--seed"; "7"; "--seconds"; "0.05"; "--tiny"; "--json"; "all.json" ]
  in
  List.iter
    (fun m ->
      Alcotest.(check int)
        (fst m ^ " printed once per workload")
        (List.length workloads)
        (List.length (List.filter (( = ) m) (printed lines))))
    expect;
  let all = parse_json (read_file "all.json") in
  List.iter
    (fun w ->
      let j = field w all in
      check_result ~expect j;
      List.iter
        (fun (name, _) ->
          Alcotest.(check bool) (w ^ " " ^ name ^ " > 0") true (num (field "value" (field name (field "metrics" j))) > 0.0))
        expect)
    workloads

(* Unique ids, parents recorded before their children, children inside
   their parents, and no span whose children cover more than it does. *)
let check_trace path =
  match String.split_on_char '\n' (String.trim (read_file path)) with
  | [] -> Alcotest.fail "empty trace"
  | header :: spans ->
      Alcotest.(check string) "header" "span_header" (str (field "kind" (parse_json header)));
      Alcotest.(check bool) "some spans" true (spans <> []);
      let n = List.length spans in
      let start = Array.make n 0 and stop = Array.make n 0 and covered = Array.make n 0 in
      List.iteri
        (fun k line ->
          let j = parse_json line in
          let get f = int_of_float (num (field f j)) in
          let id = get "id" and parent = get "parent" in
          Alcotest.(check int) "ids are unique and dense" k id;
          start.(k) <- get "start_ns";
          stop.(k) <- get "end_ns";
          Alcotest.(check bool) "end >= start" true (stop.(k) >= start.(k));
          if parent >= 0 then begin
            Alcotest.(check bool) "parent precedes child" true (parent < id);
            Alcotest.(check bool) "child inside parent" true
              (start.(parent) <= start.(k) && stop.(k) <= stop.(parent));
            covered.(parent) <- covered.(parent) + (stop.(k) - start.(k))
          end)
        spans;
      Array.iteri
        (fun k c -> Alcotest.(check bool) "self time >= 0" true (stop.(k) - start.(k) - c >= 0))
        covered

let test_per_layer w () =
  let expect = catalogue "per_layer" in
  let trace = w ^ ".jsonl" and json = w ^ ".json" in
  let lines =
    run
      [ "--workload"; w; "--seed"; "7"; "--seconds"; "0.05"; "--tiny"; "--trace"; "1";
        "--trace-out"; trace; "--json"; json ]
  in
  let got = printed lines in
  List.iter
    (fun m -> Alcotest.(check bool) (fst m ^ " printed with its unit") true (List.mem m got))
    expect;
  check_result ~expect (parse_json (read_file json));
  check_trace trace

let () =
  Alcotest.run "benchmark"
    [
      ("end-to-end", [ Alcotest.test_case "all workloads" `Quick test_end_to_end ]);
      ("per-layer", List.map (fun w -> Alcotest.test_case w `Quick (test_per_layer w)) workloads);
    ]
