module J = Telemetry.Json

let say = Printf.printf

let stamp ~timestamp fields =
  J.Obj
    (fields
    @ (("timestamp", J.Num timestamp)
      :: Telemetry.Runmeta.to_fields (Telemetry.Runmeta.capture ()))
    @ Telemetry.Metrics.gc_fields ())

(* Appends [rows] to the history at [path] and returns the rows it held
   before: the gate compares a run with history, not with itself. *)
let append ~what path rows =
  let prior =
    match Workload.Suite.load_rows path with
    | Ok prior -> prior
    | Error reason ->
        say "warning: %s; treating its prior rows as empty\n%!" reason;
        []
  in
  if rows <> [] then begin
    Workload.Suite.write_rows path (prior @ rows);
    say "appended %d %s(s) to %s\n%!" (List.length rows) what path
  end;
  prior

(* One regress-check line; true when it reports a regression. *)
let check_line ~label ~fresh ~best ~ratio ~fail ~none =
  if Float.is_nan ratio then
    say "regress-check %-48s fresh %10.0f  (no prior %s)\n" label fresh none
  else
    say "regress-check %-48s fresh %10.0f  best %10.0f  ratio %.2f%s\n" label
      fresh best ratio
      (if fail then "  REGRESSION" else "");
  fail

(* A prior row counts only with a string metric and a numeric value:
   hand-edited, truncated or foreign rows are skipped rather than
   crashing the gate or poisoning the max. *)
let states_regressed ~prior fresh =
  let numeric =
    List.filter_map
      (fun v ->
        match (J.member "metric" v, J.member "value" v) with
        | Some (J.Str m), Some (J.Num x) -> Some (m, x)
        | _ -> None)
      prior
  in
  let malformed = List.length prior - List.length numeric in
  if malformed > 0 then
    say "regress-check: skipping %d malformed prior row(s)\n" malformed;
  List.fold_left
    (fun failed (dp : Experiments.datapoint) ->
      let best =
        List.fold_left
          (fun best (m, x) -> if m = dp.dp_metric then Float.max best x else best)
          neg_infinity numeric
      in
      let ratio = if best > 0.0 then dp.dp_value /. best else nan in
      check_line ~label:dp.dp_metric ~fresh:dp.dp_value ~best ~ratio
        ~fail:(ratio < Workload.Suite.threshold)
        ~none:"datapoint"
      || failed)
    false fresh

let record ?json ~check_regress ~modelcheck ~scorecards datapoints cards =
  let timestamp = Unix.time () in
  let row (dp : Experiments.datapoint) =
    let opt name = Option.fold ~none:[] ~some:(fun v -> [ (name, v) ]) in
    stamp ~timestamp
      ([
         ("experiment", J.Str dp.dp_exp);
         ("metric", J.Str dp.dp_metric);
         ("value", J.Num dp.dp_value);
       ]
      @ opt "engine" (Option.map (fun e -> J.Str e) dp.dp_engine)
      @ opt "wall_s" (Option.map (fun w -> J.Num w) dp.dp_wall_s))
  in
  Option.iter
    (fun path ->
      Workload.Suite.write_rows path (List.map row datapoints);
      say "wrote %d datapoint(s) to %s\n%!" (List.length datapoints) path)
    json;
  let checker =
    List.filter
      (fun (dp : Experiments.datapoint) ->
        List.mem dp.dp_exp [ "e11"; "e12"; "e14"; "e15" ])
      datapoints
  in
  let prior = append ~what:"datapoint" modelcheck (List.map row checker) in
  let card_row (card, extra) =
    match Workload.Scorecard.to_json card with
    | J.Obj fields -> stamp ~timestamp (fields @ extra)
    | j -> j
  in
  let cards_prior =
    append ~what:"scorecard" scorecards (List.map card_row cards)
  in
  let fresh =
    List.filter
      (fun (dp : Experiments.datapoint) ->
        String.ends_with ~suffix:"/states_per_sec" dp.dp_metric)
      checker
  in
  if not check_regress then 0
  else if fresh = [] && cards = [] then begin
    prerr_endline
      "--check-regress: the run recorded no e11/e12/e14/e15 states/sec \
       datapoints and no lock scorecards (include e11, e12, e13, e14, e15, \
       e16 or locks)";
    2
  end
  else begin
    let states_failed = states_regressed ~prior fresh in
    if states_failed then
      Printf.eprintf
        "bench: states/sec regressed >15%% against the best prior datapoint \
         in %s\n"
        modelcheck;
    (* Goodput must not drop and p99 must not inflate against the best
       prior scorecard of the same algo/domains/rate cell. *)
    let locks_failed =
      List.fold_left
        (fun failed (g : Workload.Suite.gate) ->
          check_line ~label:(g.g_key ^ "/" ^ g.g_metric) ~fresh:g.g_fresh
            ~best:g.g_best ~ratio:g.g_ratio ~fail:g.g_fail ~none:"scorecard"
          || failed)
        false
        (Workload.Suite.regress ~prior:cards_prior (List.map fst cards))
    in
    if locks_failed then
      Printf.eprintf
        "bench: lock goodput/p99 regressed >15%% against the best prior \
         scorecard in %s\n"
        scorecards;
    if states_failed || locks_failed then 1
    else begin
      say "regress-check: OK (every metric within 15%% of its best prior)\n";
      0
    end
  end
