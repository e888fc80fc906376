module Json = Telemetry.Json

type input = {
  flight_header : Json.t option;
  flight : Flight.sample list;
  metrics_header : Json.t option;
  metrics : Json.t list;
  events : Json.t list;
  bench : Json.t list;
}

let empty =
  {
    flight_header = None;
    flight = [];
    metrics_header = None;
    metrics = [];
    events = [];
    bench = [];
  }

type line = Sample of Flight.sample | Row of Json.t

let add_record input path =
  let module R = Telemetry.Record in
  (* A flight run's lines other than samples are passed over. *)
  let decode name j =
    match (name, Json.member "kind" j) with
    | R.Flight, Some (Json.Str "flight") ->
        Result.map (fun s -> Sample s) (Flight.sample_of_json j)
    | _ -> Ok (Row j)
  in
  let rows = List.filter_map (function Row j -> Some j | _ -> None) in
  Result.map
    (List.fold_left
       (fun input (run : line R.run) ->
         match run.name with
         | R.Flight ->
             {
               input with
               flight_header = Some run.header;
               flight =
                 List.filter_map
                   (function Sample s -> Some s | _ -> None)
                   run.body;
             }
         | R.Metrics ->
             {
               input with
               metrics_header = Some run.header;
               metrics = rows run.body;
             }
         | R.Events -> { input with events = rows run.body }
         | R.Trace -> assert false (* refused by [accept] *))
       input)
    (R.read ~accept:[ R.Events; R.Flight; R.Metrics ] ~decode path)

(* ------------------------------------------------------------ format *)

(* One float format for the whole report: integral values without a
   fractional part, everything else %.4g, NaN as "-".  Any drift here
   invalidates every golden file, which is the point — formatting *is*
   part of the output contract. *)
let fnum v =
  if Float.is_nan v then "-"
  else if Float.is_integer v && Float.abs v < 1e12 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.4g" v

let fpct v =
  if Float.is_nan v then "-"
  else if Float.is_finite v then Printf.sprintf "%+.1f%%" (100. *. v)
  else if v > 0. then "+inf%"
  else "-inf%"

let table buf header rows =
  let line cells = Buffer.add_string buf ("| " ^ String.concat " | " cells ^ " |\n") in
  line (List.map fst header);
  line (List.map snd header);
  List.iter line rows

let section buf title = Buffer.add_string buf ("\n## " ^ title ^ "\n\n")

(* ------------------------------------------------------------ pieces *)

let num_member name j =
  match Json.member name j with Some v -> Json.to_num v | None -> None

let str_member name j =
  match Json.member name j with Some v -> Json.to_str v | None -> None

(* Series whose sustained growth is a health problem, not progress:
   latency tails, heap size, major-GC pressure, open-loop backlog. *)
let watched name =
  let has sub =
    let n = String.length name and m = String.length sub in
    let rec go i = i + m <= n && (String.sub name i m = sub || go (i + 1)) in
    go 0
  in
  has "p99" || has "heap_mb" || has "major_collections" || has "behind"

(* Either engine's live progress. *)
let explorer_series = [ "explore.live_distinct"; "par_explore.live_distinct" ]

(* An explorer's heap holds its visited set and search log, so in a
   flight that carries explorer progress the heap's growth and the
   major collections it brings are the search's size, not drift. *)
let drift_findings samples =
  let names = Flight.names samples in
  let explorer = List.exists (fun n -> List.mem n names) explorer_series in
  let search_size name =
    explorer && (name = "gc.heap_mb" || name = "gc.major_collections")
  in
  names
  |> List.filter (fun name -> watched name && not (search_size name))
  |> List.map (fun name -> Analyze.drift ~metric:name (Flight.series samples name))

(* Either engine's live progress against the run's state budget, for a
   search that has not finished: [record_finish] writes the engine's
   final counters (its bare [distinct]), into the flight's last sample
   and the metrics snapshot alike. *)
let explorer_eta input =
  let samples = input.flight in
  let live =
    List.find_opt
      (fun n -> Array.length (Flight.series samples n) >= 2)
      explorer_series
  in
  match live with
  | None -> None
  | Some name -> (
      let engine =
        if String.length name >= 3 && String.sub name 0 3 = "par" then
          "par_explore"
        else "explore"
      in
      let final = engine ^ ".distinct" in
      let finished =
        List.mem final (Flight.names samples)
        || List.exists
             (fun row -> str_member "metric" row = Some final)
             input.metrics
      in
      if finished then None
      else
        match Flight.series samples (engine ^ ".max_states") with
        | [||] -> None
        | targets ->
            let target = targets.(Array.length targets - 1) in
            if target <= 0. || not (Float.is_finite target) then None
            else
              Analyze.eta ~target ~t:(Flight.times samples name)
                ~y:(Flight.series samples name)
              |> Option.map (fun e -> (name, target, e)))

let shard_stats samples =
  let occ_min = Flight.series samples "par_explore.shard_occupancy_min" in
  let occ_max = Flight.series samples "par_explore.shard_occupancy_max" in
  match Analyze.imbalance ~occ_min ~occ_max with
  | None -> None
  | Some ratio ->
      (* The live gauge during a run; the bare counter name only exists
         in a record that sampled past record_finish. *)
      let idle =
        match Flight.series samples "par_explore.live_idle_epochs" with
        | [||] -> Flight.series samples "par_explore.idle_epochs"
        | s -> s
      in
      let n = Array.length idle in
      Some (ratio, if n < 2 then None else Some (idle.(n - 1) -. idle.(0)))

(* Scorecard rows, generically: obs stays below workload in the dep
   graph, and the report only needs a handful of fields. *)
type card_row = {
  c_key : string;
  c_goodput : float;
  c_p99_ns : float;
  c_slo : bool option;
  c_extra : (string * string) list;  (* drift verdict columns, when present *)
}

let card_of_row j =
  match str_member "kind" j with
  | Some "lock_scorecard" -> (
      match
        (* "domains" is the cell's parallelism; "nprocs" would be the
           runmeta stamp (host cores) — not the same thing *)
        ( str_member "algo" j,
          num_member "domains" j,
          num_member "rate" j,
          num_member "goodput" j,
          num_member "p99_ns" j )
      with
      | Some algo, Some domains, Some rate, Some goodput, Some p99 ->
          let slo =
            match Json.member "slo_pass" j with
            | Some (Json.Bool b) -> Some b
            | _ -> None
          in
          let extra =
            List.filter_map
              (fun k ->
                Option.map (fun v -> (k, v)) (str_member k j))
              [ "drift_p99"; "drift_gc_heap" ]
          in
          Some
            {
              c_key =
                Printf.sprintf "%s/%.0fd/%.0f" algo domains rate;
              c_goodput = goodput;
              c_p99_ns = p99;
              c_slo = slo;
              c_extra = extra;
            }
      | _ -> None)
  | _ -> None

(* Group in first-seen key order; within a key, file order = time
   order, so the last row is "this run" and the best earlier goodput is
   the bar to clear. *)
let card_cells rows =
  let cards = List.filter_map card_of_row rows in
  let keys =
    List.fold_left
      (fun acc c -> if List.mem c.c_key acc then acc else c.c_key :: acc)
      [] cards
    |> List.rev
  in
  List.map
    (fun key ->
      let cell = List.filter (fun c -> c.c_key = key) cards in
      let n = List.length cell in
      let last = List.nth cell (n - 1) in
      let prior = List.filteri (fun i _ -> i < n - 1) cell in
      let best_prior =
        (* nan seed would poison Float.max (it propagates nan), so fold
           from the first positive prior instead *)
        match List.filter (fun c -> c.c_goodput > 0.) prior with
        | [] -> nan
        | p :: ps ->
            List.fold_left
              (fun acc c -> Float.max acc c.c_goodput)
              p.c_goodput ps
      in
      (key, last, best_prior))
    keys

(* ------------------------------------------------------------ render *)

let render input =
  let buf = Buffer.create 4096 in
  let findings = ref [] in
  let finding fmt = Printf.ksprintf (fun s -> findings := s :: !findings) fmt in

  let samples = input.flight in
  let names = Flight.names samples in
  let drifts = drift_findings samples in
  List.iter
    (fun (d : Analyze.drift) ->
      if d.verdict = Analyze.Rising then
        finding "drift: %s rising %s (%s -> %s)" d.metric
          (fpct d.change_frac) (fnum d.first) (fnum d.last))
    drifts;
  let shard = shard_stats samples in
  (match shard with
  | Some (ratio, _) when ratio > 4. ->
      finding "shards: worst occupancy imbalance %sx" (fnum ratio)
  | _ -> ());
  (* The snapshot is written at exit, so a run killed by a signal
     leaves its metrics run with a header and nothing after it. *)
  if input.metrics_header <> None && input.metrics = [] then
    finding "metrics: snapshot missing (the run ended without writing it)";
  let cells = card_cells input.bench in
  List.iter
    (fun (key, last, best_prior) ->
      (match last.c_slo with
      | Some false -> finding "scorecard %s: SLO fail" key
      | _ -> ());
      if (not (Float.is_nan best_prior)) && last.c_goodput < 0.85 *. best_prior
      then
        finding "scorecard %s: goodput %s vs best prior %s" key
          (fnum last.c_goodput) (fnum best_prior);
      List.iter
        (fun (k, v) ->
          if v = "rising" then finding "scorecard %s: %s %s" key k v)
        last.c_extra)
    cells;
  let findings = List.rev !findings in

  Buffer.add_string buf "# Run report\n";
  section buf "Summary";
  Buffer.add_string buf
    (if findings = [] then "- verdict: **OK**\n"
     else
       Printf.sprintf "- verdict: **ATTENTION** (%d finding%s)\n"
         (List.length findings)
         (if List.length findings = 1 then "" else "s"));
  (match samples with
  | [] -> ()
  | _ ->
      let span =
        (List.nth samples (List.length samples - 1)).Flight.at_s
        -. (List.hd samples).Flight.at_s
      in
      Buffer.add_string buf
        (Printf.sprintf "- flight: %d samples over %s s, %d series (schema %s)\n"
           (List.length samples) (fnum span) (List.length names)
           (match input.flight_header with
           | Some _ -> string_of_int Telemetry.Record.schema
           | None -> "?")));
  if input.metrics <> [] then
    Buffer.add_string buf
      (Printf.sprintf "- metrics snapshot: %d instruments\n"
         (List.length input.metrics));
  if input.events <> [] then
    Buffer.add_string buf
      (Printf.sprintf "- trace: %d events\n" (List.length input.events));
  if input.bench <> [] then
    Buffer.add_string buf
      (Printf.sprintf "- bench rows: %d (%d scorecard cells)\n"
         (List.length input.bench) (List.length cells));
  List.iter (fun f -> Buffer.add_string buf ("- finding: " ^ f ^ "\n")) findings;

  (* Time series *)
  if names <> [] then begin
    section buf "Time series";
    table buf
      [
        ("series", "---"); ("n", "--:"); ("min", "--:"); ("mean", "--:");
        ("max", "--:"); ("last", "--:"); ("trend", "---");
      ]
      (List.map
         (fun name ->
           let s = Flight.series samples name in
           let n = Array.length s in
           let finite = Array.to_list s |> List.filter Float.is_finite in
           let mn = List.fold_left Float.min infinity finite in
           let mx = List.fold_left Float.max neg_infinity finite in
           [
             name;
             string_of_int n;
             (if finite = [] then "-" else fnum mn);
             fnum (Series.mean s);
             (if finite = [] then "-" else fnum mx);
             (if n = 0 then "-" else fnum s.(n - 1));
             Series.sparkline s;
           ])
         names)
  end;

  (* Drift *)
  if drifts <> [] then begin
    section buf "Drift";
    table buf
      [
        ("series", "---"); ("verdict", "---"); ("first", "--:");
        ("last", "--:"); ("change", "--:");
      ]
      (List.map
         (fun (d : Analyze.drift) ->
           [
             d.metric;
             Analyze.verdict_to_string d.verdict;
             fnum d.first;
             fnum d.last;
             fpct d.change_frac;
           ])
         drifts)
  end;

  (* ETA *)
  (match explorer_eta input with
  | None -> ()
  | Some (name, target, (e : Analyze.eta)) ->
      section buf "Completion ETA";
      Buffer.add_string buf
        (Printf.sprintf
           "- %s at %s states/s over %d samples, target %s states\n" name
           (fnum e.rate) e.samples (fnum target));
      Buffer.add_string buf
        (Printf.sprintf "- remaining: %s s (band %s–%s s, rate ± 2·stderr)\n"
           (fnum e.remaining_s) (fnum e.lo_s)
           (if Float.is_finite e.hi_s then fnum e.hi_s else "∞")));

  (* Shard balance *)
  (match shard with
  | None -> ()
  | Some (ratio, idle) ->
      section buf "Shard balance";
      Buffer.add_string buf
        (Printf.sprintf "- worst occupancy imbalance: %sx\n" (fnum ratio));
      Option.iter
        (fun growth ->
          Buffer.add_string buf
            (Printf.sprintf "- idle epochs over record: %s\n" (fnum growth)))
        idle);

  (* Metrics snapshot: last row per metric name wins (the file appends
     across runs), then sorted by name. *)
  if input.metrics <> [] then begin
    let tbl = Hashtbl.create 64 in
    List.iter
      (fun row ->
        match str_member "metric" row with
        | Some name -> Hashtbl.replace tbl name (Json.member "value" row)
        | None -> ())
      input.metrics;
    let rows =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
      |> List.sort (fun (a, _) (b, _) -> compare a b)
    in
    if rows <> [] then begin
      section buf "Metrics snapshot";
      table buf
        [ ("metric", "---"); ("value", "---") ]
        (List.map
           (fun (name, v) ->
             let rendered =
               match v with
               | Some (Json.Num n) -> fnum n
               | Some (Json.Obj _ as o) -> (
                   (* histogram: show the tail, not the buckets *)
                   match
                     ( num_member "count" o, num_member "p50" o,
                       num_member "p99" o, num_member "p999" o )
                   with
                   | Some c, Some p50, Some p99, Some p999 ->
                       Printf.sprintf "n=%s p50=%s p99=%s p999=%s" (fnum c)
                         (fnum p50) (fnum p99) (fnum p999)
                   | _ -> Json.to_string o)
               | Some j -> Json.to_string j
               | None -> "-"
             in
             [ name; rendered ])
           rows)
    end
  end;

  (* Scorecards *)
  if cells <> [] then begin
    section buf "Scorecards";
    table buf
      [
        ("cell", "---"); ("goodput", "--:"); ("vs best prior", "--:");
        ("p99 (ms)", "--:"); ("slo", "---"); ("drift", "---");
      ]
      (List.map
         (fun (key, last, best_prior) ->
           [
             key;
             fnum last.c_goodput;
             (if Float.is_nan best_prior then "-"
              else fpct ((last.c_goodput -. best_prior) /. best_prior));
             fnum (last.c_p99_ns /. 1e6);
             (match last.c_slo with
             | Some true -> "pass"
             | Some false -> "FAIL"
             | None -> "-");
             (if last.c_extra = [] then "-"
              else
                String.concat " "
                  (List.map (fun (k, v) -> k ^ "=" ^ v) last.c_extra));
           ])
         cells)
  end;

  (* Events *)
  if input.events <> [] then begin
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun row ->
        let kind =
          match str_member "kind" row with Some k -> k | None -> "?"
        in
        Hashtbl.replace tbl kind
          (1 + Option.value ~default:0 (Hashtbl.find_opt tbl kind)))
      input.events;
    let rows =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
      |> List.sort (fun (a, _) (b, _) -> compare a b)
    in
    section buf "Trace events";
    table buf
      [ ("kind", "---"); ("events", "--:") ]
      (List.map (fun (k, v) -> [ k; string_of_int v ]) rows)
  end;
  Buffer.contents buf
