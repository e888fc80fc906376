let header sys =
  Printf.sprintf "Model checking %s (N=%d, M=%d)"
    (System.program sys).title (System.nprocs sys) (System.bound sys)

let pp_stats ppf (s : Explore.stats) =
  Format.fprintf ppf "%d states generated, %d distinct, depth %d, %.3fs"
    s.generated s.distinct s.depth s.runtime

let result sys ppf (r : Explore.result) =
  Format.fprintf ppf "@[<v>%s@," (header sys);
  (match r.outcome with
  | Explore.Pass -> Format.fprintf ppf "Invariants hold. %a@," pp_stats r.stats
  | Capacity ->
      Format.fprintf ppf
        "INCONCLUSIVE: state budget exhausted before the frontier emptied. %a@,"
        pp_stats r.stats
  | Deadlock { trace } ->
      Format.fprintf ppf "DEADLOCK reached. %a@," pp_stats r.stats;
      Format.fprintf ppf "%a" (Trace.pp sys) trace
  | Violation { invariant; trace } ->
      Format.fprintf ppf "VIOLATION of %s. %a@," invariant pp_stats r.stats;
      Format.fprintf ppf "%a" (Trace.pp sys) trace);
  Format.fprintf ppf "@]"

let to_string pp x =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  pp ppf x;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let result_string sys r = to_string (result sys) r

let refinement ~impl ~spec ppf (r : Refine.result) =
  Format.fprintf ppf "@[<v>Refinement check: %s refines %s (phase observation)@,"
    (System.program impl).title (System.program spec).title;
  if r.included then
    Format.fprintf ppf "%s: every implementation trace is a specification trace (%d pairs, %d spec states)@,"
      (if r.complete then "HOLDS" else "HOLDS UP TO BUDGET")
      r.impl_pairs r.spec_states
  else begin
    Format.fprintf ppf "FAILS: implementation trace with no matching specification run (%d pairs)@,"
      r.impl_pairs;
    match r.failure with
    | None -> ()
    | Some f ->
        Format.fprintf ppf "Unmatched observation: [%s]@,"
          (String.concat "; " (Array.to_list (Array.map string_of_int f.bad_obs)));
        Format.fprintf ppf "%a" (Trace.pp impl) f.impl_trace
  end;
  Format.fprintf ppf "@]"

let refinement_string ~impl ~spec r = to_string (refinement ~impl ~spec) r

let lasso sys ~victim ppf (r : Lasso.result) =
  Format.fprintf ppf "@[<v>Starvation lasso search in %s (N=%d, M=%d), victim = process %d@,"
    (System.program sys).title (System.nprocs sys) (System.bound sys) victim;
  Format.fprintf ppf "Explored: %a%s@," pp_stats r.stats
    (if r.complete then ""
     else " (state budget reached: only a BFS prefix of the graph)");
  (match r.witness with
  | None when not r.complete ->
      Format.fprintf ppf "INCONCLUSIVE: no lasso among the states explored.@,"
  | None -> Format.fprintf ppf "No starvation lasso: the victim cannot be parked forever.@,"
  | Some w ->
      Format.fprintf ppf
        "LASSO FOUND: victim parked while others entered the CS %d time(s) per cycle.@,"
        w.cs_entries_in_cycle;
      Format.fprintf ppf
        "Victim %s on the cycle (so the lasso is %s with weak fairness).@,"
        (if w.victim_continuously_enabled then "stays enabled"
         else "is intermittently disabled")
        (if w.victim_continuously_enabled then "inconsistent" else "consistent");
      Format.fprintf ppf "Prefix (%d states):@,%a@," (Trace.length w.prefix)
        (Trace.pp_compact sys) w.prefix;
      Format.fprintf ppf "Cycle (%d moves):@,%a" (Trace.length w.cycle)
        (Trace.pp_compact sys) w.cycle);
  Format.fprintf ppf "@]"

let lasso_string sys ~victim r = to_string (lasso sys ~victim) r
