let throughput (r : Runner.result) =
  if r.steps = 0 then 0.0
  else float_of_int (Runner.total_cs r) /. float_of_int r.steps

let label_count (p : Mxlang.Ast.program) (r : Runner.result) name =
  let pc = ref (-1) in
  Array.iteri (fun i (s : Mxlang.Ast.step) -> if s.step_name = name then pc := i) p.steps;
  if !pc < 0 then raise Not_found;
  Array.fold_left (fun acc per_pid -> acc + per_pid.(!pc)) 0 r.label_counts

let cs_entry_times (r : Runner.result) =
  List.filter_map
    (function Event.Cs_enter { time; pid } -> Some (time, pid) | _ -> None)
    r.events

let max_overtakes (r : Runner.result) =
  let nprocs = Array.length r.cs_entries in
  let overtaken = Array.make nprocs (-1) in
  (* overtaken.(p) >= 0 while p waits: entries by others since p's
     doorway completed *)
  let best = ref 0 in
  List.iter
    (fun e ->
      match e with
      | Event.Doorway_done { pid; _ } -> overtaken.(pid) <- 0
      | Event.Cs_enter { pid; _ } ->
          if overtaken.(pid) >= 0 then begin
            if overtaken.(pid) > !best then best := overtaken.(pid);
            overtaken.(pid) <- -1
          end;
          for other = 0 to nprocs - 1 do
            if other <> pid && overtaken.(other) >= 0 then
              overtaken.(other) <- overtaken.(other) + 1
          done
      | Event.Crash { pid; _ } -> overtaken.(pid) <- -1
      | _ -> ())
    r.events;
  !best

let max_waiting_time (r : Runner.result) =
  let nprocs = Array.length r.cs_entries in
  let pending = Array.make nprocs (-1) in
  let best = ref 0 in
  List.iter
    (fun e ->
      match e with
      | Event.Doorway_done { time; pid } -> pending.(pid) <- time
      | Event.Cs_enter { time; pid } ->
          if pending.(pid) >= 0 then begin
            if time - pending.(pid) > !best then best := time - pending.(pid);
            pending.(pid) <- -1
          end
      | Event.Crash { pid; _ } -> pending.(pid) <- -1
      | _ -> ())
    r.events;
  !best
