(* The repository benchmark.

     run.exe --workload W --seed N [--seconds S] [--trace 0|1]
             [--trace-out FILE] [--json FILE] [--tiny]

   W is one of [workloads] or "all".  --trace 0 (the default) measures
   the end-to-end metrics untraced; --trace 1 is a separate run that
   measures the per-layer metrics and writes its spans as JSONL to
   --trace-out (default .bench_trace/W.jsonl).  Every metric is printed
   as "metric <name> <value> <unit>"; the last line of standard output
   is the result object, also written to --json when given.  --tiny
   shrinks every workload to smoke-test size.  The exit code is 0 only
   if every checked output matched.

   --round is internal: a checker workload runs each of its end-to-end
   rounds as "run.exe --workload W --round", a fresh process. *)

let workloads = [ "mc_atomic"; "mc_weak_par"; "mc_sym"; "lock_bakery_pp" ]

let usage () =
  prerr_endline
    "usage: run.exe --workload (mc_atomic|mc_weak_par|mc_sym|lock_bakery_pp|all) --seed N \
     [--seconds S] [--trace 0|1] [--trace-out FILE] [--json FILE] [--tiny]";
  exit 2

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  trace_out : string option;
  json : string option;
  tiny : bool;
  round : bool;
}

let parse argv =
  let rec go a = function
    | [] -> a
    | "--workload" :: w :: rest -> go { a with workload = w } rest
    | "--seed" :: s :: rest -> go { a with seed = int_of_string s } rest
    | "--seconds" :: s :: rest -> go { a with seconds = float_of_string s } rest
    | "--trace" :: ("0" | "1" as t) :: rest -> go { a with trace = t = "1" } rest
    | "--trace-out" :: f :: rest -> go { a with trace_out = Some f } rest
    | "--json" :: f :: rest -> go { a with json = Some f } rest
    | "--tiny" :: rest -> go { a with tiny = true } rest
    | "--round" :: rest -> go { a with round = true } rest
    | _ -> usage ()
  in
  let a =
    try
      go
        {
          workload = "";
          seed = 1;
          seconds = 20.0;
          trace = false;
          trace_out = None;
          json = None;
          tiny = false;
          round = false;
        }
        (List.tl (Array.to_list argv))
    with Failure _ -> usage ()
  in
  if a.workload <> "all" && not (List.mem a.workload workloads) then usage ();
  if not (a.seconds > 0.0) then usage ();
  a

let write_json path line =
  let oc = open_out path in
  output_string oc line;
  output_char oc '\n';
  close_out oc

let run_one a =
  let r = Sheet.create a.workload in
  let trace_out =
    Option.value a.trace_out ~default:(Filename.concat ".bench_trace" (a.workload ^ ".jsonl"))
  in
  (match a.workload with
  | "lock_bakery_pp" ->
      if a.trace then
        Lock.run_traced r ~tiny:a.tiny ~seconds:a.seconds ~seed:a.seed ~trace_out
          ~workload:a.workload
      else Lock.run r ~tiny:a.tiny ~seconds:a.seconds ~seed:a.seed
  | w ->
      let spec = Mc.spec ~tiny:a.tiny w in
      if a.trace then Mc.run_traced r spec ~tiny:a.tiny ~trace_out ~workload:w
      else
        Mc.run r spec ~seconds:a.seconds
          ~round_args:([ "--workload"; w; "--round" ] @ if a.tiny then [ "--tiny" ] else []));
  let line = Sheet.emit r ~trace:a.trace in
  Option.iter (fun f -> write_json f line) a.json;
  r.failed = 0 && r.attempted > 0

(* Each workload in a process of its own, so each gets its own peak RSS;
   their output is passed through, --json collects their result objects
   by workload, and each writes its trace to its default file. *)
let run_all a argv =
  let rec child_args w = function
    | "--workload" :: _ :: rest -> "--workload" :: w :: child_args w rest
    | ("--json" | "--trace-out") :: _ :: rest -> child_args w rest
    | x :: rest -> x :: child_args w rest
    | [] -> []
  in
  let results =
    List.map
      (fun w ->
        let lines, ok = Util.rerun (child_args w (List.tl (Array.to_list argv))) in
        List.iter print_endline lines;
        (w, (match List.rev lines with last :: _ -> last | [] -> "null"), ok))
      workloads
  in
  let ok = List.for_all (fun (_, _, ok) -> ok) results in
  Option.iter
    (fun f ->
      write_json f
        (Printf.sprintf "{%s}"
           (String.concat "," (List.map (fun (w, line, _) -> Printf.sprintf "\"%s\":%s" w line) results))))
    a.json;
  ok

let () =
  let a = parse Sys.argv in
  if a.round then Mc.round_child (Mc.spec ~tiny:a.tiny a.workload)
  else exit (if (if a.workload = "all" then run_all a Sys.argv else run_one a) then 0 else 1)
