type resolver = string -> nprocs:int -> Locks.Lock_intf.instance

let stat stats name = Option.value ~default:0 (List.assoc_opt name stats)

let run_cell (resolve : resolver) ?(shape = Shape.contended)
    ?(slo = Slo.default) ?virtual_bound ?(sample_interval_s = 1e-3) ?progress
    ?flight ~algo ~nprocs ~rate ~budget ~seed () =
  let inst = resolve algo ~nprocs in
  let live_ops = Atomic.make 0 in
  (* Shared with Openloop so the flight hook can read live acquire
     percentiles mid-run, not just the post-mortem stats. *)
  let registry = Telemetry.Metrics.create () in
  (* The flight recorder rides the same observatory sampler as the
     dashboard: one snapshot per poll, lock stats namespaced under the
     instance, registry histograms flattened by Recorder.of_metrics. *)
  let feed_flight =
    match flight with
    | None -> fun _ -> ()
    | Some recorder ->
        fun (s : Observatory.sample) ->
          (* Sampled every millisecond or so: the collection counts and
             heap size only, not the resident memory, which reads a
             file each time. *)
          Telemetry.Metrics.observe_gc ~resident:false registry;
          let named =
            List.map
              (fun (k, v) ->
                ( "lock." ^ inst.Locks.Lock_intf.instance_name ^ "." ^ k,
                  float_of_int v ))
              s.Observatory.stats
          in
          Obs.Recorder.record recorder
            (named
            @ [ ("ops", float_of_int (Atomic.get live_ops)) ]
            @ Obs.Recorder.of_metrics registry)
  in
  (* The dashboard rides the sampler domain: every poll offers a line to
     the rate-limited reporter, which emits at most one per interval. *)
  let dashboard =
    Option.map
      (fun prog (s : Observatory.sample) ->
        Telemetry.Progress.poll prog (fun () ->
            [
              ("algo", Telemetry.Json.Str algo);
              ("domains", Telemetry.Json.Num (float_of_int nprocs));
              ( "ops",
                Telemetry.Json.Num (float_of_int (Atomic.get live_ops)) );
              ( "peak_ticket",
                Telemetry.Json.Num
                  (float_of_int (stat s.Observatory.stats "peak_ticket")) );
              ( "resets",
                Telemetry.Json.Num
                  (float_of_int (stat s.Observatory.stats "resets")) );
            ]
            @ Telemetry.Metrics.gc_fields ()))
      progress
  in
  let on_sample =
    match (flight, dashboard) with
    | None, None -> None
    | _ ->
        Some
          (fun s ->
            feed_flight s;
            match dashboard with Some f -> f s | None -> ())
  in
  let obs =
    Observatory.start ~interval_s:sample_interval_s ?virtual_bound ?on_sample
      inst
  in
  let r =
    Openloop.run ~shape ~seed ~rate ~budget ~registry inst ~nprocs
      ~on_op:(fun () -> Atomic.incr live_ops)
  in
  let rep = Observatory.stop obs in
  let p99_ns = stat r.Openloop.lock_stats "acq_p99_ns" in
  let verdict = Slo.check slo ~offered:rate ~goodput:r.goodput ~p99_ns in
  {
    Scorecard.algo;
    nprocs;
    rate;
    ops = (match budget with Openloop.Ops n -> Some n | _ -> None);
    duration_s = (match budget with Openloop.Seconds d -> Some d | _ -> None);
    seed;
    sched_fp = r.sched_fp;
    issued = r.issued;
    completed = r.completed;
    behind = r.behind;
    abandoned = r.abandoned;
    goodput = r.goodput;
    p50_ns = stat r.lock_stats "acq_p50_ns";
    p95_ns = stat r.lock_stats "acq_p95_ns";
    p99_ns;
    p999_ns = stat r.lock_stats "acq_p999_ns";
    max_ns = stat r.lock_stats "acq_max_ns";
    max_stall_ns = Fairness.max_stall_ns r.entries;
    inversions = Fairness.inversions r.entries;
    jain = Fairness.jain r.per_domain;
    ring_dropped = r.ring_dropped;
    slo_pass = verdict.Slo.pass;
    slo_reasons = verdict.Slo.reasons;
    overflow =
      Option.map
        (fun vb ->
          {
            Scorecard.virtual_bound = vb;
            overflow_at_s = rep.Observatory.overflow_at_s;
            overflow_ticket = rep.Observatory.overflow_ticket;
            resets = rep.Observatory.resets;
            storms = rep.Observatory.storms;
            storm_max_s = rep.Observatory.storm_max_s;
          })
        virtual_bound;
  }

(* ------------------------------------------------- BENCH_locks.json *)

let load_rows path =
  match open_in path with
  | exception Sys_error _ -> Ok []
  | ic -> (
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      match Telemetry.Json.parse s with
      | Ok (Telemetry.Json.Arr vs) -> Ok vs
      | Ok _ -> Error (path ^ ": exists but is not a JSON array")
      | Error e -> Error (path ^ ": unparseable (" ^ e ^ ")"))

let write_rows path rows =
  let oc = open_out path in
  output_string oc "[\n";
  let last = List.length rows - 1 in
  List.iteri
    (fun i v ->
      Printf.fprintf oc "  %s%s\n"
        (Telemetry.Json.to_string v)
        (if i = last then "" else ","))
    rows;
  output_string oc "]\n";
  close_out oc

let append_rows path fresh =
  (* Read-merge-write: a malformed prior file is preserved nowhere, but
     the caller was warned by [load_rows]; an absent one is just empty
     history.  Never clobber parseable history. *)
  let prior = match load_rows path with Ok vs -> vs | Error _ -> [] in
  write_rows path (prior @ fresh)

(* ---------------------------------------------------- regress gate *)

type gate = {
  g_key : string;
  g_metric : string;
  g_fresh : float;
  g_best : float;  (** nan when no prior row matches *)
  g_ratio : float;  (** fresh-vs-best, oriented so < threshold is bad *)
  g_fail : bool;
}

let threshold = 0.85

let key_of ~algo ~nprocs ~rate = Printf.sprintf "%s/d%d/r%g" algo nprocs rate

let row_key j =
  let open Telemetry.Json in
  match (member "algo" j, member "domains" j, member "rate" j) with
  | Some (Str a), Some (Num d), Some (Num r) ->
      Some (key_of ~algo:a ~nprocs:(int_of_float d) ~rate:r)
  | _ -> None

let regress ~prior (cards : Scorecard.t list) =
  let prior_num key field ~better =
    List.fold_left
      (fun best j ->
        if row_key j <> Some key then best
        else
          match Telemetry.Json.(member field j) with
          | Some (Telemetry.Json.Num x) when x > 0.0 ->
              if Float.is_nan best then x else better best x
          | _ -> best)
      nan prior
  in
  List.concat_map
    (fun (c : Scorecard.t) ->
      let key = key_of ~algo:c.algo ~nprocs:c.nprocs ~rate:c.rate in
      let judge metric fresh best ~ratio =
        let r = if Float.is_nan best then nan else ratio fresh best in
        {
          g_key = key;
          g_metric = metric;
          g_fresh = fresh;
          g_best = best;
          g_ratio = r;
          g_fail = (not (Float.is_nan r)) && r < threshold;
        }
      in
      [
        (* Goodput: higher is better, gate on fresh/best. *)
        judge "goodput" c.goodput
          (prior_num key "goodput" ~better:Float.max)
          ~ratio:(fun fresh best -> fresh /. best);
        (* p99: lower is better, gate on best/fresh against the same
           threshold so one knob governs both directions.  The gate only
           arms once the fresh p99 exceeds the default SLO ceiling:
           below it, tail movement is bucket-resolution scheduler noise
           on a shared host (observed 200us..2ms across identical runs),
           and the best-prior comparison would ratchet down to the
           luckiest run ever recorded.  Past the ceiling the run is in
           pathology territory (livelock, reset storm, convoy) and the
           relative comparison is meaningful. *)
        judge "p99_ns"
          (float_of_int c.p99_ns)
          (prior_num key "p99_ns" ~better:Float.min)
          ~ratio:(fun fresh best ->
            if fresh <= float_of_int Slo.default.max_p99_ns then 1.0
            else best /. fresh);
      ])
    cards
