(* The metric catalogue, failure accounting, and the result printer.

   The catalogue must list exactly the metrics of BENCHMARK.json with
   the same units; the smoke test in test/ holds the two together. *)

let end_to_end = [ ("verdict_s", "s"); ("peak_rss_mb", "MiB"); ("setup_s", "s") ]

let per_layer =
  [
    ("succ.self_ns_per_state", "ns");
    ("succ.moves_per_state", "count");
    ("regsem.flick_share", "ratio");
    ("reduce.canon_ns_per_call", "ns");
    ("reduce.canon_words_per_call", "words");
    ("reduce.ample_ns_per_state", "ns");
    ("store.probe_ns", "ns");
    ("store.insert_ns", "ns");
    ("store.read_ns", "ns");
    ("store.hit_share", "ratio");
    ("store.bytes_per_state", "B");
    ("fp.hash_ns", "ns");
    ("shard.insert_ns", "ns");
    ("shard.bytes_per_state", "B");
    ("par.handoff_share", "ratio");
    ("par.steals", "count");
    ("par.idle_epochs", "count");
    ("par.shard_imbalance", "ratio");
    ("par.busy_share", "ratio");
    ("par.speedup_vs_seq", "ratio");
    ("inv.ns_per_state", "ns");
    ("gc.minor_words_per_state", "words");
    ("gc.major_collections", "count");
    ("lock.acquire_ns", "ns");
    ("lock.release_ns", "ns");
    ("lock.pp_over_bakery", "ratio");
    ("lock.acquire_p50_us", "us");
    ("lock.acquire_p99_us", "us");
    ("lock.acquire_p999_us", "us");
    ("lock.acquire_max_us", "us");
    ("lock.jain", "ratio");
    ("lock.gate_spins_per_op", "count");
    ("lock.resets_per_op", "count");
    ("lock.peak_ticket", "count");
    ("lock.contended_ops_per_s", "1/s");
    ("lock.pressure_ops_per_s", "1/s");
    ("lock.pressure_gate_spins_per_op", "count");
    ("lock.pressure_resets_per_op", "count");
    ("host.calib_s", "s");
    ("trace.span_cost_ns", "ns");
    ("trace.attributed_share", "ratio");
    ("trace.replay_ratio", "ratio");
    ("trace.overhead", "ratio");
  ]

type t = {
  workload : string;
  mutable attempted : int;
  mutable failed : int;
  mutable values : (string * float) list;
}

let create workload = { workload; attempted = 0; failed = 0; values = [] }

(* Account one checked unit of work (a round, or a round's operations). *)
let check r ?(units = 1) ok what =
  r.attempted <- r.attempted + units;
  if not ok then begin
    r.failed <- r.failed + units;
    Printf.printf "# %s FAILED: %s\n%!" r.workload what
  end

let set r name v = r.values <- (name, v) :: List.remove_assoc name r.values

let note r fmt = Printf.ksprintf (fun s -> Printf.printf "# %s %s\n%!" r.workload s) fmt

(* Print every metric of the mode as "metric <name> <value> <unit>", then
   the result object as the last line; returns that line.  A per-layer
   metric the workload did not set is a layer it never runs, and reads
   0; an end-to-end metric must always be measured. *)
let emit r ~trace =
  let catalogue = if trace then per_layer else end_to_end in
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name catalogue) then
        failwith (Printf.sprintf "%s: metric %s is not in this mode's catalogue" r.workload name))
    r.values;
  let metrics =
    List.map
      (fun (name, unit) ->
        let v =
          match List.assoc_opt name r.values with
          | Some v when Float.is_finite v -> v
          | Some v -> failwith (Printf.sprintf "%s: %s = %g" r.workload name v)
          | None when trace -> 0.0
          | None -> failwith (Printf.sprintf "%s: %s was not measured" r.workload name)
        in
        Printf.printf "metric %s %.6g %s\n" name v unit;
        Printf.sprintf "\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}" name v unit)
      catalogue
  in
  let line =
    Printf.sprintf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}"
      (r.failed = 0 && r.attempted > 0) r.attempted r.failed (String.concat "," metrics)
  in
  print_endline line;
  line
