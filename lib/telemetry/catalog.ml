(* Keep the list sorted by namespace so diffs read as namespace
   evolution.  '*' matches any non-empty run of characters. *)
let all =
  [
    (* bench harness *)
    "bench.*.wall_s";
    (* sequential explorer (Explore.run); the same record_finish path
       serves Par_explore under its own prefix below *)
    "explore.depth";
    "explore.distinct";
    "explore.frontier_depth";
    "explore.generated";
    "explore.kstates_s";
    "explore.live_distinct";
    "explore.live_generated";
    "explore.live_kstates_s";
    "explore.max_states";
    "explore.runtime_s";
    "explore.table_mb";
    "explore.twin_moves";
    "explore.wave_s";
    (* fuzz driver: one cases counter per oracle *)
    "fuzz.*.cases";
    "fuzz.failures";
    "fuzz.shrink_evals";
    (* GC gauges (Metrics.observe_gc) *)
    "gc.heap_mb";
    "gc.major_collections";
    "gc.minor_collections";
    (* lock zoo acquire-latency histograms (Locks.Latency.instrument) *)
    "lock.*.acquire_s";
    (* sharded parallel explorer *)
    "par_explore.batches_allocated";
    "par_explore.depth";
    "par_explore.distinct";
    "par_explore.fp_collisions";
    "par_explore.frontier_depth";
    "par_explore.generated";
    "par_explore.handoff_batches";
    "par_explore.handoff_states";
    "par_explore.idle_epochs";
    "par_explore.kstates_s";
    "par_explore.live_distinct";
    "par_explore.live_generated";
    "par_explore.live_idle_epochs";
    "par_explore.live_kstates_s";
    "par_explore.max_states";
    "par_explore.runtime_s";
    "par_explore.shard_occupancy_max";
    "par_explore.shard_occupancy_min";
    "par_explore.table_mb";
    "par_explore.twin_moves";
    (* schedsim runner *)
    "sim.crashes";
    "sim.cs_entries";
    "sim.fcfs_inversions";
    "sim.flickers";
    "sim.mutex_violations";
    "sim.overflow_events";
    "sim.steps";
  ]

(* Glob match where '*' is one-or-more characters.  Patterns are tiny
   (<= 3 segments), so naive backtracking is plenty. *)
let pattern_matches pat name =
  let np = String.length pat and nn = String.length name in
  let rec go i j =
    if i = np then j = nn
    else if pat.[i] = '*' then
      (* '*' must consume at least one character *)
      let rec try_len k = k <= nn && (go (i + 1) k || try_len (k + 1)) in
      try_len (j + 1)
    else j < nn && pat.[i] = name.[j] && go (i + 1) (j + 1)
  in
  go 0 0

let matches name = List.exists (fun p -> pattern_matches p name) all

(* A literal prefix fragment is covered if some pattern, truncated the
   same way, matches it — i.e. the pattern could generate a name that
   starts with the fragment.  Treating '*' as able to absorb the rest
   of the fragment keeps this a one-liner: match the fragment against
   every prefix of every pattern where the next pattern char (if any)
   is unconstrained. *)
let covers_prefix frag =
  let nf = String.length frag in
  List.exists
    (fun p ->
      let np = String.length p in
      let rec go i j =
        if j = nf then true
        else if i = np then false
        else if p.[i] = '*' then
          let rec try_len k = k <= nf && (go (i + 1) k || try_len (k + 1)) in
          try_len (j + 1)
        else p.[i] = frag.[j] && go (i + 1) (j + 1)
      in
      go 0 0)
    all

let covers_suffix frag =
  let rev s = String.init (String.length s) (fun i ->
      s.[String.length s - 1 - i])
  in
  let frag = rev frag in
  let nf = String.length frag in
  List.exists
    (fun p ->
      let p = rev p in
      let np = String.length p in
      let rec go i j =
        if j = nf then true
        else if i = np then false
        else if p.[i] = '*' then
          let rec try_len k = k <= nf && (go (i + 1) k || try_len (k + 1)) in
          try_len (j + 1)
        else p.[i] = frag.[j] && go (i + 1) (j + 1)
      in
      go 0 0)
    all
