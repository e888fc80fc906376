(* Sharded level-synchronized parallel BFS.

   The whole pipeline is sharded by state fingerprint ({!Fingerprint}),
   not just successor generation, because deduplicating every candidate
   on one domain is an Amdahl bottleneck.  Domain [w] owns shard [w] of
   the visited set ({!Shard_table}): it is the only domain that inserts
   there, and the only one that reads the shard's states back during a
   wave, so the table needs no synchronization at all.
   Within a BFS wave:

   - each domain expands only its own shard's frontier: the range of
     shard-local ids stored there during the previous wave (ids count
     up in insertion order), so no word per state and no lock.  It
     takes the top id, decodes that state from its shard into a buffer
     and expands it through {!Reduce.expand} into a scratch buffer
     exactly like the sequential engine — duplicates never allocate;
   - a successor owned by the expanding domain is probed and inserted
     directly; one owned by another shard is appended to a per-
     destination batch and handed off [batch_cap] states at a time (one
     CAS onto the owner's inbox per batch, not per state);
   - a domain drains its inbox as batches arrive, before it takes its
     next frontier state, so handed-off states are inserted while their
     batch is still in cache; each drained batch goes back onto the
     return list of the domain that allocated it (the same CAS push);
   - a domain that needs an empty batch takes one from its free list,
     refilled from its whole return list with one [Atomic.exchange]
     when it runs out, and allocates only when both are empty — so the
     batches in existence are bounded by those in flight, not by how
     unevenly the hand-off traffic runs between domains;
   - a domain whose frontier runs dry flushes its partial batches and
     keeps draining its inbox until the wave ends;
   - the wave ends by quiescence: a global in-flight counter tracks
     unexpanded frontier states plus live hand-off batches; when it
     reaches zero no same-wave work can exist anywhere and every
     domain exits to the pool barrier.  Idle domains back off (spin,
     then sleep) and count idle epochs for telemetry.

   Nothing in that loop allocates per state or per move: batches are
   recycled, each domain's expander is built once per run, and the
   visited set probes without closures.

   Waves are still globally synchronized, which is what keeps the
   engine's observable semantics bit-identical to {!Explore.run} (the
   property the fuzz seq-vs-par oracle pins): states inserted during
   wave [d] are exactly the BFS level [d+1], so [distinct], [generated]
   and [depth] all match the sequential engine on a Pass, and a
   violation is still reported with a shortest counterexample.

   Each shard logs one {!Explore.log_word} per state it inserts, and
   {!Explore.trace_of} replays those logs into counterexamples, as it
   does for every explorer, checking each rebuilt state against the
   one its shard stored. *)

let batch_cap = 64

(* One hand-off batch: up to [batch_cap] candidates, each stored flat
   as its fingerprint, log word and state.  [b_owner] is the domain
   that allocated it, and the only one that fills it.  A batch is being
   filled, waiting in the inbox of the shard it was filled for, on its
   owner's return list or on its owner's free list, linked through
   [b_next] in the last three cases. *)
type batch = {
  b_data : int array;
  b_owner : int;
  mutable b_n : int;
  mutable b_next : batch;
}

let rec no_batch = { b_data = [||]; b_owner = -1; b_n = 0; b_next = no_batch }

(* Push [b] onto an inbox or a return list: a lock-free push; the
   list's domain takes the whole list at once with [Atomic.exchange]. *)
let rec publish list b =
  let head = Atomic.get list in
  b.b_next <- head;
  if not (Atomic.compare_and_set list head b) then publish list b

(* Per-domain mutable state.  Written only by its domain during a wave;
   read by the main domain after the pool barrier. *)
type dstate = {
  mutable d_inserts : int;
  mutable d_batches : int;  (* hand-off batches flushed *)
  mutable d_allocated : int;  (* hand-off batches allocated *)
  mutable d_handoff : int;  (* states handed off *)
  mutable d_idle : int;  (* idle epochs (no work found) *)
  mutable d_violation_gid : int;
  mutable d_violation_inv : string;
  mutable d_deadlock_gid : int;
  mutable d_gid : int;  (* the state being expanded *)
  (* Its shard's frontier: this wave expands the local ids in
     [d_base .. d_top - 1], from the top down.  The next wave's ids
     begin at [d_end], and [d_next] counts those that will expand. *)
  mutable d_base : int;
  mutable d_top : int;
  mutable d_end : int;
  mutable d_next : int;
  d_state : int array;  (* the state being expanded *)
  d_scratch : int array;  (* successor construction buffer *)
  d_probe : int array;  (* batch-drain probe buffer *)
  d_out : batch array;
      (* outgoing batch per destination shard, [no_batch] while empty *)
  mutable d_free : batch;  (* own batches back from their drainers *)
  d_staged : (string * (State.packed -> bool)) array;
}

let run ?invariants ?constraint_ ?(max_states = 5_000_000) ?domains ?pool
    ?hash ?(reduce = Reduce.Off) ?progress ?metrics sys =
  let invariants =
    match invariants with
    | Some l -> l
    | None -> [ Invariant.mutex; Invariant.no_overflow ]
  in
  (* Same gate as the sequential engine: a custom invariant the
     reduction cannot certify as pc/shared-only turns it off wholesale. *)
  let red =
    if reduce = Reduce.Off || Reduce.invariants_reducible invariants then
      Reduce.make reduce sys
    else Reduce.make Reduce.Off sys
  in
  let ndomains =
    match (pool, domains) with
    | Some p, _ -> Pool.size p
    | None, Some d when d >= 1 -> d
    | None, Some _ -> invalid_arg "Par_explore.run: domains must be >= 1"
    | None, None -> min 8 (Domain.recommended_domain_count ())
  in
  let t0 = Telemetry.Clock.now_s () in
  let lay = System.layout sys in
  let words = lay.State.words in
  let tbl =
    Shard_table.create ?hash ~mode:Shard_table.Exact ~nshards:ndomains ~words ()
  in
  (* Per-shard search log, one log word per local id. *)
  let logs = Array.init ndomains (fun _ -> Vec.create ()) in
  let inboxes = Array.init ndomains (fun _ -> Atomic.make no_batch) in
  let returns = Array.init ndomains (fun _ -> Atomic.make no_batch) in
  (* A batch entry: fingerprint, log word, state. *)
  let entry = words + 2 in
  let pending = Atomic.make 0 in
  let stop = Atomic.make false in
  let dstates =
    Array.init ndomains (fun _ ->
        {
          d_inserts = 0;
          d_batches = 0;
          d_allocated = 0;
          d_handoff = 0;
          d_idle = 0;
          d_violation_gid = -1;
          d_violation_inv = "";
          d_deadlock_gid = -1;
          d_gid = -1;
          d_base = 0;
          d_top = 0;
          d_end = 0;
          d_next = 0;
          d_state = Array.make words 0;
          d_scratch = Array.make words 0;
          d_probe = Array.make words 0;
          d_out = Array.make ndomains no_batch;
          d_free = no_batch;
          d_staged =
            Array.of_list
              (List.map
                 (fun inv -> (inv.Invariant.name, Invariant.stage inv sys))
                 invariants);
        })
  in
  let expand_ok s =
    match constraint_ with None -> true | Some c -> c sys s
  in
  let depth = ref 0 in
  (* The shards' states check the replayed traces. *)
  let at f gid =
    let shard = Shard_table.shard_of_gid tbl gid in
    f ~shard (Shard_table.local_of_gid tbl gid)
  in
  let trace =
    Explore.trace_of sys red
      ~log:(at (fun ~shard -> Vec.get logs.(shard)))
      ~stored:(at (Shard_table.get tbl))
  in
  let exception Stop of Explore.result in
  (* Probe-and-insert a candidate into shard [w] (caller must be its
     owning domain, or the main domain between waves).  [s] is a
     scratch buffer; a new state joins the next frontier, and counts in
     [d_next] if the constraint lets it expand. *)
  let insert_candidate w (d : dstate) ~fp ~log (s : State.packed) =
    let local = Shard_table.insert tbl ~shard:w ~fp s in
    if local >= 0 then begin
      let g = Shard_table.gid tbl ~shard:w ~local in
      ignore (Vec.push logs.(w) log);
      d.d_inserts <- d.d_inserts + 1;
      (* Soft capacity check: exact accounting happens at the wave
         barrier; this just stops a runaway wave early.  [total] reads
         other shards' counters racily — good enough for a cutoff. *)
      if d.d_inserts land 255 = 0 && Shard_table.total tbl > max_states then
        Atomic.set stop true;
      let staged = d.d_staged in
      let k = ref 0 in
      while !k < Array.length staged && snd (Array.unsafe_get staged !k) s do
        incr k
      done;
      if !k < Array.length staged then begin
        if d.d_violation_gid < 0 then begin
          d.d_violation_gid <- g;
          d.d_violation_inv <- fst staged.(!k)
        end;
        Atomic.set stop true
      end
      else if expand_ok s then
        dstates.(w).d_next <- dstates.(w).d_next + 1
    end
  in
  (* An empty batch for domain [w] to fill: from its free list, which
     when empty takes the whole of [w]'s return list at once, and
     allocated only when that is empty too. *)
  let take_free w (d : dstate) =
    if d.d_free == no_batch then
      d.d_free <- Atomic.exchange returns.(w) no_batch;
    let b = d.d_free in
    if b == no_batch then begin
      d.d_allocated <- d.d_allocated + 1;
      {
        b_data = Array.make (batch_cap * entry) 0;
        b_owner = w;
        b_n = 0;
        b_next = no_batch;
      }
    end
    else begin
      d.d_free <- b.b_next;
      b.b_next <- no_batch;
      b
    end
  in
  (* Flush domain [w]'s outgoing batch for shard [o].  The batch was
     counted in [pending] when its first state arrived, so publishing
     it transfers that debt to the draining owner. *)
  let flush (d : dstate) o =
    let b = d.d_out.(o) in
    if b != no_batch then begin
      publish inboxes.(o) b;
      d.d_batches <- d.d_batches + 1;
      d.d_handoff <- d.d_handoff + b.b_n;
      d.d_out.(o) <- no_batch
    end
  in
  let flush_all w d =
    for o = 0 to ndomains - 1 do
      if o <> w then flush d o
    done
  in
  let route w (d : dstate) o ~fp ~log (s : State.packed) =
    (* A batch going live is in-flight work: count it before it becomes
       visible so [pending] can never transiently hit zero while states
       sit in a partial buffer. *)
    if d.d_out.(o) == no_batch then begin
      d.d_out.(o) <- take_free w d;
      Atomic.incr pending
    end;
    let b = d.d_out.(o) in
    let at = b.b_n * entry in
    b.b_data.(at) <- fp;
    b.b_data.(at + 1) <- log;
    Array.blit s 0 b.b_data (at + 2) words;
    b.b_n <- b.b_n + 1;
    if b.b_n = batch_cap then flush d o
  in
  (* Insert every candidate of domain [w]'s inbox, and hand each batch
     back to the domain that allocated it.  Each drained batch retires
     its [pending] count. *)
  let drain w (d : dstate) =
    let b = ref (Atomic.exchange inboxes.(w) no_batch) in
    while !b != no_batch do
      let batch = !b in
      let data = batch.b_data in
      for k = 0 to batch.b_n - 1 do
        let at = k * entry in
        Array.blit data (at + 2) d.d_probe 0 words;
        insert_candidate w d ~fp:data.(at) ~log:data.(at + 1) d.d_probe
      done;
      b := batch.b_next;
      batch.b_n <- 0;
      publish returns.(batch.b_owner) batch;
      Atomic.decr pending
    done
  in
  (* While the main domain expands a small wave alone, every candidate
     goes straight into its owner's shard: no worker runs, so there is
     no concurrent writer. *)
  let inline = ref false in
  (* Domain [w]'s expander, built once per run: own-shard successors
     insert directly, foreign ones are routed into batches. *)
  let expander w =
    let d = dstates.(w) in
    Reduce.expander red ~iter:(System.iter_successors_between sys)
      ~scratch:d.d_scratch (fun rank ->
        let fp = Shard_table.fingerprint tbl d.d_scratch in
        let o = Shard_table.owner tbl fp in
        let log = Explore.log_word ~parent:d.d_gid ~rank in
        if o = w || !inline then insert_candidate o d ~fp ~log d.d_scratch
        else route w d o ~fp ~log d.d_scratch)
  in
  let expanders = Array.init ndomains expander in
  let sum_expanders f = Array.fold_left (fun acc x -> acc + f x) 0 expanders in
  (* The initial state, then every move counted. *)
  let total_generated () = 1 + sum_expanders Reduce.generated in
  let finish outcome =
    let stats =
      {
        Explore.generated = total_generated ();
        distinct = Shard_table.total tbl;
        depth = !depth;
        runtime = Telemetry.Clock.now_s () -. t0;
      }
    in
    (match metrics with
    | None -> ()
    | Some m ->
        let open Telemetry.Metrics in
        let sum f = Array.fold_left (fun acc d -> acc + f d) 0 dstates in
        add (counter m "par_explore.handoff_batches") (sum (fun d -> d.d_batches));
        add (counter m "par_explore.batches_allocated")
          (sum (fun d -> d.d_allocated));
        add (counter m "par_explore.handoff_states") (sum (fun d -> d.d_handoff));
        add (counter m "par_explore.idle_epochs") (sum (fun d -> d.d_idle));
        add (counter m "par_explore.fp_collisions") (Shard_table.collisions tbl);
        let mn, mx = Shard_table.occupancy tbl in
        set (gauge m "par_explore.shard_occupancy_min") (float_of_int mn);
        set (gauge m "par_explore.shard_occupancy_max") (float_of_int mx);
        set (gauge m "par_explore.table_mb")
          (float_of_int (Shard_table.memory_bytes tbl) /. 1048576.0));
    Explore.record_finish ?progress ?metrics ~prefix:"par_explore"
      ~twin_moves:(sum_expanders Reduce.twin_moves) outcome stats;
    { Explore.outcome; stats }
  in
  (* Expand one frontier state.  Decrementing [pending] comes last so
     the item's routed work is always counted before the item itself is
     retired. *)
  let expand w (d : dstate) gid (s : State.packed) =
    d.d_gid <- gid;
    if Reduce.expand expanders.(w) s = 0 then begin
      if d.d_deadlock_gid < 0 then d.d_deadlock_gid <- gid;
      Atomic.set stop true
    end;
    Atomic.decr pending
  in
  (* Pop the top of shard [w]'s frontier: decode its state into
     [d.d_state] and return its gid, or [-1] once the shard's frontier
     is spent.  A state the constraint keeps from expanding is passed
     over, as [insert_candidate] left it out of [d_next].  The cursor
     is [w]'s own: during a wave only domain [w] pops shard [w], and an
     inline wave, which runs on the main domain alone, pops every shard
     in turn. *)
  let pop w (d : dstate) =
    let c = dstates.(w) in
    let gid = ref (-1) in
    while !gid < 0 && c.d_top > c.d_base do
      c.d_top <- c.d_top - 1;
      Shard_table.read_into tbl ~shard:w c.d_top d.d_state;
      if expand_ok d.d_state then gid := Shard_table.gid tbl ~shard:w ~local:c.d_top
    done;
    !gid
  in
  (* One domain's share of a wave, running until global quiescence:
     no unexpanded frontier state and no live hand-off batch anywhere. *)
  let work w =
    let d = dstates.(w) in
    let inbox = inboxes.(w) in
    let backoff = ref 0 in
    let running = ref true in
    while !running do
      if Atomic.get stop then running := false
      else if Atomic.get inbox != no_batch then begin
        drain w d;
        backoff := 0
      end
      else
        let gid = pop w d in
        if gid >= 0 then begin
          expand w d gid d.d_state;
          backoff := 0
        end
        else begin
          flush_all w d;
          if Atomic.get pending = 0 then running := false
          else begin
            (* Idle epoch: out of local work but the wave is not over.
               Spin briefly (multicore: the gap is ns), then sleep
               (single-core: yield the CPU to whoever holds the work). *)
            d.d_idle <- d.d_idle + 1;
            incr backoff;
            if !backoff <= 32 then Domain.cpu_relax ()
            else Unix.sleepf (Float.min 0.001 (1e-5 *. float_of_int !backoff))
          end
        end
    done
  in
  (* A domain that raises (a weak read feeding an out-of-range index
     raises [Eval.Error], say) never retires its item, so the others
     would wait for quiescence forever: stop them, and let the pool
     re-raise. *)
  let worker w =
    match work w with
    | () -> ()
    | exception e ->
        Atomic.set stop true;
        raise e
  in
  (* Small waves are cheaper expanded on the main domain, shard by
     shard. *)
  let inline_wave () =
    let d = dstates.(0) in
    inline := true;
    for w = 0 to ndomains - 1 do
      let gid = ref (pop w d) in
      while !gid >= 0 do
        expand 0 d !gid d.d_state;
        gid := pop w d
      done
    done;
    inline := false
  in
  (* Make the states each shard stored during the last wave its
     frontier, and return how many of them will expand. *)
  let next_wave () =
    let n = ref 0 in
    for w = 0 to ndomains - 1 do
      let c = dstates.(w) in
      c.d_base <- c.d_end;
      c.d_end <- Shard_table.length tbl ~shard:w;
      c.d_top <- c.d_end;
      n := !n + c.d_next;
      c.d_next <- 0
    done;
    !n
  in
  (* Live values, read once per wave and shared by the gauges and the
     progress line. *)
  let wave_tick pool_for_stats frontier =
    if Option.is_some metrics || Option.is_some progress then begin
      let elapsed = Telemetry.Clock.now_s () -. t0 in
      let generated = float_of_int (total_generated ()) in
      let distinct = float_of_int (Shard_table.total tbl) in
      let kstates_s =
        if elapsed > 0.0 then generated /. elapsed /. 1e3 else 0.0
      in
      let mn, mx = Shard_table.occupancy tbl in
      let mn = float_of_int mn and mx = float_of_int mx in
      let table_mb =
        float_of_int (Shard_table.memory_bytes tbl) /. 1048576.0
      in
      (match metrics with
      | None -> ()
      | Some m ->
          (* Live gauges for the flight-recorder sampler.  The idle
             count is a gauge under a live_* name because record_finish
             owns the bare name as a counter. *)
          let set name v =
            Telemetry.Metrics.set (Telemetry.Metrics.gauge m name) v
          in
          set "par_explore.frontier_depth" (float_of_int frontier);
          set "par_explore.max_states" (float_of_int max_states);
          set "par_explore.live_generated" generated;
          set "par_explore.live_distinct" distinct;
          set "par_explore.live_kstates_s" kstates_s;
          set "par_explore.shard_occupancy_min" mn;
          set "par_explore.shard_occupancy_max" mx;
          set "par_explore.live_idle_epochs"
            (float_of_int
               (Array.fold_left (fun a d -> a + d.d_idle) 0 dstates));
          set "par_explore.table_mb" table_mb);
      match progress with
      | None -> ()
      | Some p ->
          let fields () =
            let base =
              List.map
                (fun (k, v) -> (k, Telemetry.Json.Num v))
                [
                  ("depth", float_of_int !depth);
                  ("generated", generated);
                  ("distinct", distinct);
                  ("frontier", float_of_int frontier);
                  ("domains", float_of_int ndomains);
                  ("kstates_s", kstates_s);
                  ("shard_min", mn);
                  ("shard_max", mx);
                  ("table_mb", table_mb);
                ]
            in
            match pool_for_stats with
            | None -> base
            | Some (pl, last_busy, last_wall) ->
                let busy = Pool.busy_ns pl in
                let wall = Telemetry.Clock.now_s () in
                let dt = wall -. !last_wall in
                let fractions =
                  Array.mapi
                    (fun i b ->
                      let frac =
                        if dt > 0.0 then
                          float_of_int (b - !last_busy.(i)) /. (dt *. 1e9)
                        else 0.0
                      in
                      Float.min 1.0 (Float.max 0.0 frac))
                    busy
                in
                last_busy := busy;
                last_wall := wall;
                let total = Array.fold_left ( +. ) 0.0 fractions in
                base
                @ [
                    ( "pool_busy",
                      Telemetry.Json.Num
                        (total /. float_of_int (Array.length fractions)) );
                    ( "domain_busy",
                      Telemetry.Json.Arr
                        (Array.to_list
                           (Array.map (fun f -> Telemetry.Json.Num f) fractions))
                    );
                  ]
          in
          Telemetry.Progress.poll p fields
    end
  in
  (* After each wave barrier, turn per-domain records into an outcome.
     Violation wins over deadlock (both are one-wave-nondeterministic
     between domains anyway; the choice is fixed for reproducibility),
     then capacity, by exact count. *)
  let post_wave () =
    Array.iter
      (fun (d : dstate) ->
        if d.d_violation_gid >= 0 then
          raise
            (Stop
               (finish
                  (Explore.Violation
                     {
                       invariant = d.d_violation_inv;
                       trace = trace d.d_violation_gid;
                     }))))
      dstates;
    Array.iter
      (fun (d : dstate) ->
        if d.d_deadlock_gid >= 0 then
          raise (Stop (finish (Explore.Deadlock { trace = trace d.d_deadlock_gid }))))
      dstates;
    if Shard_table.total tbl > max_states then
      raise (Stop (finish Explore.Capacity))
  in
  let search ?stats_pool run_wave =
    let pool_for_stats =
      match stats_pool with
      | None -> None
      | Some pl ->
          Some (pl, ref (Pool.busy_ns pl), ref (Telemetry.Clock.now_s ()))
    in
    let init = System.initial sys in
    Reduce.canonizer red init;
    let fp = Shard_table.fingerprint tbl init in
    let o = Shard_table.owner tbl fp in
    let log = Explore.log_word ~parent:(-1) ~rank:0 in
    insert_candidate o dstates.(0) ~fp ~log init;
    (* The initial state is the first frontier. *)
    let n = ref (next_wave ()) in
    post_wave ();
    while !n > 0 do
      Atomic.set pending !n;
      if !n < 2 || ndomains = 1 then inline_wave () else run_wave worker;
      post_wave ();
      n := next_wave ();
      if !n > 0 then incr depth;
      wave_tick pool_for_stats !n
    done;
    finish Explore.Pass
  in
  try
    match pool with
    | Some p -> search ~stats_pool:p (fun job -> Pool.run p job)
    | None ->
        if ndomains = 1 then search (fun job -> job 0)
        else
          Pool.with_pool ndomains (fun p ->
              search ~stats_pool:p (fun job -> Pool.run p job))
  with Stop r -> r
