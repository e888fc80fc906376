(* Sharded level-synchronized parallel BFS.

   The whole pipeline is sharded by state fingerprint ({!Fingerprint}),
   not just successor generation, because deduplicating every candidate
   on one domain is an Amdahl bottleneck.  Domain [w] owns shard [w] of
   the visited set ({!Shard_table}): it is the only domain that inserts
   there, so deduplication runs with zero synchronization on the table
   itself.
   Within a BFS wave:

   - each domain drains its own work deque ({!Deque}) of frontier
     states (all owned by its shard), expanding successors into a
     scratch buffer exactly like the sequential engine — duplicates
     never allocate;
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
   - a domain whose deque runs dry flushes its partial batches, then
     steals a batch of frontier items from the head of another domain's
     deque — expansion is shard-agnostic, only insertion is owned;
   - the wave ends by quiescence: a global in-flight counter tracks
     unexpanded frontier items plus live hand-off batches; when it
     reaches zero no same-wave work can exist anywhere and every
     domain exits to the pool barrier.  Idle domains back off (spin,
     then sleep) and count idle epochs for telemetry.

   Nothing in that loop allocates per state or per move: frontier
   states sit unboxed in the deques' rings, batches are recycled, each
   domain's successor callback is built once per run, and the visited
   set probes without closures.

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
let steal_max = 64

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
  mutable d_generated : int;
  mutable d_inserts : int;
  mutable d_steals : int;  (* successful steal operations *)
  mutable d_steal_items : int;
  mutable d_batches : int;  (* hand-off batches flushed *)
  mutable d_allocated : int;  (* hand-off batches allocated *)
  mutable d_handoff : int;  (* states handed off *)
  mutable d_idle : int;  (* idle epochs (no work found) *)
  mutable d_violation_gid : int;
  mutable d_violation_inv : string;
  mutable d_deadlock_gid : int;
  mutable d_gid : int;  (* the state being expanded *)
  mutable d_rank : int;  (* the rank of its next move *)
  mutable d_any : bool;  (* has it shown a successor yet *)
  d_state : int array;  (* the state being expanded *)
  d_scratch : int array;  (* successor construction buffer *)
  d_probe : int array;  (* batch-drain probe buffer *)
  d_stolen : int array;  (* stolen frontier items, flat *)
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
  let canon = Reduce.canonizer red in
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
  let cur = ref (Array.init ndomains (fun _ -> Deque.create ~words)) in
  let nxt = ref (Array.init ndomains (fun _ -> Deque.create ~words)) in
  let inboxes = Array.init ndomains (fun _ -> Atomic.make no_batch) in
  let returns = Array.init ndomains (fun _ -> Atomic.make no_batch) in
  (* A batch entry: fingerprint, log word, state. *)
  let entry = words + 2 in
  let pending = Atomic.make 0 in
  let stop = Atomic.make false in
  let dstates =
    Array.init ndomains (fun _ ->
        {
          d_generated = 0;
          d_inserts = 0;
          d_steals = 0;
          d_steal_items = 0;
          d_batches = 0;
          d_allocated = 0;
          d_handoff = 0;
          d_idle = 0;
          d_violation_gid = -1;
          d_violation_inv = "";
          d_deadlock_gid = -1;
          d_gid = -1;
          d_rank = 0;
          d_any = false;
          d_state = Array.make words 0;
          d_scratch = Array.make words 0;
          d_probe = Array.make words 0;
          d_stolen = Array.make (steal_max * (words + 1)) 0;
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
  let total_generated () =
    Array.fold_left (fun acc d -> acc + d.d_generated) 1 dstates
  in
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
        add (counter m "par_explore.steals") (sum (fun d -> d.d_steals));
        add (counter m "par_explore.steal_items") (sum (fun d -> d.d_steal_items));
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
    Explore.record_finish ?progress ?metrics ~prefix:"par_explore" outcome
      stats;
    { Explore.outcome; stats }
  in
  let exception Stop of Explore.result in
  (* Probe-and-insert a candidate into shard [w] (caller must be its
     owning domain, or the main domain between waves).  [s] is a
     scratch buffer; the frontier deque copies it if the state is new. *)
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
      else if expand_ok s then Deque.push !nxt.(w) g s
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
  (* Domain [w]'s successor callback, built once per run: own-shard
     candidates insert directly, foreign ones are routed into
     batches. *)
  let emitter w =
    let d = dstates.(w) in
    fun ~pid:_ ~from_pc:_ ~alt:_ ~flick:_ ->
      d.d_any <- true;
      d.d_generated <- d.d_generated + 1;
      canon d.d_scratch;
      let fp = Shard_table.fingerprint tbl d.d_scratch in
      let o = Shard_table.owner tbl fp in
      let log = Explore.log_word ~parent:d.d_gid ~rank:d.d_rank in
      d.d_rank <- d.d_rank + 1;
      if o = w || !inline then insert_candidate o d ~fp ~log d.d_scratch
      else route w d o ~fp ~log d.d_scratch
  in
  let emitters = Array.init ndomains emitter in
  (* Expand one frontier state.  Decrementing [pending] comes last so
     the item's routed work is always counted before the item itself is
     retired. *)
  let expand w (d : dstate) gid (s : State.packed) =
    d.d_gid <- gid;
    d.d_rank <- 0;
    d.d_any <- false;
    (* [~only] would box its argument on every call. *)
    (match Reduce.ample red s with
    | -1 ->
        System.iter_successors_scratch sys s ~scratch:d.d_scratch emitters.(w)
    | only ->
        System.iter_successors_scratch ~only sys s ~scratch:d.d_scratch
          emitters.(w));
    if not d.d_any then begin
      if d.d_deadlock_gid < 0 then d.d_deadlock_gid <- gid;
      Atomic.set stop true
    end;
    Atomic.decr pending
  in
  let try_steal w (d : dstate) =
    let got = ref 0 in
    let v = ref ((w + 1) mod ndomains) in
    while !got = 0 && !v <> w do
      let n = Deque.steal !cur.(!v) ~into:d.d_stolen ~max:steal_max in
      if n > 0 then begin
        got := n;
        d.d_steals <- d.d_steals + 1;
        d.d_steal_items <- d.d_steal_items + n
      end
      else v := (!v + 1) mod ndomains
    done;
    !got
  in
  (* One domain's share of a wave, running until global quiescence:
     no unexpanded frontier item and no live hand-off batch anywhere. *)
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
        let gid = Deque.pop !cur.(w) d.d_state in
        if gid >= 0 then begin
          expand w d gid d.d_state;
          backoff := 0
        end
        else begin
          flush_all w d;
          let n = try_steal w d in
          if n > 0 then begin
            for k = 0 to n - 1 do
              let at = k * (words + 1) in
              Array.blit d.d_stolen (at + 1) d.d_state 0 words;
              expand w d d.d_stolen.(at) d.d_state
            done;
            backoff := 0
          end
          else if Atomic.get pending = 0 then running := false
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
  (* Small waves are cheaper expanded on the main domain. *)
  let inline_wave () =
    let d = dstates.(0) in
    inline := true;
    Array.iter
      (fun dq ->
        let gid = ref (Deque.pop dq d.d_state) in
        while !gid >= 0 do
          expand 0 d !gid d.d_state;
          gid := Deque.pop dq d.d_state
        done)
      !cur;
    inline := false
  in
  let frontier_size () =
    Array.fold_left (fun acc dq -> acc + Deque.length dq) 0 !cur
  in
  let wave_tick pool_for_stats frontier =
    (match metrics with
    | None -> ()
    | Some m ->
        (* Live gauges for the flight-recorder sampler, refreshed once
           per wave.  Steal/idle live values are gauges under live_*
           names because record_finish owns the bare names as
           counters. *)
        let set name v =
          Telemetry.Metrics.set (Telemetry.Metrics.gauge m name) v
        in
        set "par_explore.frontier_depth" (float_of_int frontier);
        set "par_explore.max_states" (float_of_int max_states);
        let elapsed = Telemetry.Clock.now_s () -. t0 in
        let generated = total_generated () in
        let mn, mx = Shard_table.occupancy tbl in
        set "par_explore.live_generated" (float_of_int generated);
        set "par_explore.live_distinct"
          (float_of_int (Shard_table.total tbl));
        set "par_explore.live_kstates_s"
          (if elapsed > 0.0 then float_of_int generated /. elapsed /. 1e3
           else 0.0);
        set "par_explore.shard_occupancy_min" (float_of_int mn);
        set "par_explore.shard_occupancy_max" (float_of_int mx);
        set "par_explore.live_steals"
          (float_of_int
             (Array.fold_left (fun a d -> a + d.d_steals) 0 dstates));
        set "par_explore.live_idle_epochs"
          (float_of_int
             (Array.fold_left (fun a d -> a + d.d_idle) 0 dstates));
        set "par_explore.table_mb"
          (float_of_int (Shard_table.memory_bytes tbl) /. 1048576.0));
    match progress with
    | None -> ()
    | Some p ->
        let fields () =
          let elapsed = Telemetry.Clock.now_s () -. t0 in
          let generated = total_generated () in
          let mn, mx = Shard_table.occupancy tbl in
          let base =
            [
              ("depth", Telemetry.Json.Num (float_of_int !depth));
              ("generated", Telemetry.Json.Num (float_of_int generated));
              ( "distinct",
                Telemetry.Json.Num (float_of_int (Shard_table.total tbl)) );
              ("frontier", Telemetry.Json.Num (float_of_int frontier));
              ("domains", Telemetry.Json.Num (float_of_int ndomains));
              ( "kstates_s",
                Telemetry.Json.Num
                  (if elapsed > 0.0 then
                     float_of_int generated /. elapsed /. 1e3
                   else 0.0) );
              ("shard_min", Telemetry.Json.Num (float_of_int mn));
              ("shard_max", Telemetry.Json.Num (float_of_int mx));
              ( "steals",
                Telemetry.Json.Num
                  (float_of_int
                     (Array.fold_left (fun a d -> a + d.d_steals) 0 dstates))
              );
              ( "table_mb",
                Telemetry.Json.Num
                  (float_of_int (Shard_table.memory_bytes tbl) /. 1048576.0) );
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
                    Telemetry.Json.Num (Float.min 1.0 (Float.max 0.0 frac)))
                  busy
              in
              last_busy := busy;
              last_wall := wall;
              let total =
                Array.fold_left
                  (fun acc v ->
                    match v with Telemetry.Json.Num f -> acc +. f | _ -> acc)
                  0.0 fractions
              in
              base
              @ [
                  ( "pool_busy",
                    Telemetry.Json.Num
                      (total /. float_of_int (Array.length fractions)) );
                  ("domain_busy", Telemetry.Json.Arr (Array.to_list fractions));
                ]
        in
        Telemetry.Progress.poll p fields
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
    canon init;
    dstates.(0).d_generated <- 0;
    (* [total_generated] seeds the sum with 1 for the initial state. *)
    let fp = Shard_table.fingerprint tbl init in
    let o = Shard_table.owner tbl fp in
    let log = Explore.log_word ~parent:(-1) ~rank:0 in
    insert_candidate o dstates.(0) ~fp ~log init;
    (* The initial insert pushed into [nxt]: promote it to the first
       frontier. *)
    let tmp = !cur in
    cur := !nxt;
    nxt := tmp;
    post_wave ();
    let n = ref (frontier_size ()) in
    while !n > 0 do
      Atomic.set pending !n;
      if !n < 2 || ndomains = 1 then inline_wave () else run_wave worker;
      post_wave ();
      let tmp = !cur in
      cur := !nxt;
      nxt := tmp;
      n := frontier_size ();
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
