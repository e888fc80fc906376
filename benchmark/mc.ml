(* The model-checking workloads: untraced rounds of the library engines
   for the end-to-end numbers, and a traced replay of the engines'
   per-state pipeline for the per-layer numbers. *)

open Modelcheck

type spec = {
  program : unit -> Mxlang.Ast.program;
  nprocs : int;
  bound : int;
  model : Regsem.Model.t;
  reduce : Reduce.mode;
  parallel : bool;  (* Par_explore over a pool of [domains] *)
  distinct : int;  (* pinned outcome of every round and of the replay *)
  generated : int;
  depth : int;
}

(* mc_weak_par's pool: one domain per core of the 2-core reference host.
   Fixed rather than read from the host so the workload stays the same
   wherever it runs. *)
let domains = 2

let bakery_pp () = Core.Bakery_pp_model.program ()

(* [tiny] sizes keep the smoke test under a second per workload. *)
let spec ~tiny = function
  | "mc_atomic" ->
      let base =
        {
          program = bakery_pp;
          nprocs = 4;
          bound = 2;
          model = Regsem.Model.Atomic;
          reduce = Reduce.Off;
          parallel = false;
          distinct = 2_130_895;
          generated = 7_532_203;
          depth = 128;
        }
      in
      if tiny then { base with nprocs = 3; distinct = 47_343; generated = 128_139; depth = 84 }
      else base
  | "mc_weak_par" ->
      let base =
        {
          program = bakery_pp;
          nprocs = 3;
          bound = 4;
          model = Regsem.Model.Safe;
          reduce = Reduce.Off;
          parallel = true;
          distinct = 1_026_547;
          generated = 3_674_143;
          depth = 108;
        }
      in
      if tiny then
        { base with nprocs = 2; bound = 3; distinct = 5_596; generated = 11_472; depth = 67 }
      else base
  | "mc_sym" ->
      let base =
        {
          program = Algorithms.Ticket_model.program_mod;
          nprocs = 7;
          bound = 7;
          model = Regsem.Model.Atomic;
          reduce = Reduce.Sym;
          parallel = false;
          distinct = 1_133_840;
          generated = 7_611_297;
          depth = 252;
        }
      in
      if tiny then
        { base with nprocs = 4; bound = 4; distinct = 2_801; generated = 10_545; depth = 84 }
      else base
  | w -> invalid_arg ("Mc.spec: " ^ w)

let make spec () =
  System.make ~register_model:spec.model (spec.program ()) ~nprocs:spec.nprocs
    ~bound:spec.bound

let with_pool spec f = if spec.parallel then Pool.with_pool domains (fun p -> f (Some p)) else f None

let engine ?metrics spec sys pool () =
  match pool with
  | Some pool -> Par_explore.run ?metrics ~pool ~reduce:spec.reduce sys
  | None -> Explore.run ?metrics ~reduce:spec.reduce sys

let pinned spec ~distinct ~generated ~depth =
  distinct = spec.distinct && generated = spec.generated && depth = spec.depth

let passed spec (res : Explore.result) =
  let s = res.stats in
  res.outcome = Explore.Pass && pinned spec ~distinct:s.distinct ~generated:s.generated ~depth:s.depth

let describe (res : Explore.result) =
  let s = res.stats in
  Printf.sprintf "%s distinct=%d generated=%d depth=%d" (Explore.outcome_tag res.outcome)
    s.distinct s.generated s.depth

let check_round r spec res = Sheet.check r (passed spec res) (describe res)

(* One checked round, then a compaction outside the timed window so
   every round starts from the same heap. *)
let round ?metrics r spec sys pool =
  let res, dt = Util.time (engine ?metrics spec sys pool) in
  check_round r spec res;
  Gc.compact ();
  dt

(* ---- End to end ---------------------------------------------------- *)

(* An end-to-end round is a fresh process doing what one run of the
   checker does: build the system, then check it once.  Rounds in one
   process are not independent — heap layout and the faulting-in of
   memory carry over — while fresh processes sample both the way a user
   meets them, so the medians over them are steadier run to run. *)

(* Set-up is building the program and the system (validation, layout,
   closure compilation): tens of microseconds, so a round takes several
   samples. *)
let setups_per_round = 9

(* The round process: prints "round <ok> <check_s> <peak_rss_mb>
   <setup_s,...>" for {!run}, and what it found on stderr if that was
   not the pinned outcome. *)
let round_child spec =
  let sys = ref None in
  let setups =
    List.init setups_per_round (fun _ ->
        let s, dt = Util.time (make spec) in
        sys := Some s;
        Printf.sprintf "%.17g" dt)
  in
  let res, dt = with_pool spec (fun pool -> Util.time (engine spec (Option.get !sys) pool)) in
  let ok = passed spec res in
  if not ok then prerr_endline (describe res);
  Printf.printf "round %b %.17g %.17g %s\n" ok dt (Util.peak_rss_mb ()) (String.concat "," setups)

(* Round processes until [seconds] have passed, at least three.
   verdict_s and peak_rss_mb are medians over the rounds; setup_s is
   the 10th percentile of all their set-up samples (see [Lock.run] for
   why not the median). *)
let run r spec ~seconds ~round_args =
  let checks = ref [] and rss = ref [] and setups = ref [] in
  let t0 = Util.now_ns () in
  while List.length !checks < 3 || Util.seconds_since t0 < seconds do
    let lines, exited = Util.rerun round_args in
    match List.map (String.split_on_char ' ') lines with
    | [ [ "round"; ok; check; peak; samples ] ] ->
        Sheet.check r (exited && bool_of_string ok) "round process: not the pinned outcome";
        checks := float_of_string check :: !checks;
        rss := float_of_string peak :: !rss;
        setups := List.map float_of_string (String.split_on_char ',' samples) @ !setups
    | _ ->
        Sheet.check r false ("round process printed: " ^ String.concat " | " lines);
        checks := nan :: !checks
  done;
  let median l = Util.median (Array.of_list (List.filter Float.is_finite l)) in
  let verdict_s = median !checks in
  Sheet.set r "verdict_s" verdict_s;
  Sheet.set r "peak_rss_mb" (median !rss);
  Sheet.set r "setup_s" (Util.quantile 0.1 (Array.of_list !setups));
  Sheet.note r "rounds %s s; median %.0f states/s"
    (String.concat " " (List.rev_map (Printf.sprintf "%.3f") !checks))
    (float_of_int spec.distinct /. verdict_s)

(* ---- Traced replay ------------------------------------------------- *)

let sample_every = 64

let names =
  [|
    "expand"; "store.read"; "reduce.ample"; "succ"; "reduce.canon"; "store.probe";
    "store.insert"; "inv"; "fp.hash"; "shard.insert";
  |]

let s_expand = 0
let s_read = 1
let s_ample = 2
let s_succ = 3
let s_canon = 4
let s_probe = 5
let s_insert = 6
let s_inv = 7
let s_hash = 8
let s_shard = 9

type tally = {
  mutable expanded : int;
  mutable moves : int;
  mutable flicked : int;
  mutable hits : int;
  mutable bad : int;  (* violated invariants or deadlocks *)
  mutable depth : int;
  mutable distinct : int;
  mutable bytes : int;  (* visited-set memory at the end *)
}

(* Every [sample_every]-th unsampled state, kept for the canonizer's
   allocation count after the replay; a per-state check, nothing per
   move. *)
type kept = { states : State.packed array; mutable taken : int }

let keep k n (s : State.packed) =
  if n land (sample_every - 1) = sample_every / 2 && k.taken < Array.length k.states then begin
    k.states.(k.taken) <- Array.copy s;
    k.taken <- k.taken + 1
  end

let invariants sys =
  let invs =
    Array.of_list (List.map (fun i -> Invariant.stage i sys) [ Invariant.mutex; Invariant.no_overflow ])
  in
  fun buf ->
    let rec go k = k >= Array.length invs || (invs.(k) buf && go (k + 1)) in
    go 0

let tally () =
  { expanded = 0; moves = 0; flicked = 0; hits = 0; bad = 0; depth = 0; distinct = 0; bytes = 0 }

(* The per-state pipeline of [Explore.run]'s compiled engine, call for
   call: read the state out of the store, pick the ample process,
   generate successors into a scratch buffer, canonicalize, probe,
   insert and record the parent link, run the staged invariants.  Every
   [sample_every]-th state (by id) is spanned in full; the trace id is
   the state id. *)
let replay_store sp spec sys k =
  let red = Reduce.make spec.reduce sys in
  let canon = Reduce.canonizer red in
  let holds = invariants sys in
  let store = Store.create () in
  let parent = Vec.create () and via_pid = Vec.create () and via_pc = Vec.create () in
  let push_meta ~parent:p ~pid ~pc =
    ignore (Vec.push parent p);
    ignore (Vec.push via_pid pid);
    ignore (Vec.push via_pc pc)
  in
  let words = (System.layout sys).State.words in
  let scratch = Array.make words 0 and current = Array.make words 0 in
  let wave = Wave.create () in
  let t = tally () in
  let init = System.initial sys in
  canon init;
  (match Store.add store init with
  | Some id ->
      push_meta ~parent:(-1) ~pid:(-1) ~pc:(-1);
      if holds init then Wave.push wave id else t.bad <- t.bad + 1
  | None -> assert false);
  Wave.drive wave (fun id ->
      t.expanded <- t.expanded + 1;
      let on = id land (sample_every - 1) = 0 && Spans.has_room sp 4096 in
      let root = Spans.enter sp ~on ~name:s_expand ~parent:(-1) ~trace:id in
      let s = Spans.enter sp ~on ~name:s_read ~parent:root ~trace:id in
      Store.read_into store id current;
      Spans.leave sp s;
      keep k id current;
      let s = Spans.enter sp ~on ~name:s_ample ~parent:root ~trace:id in
      let only = Reduce.ample red current in
      Spans.leave sp s;
      let succ = Spans.enter sp ~on ~name:s_succ ~parent:root ~trace:id in
      let any = ref false in
      System.iter_successors_scratch ~only sys current ~scratch
        (fun ~pid ~from_pc ~alt:_ ~flick ->
          any := true;
          t.moves <- t.moves + 1;
          if flick > 0 then t.flicked <- t.flicked + 1;
          let s = Spans.enter sp ~on ~name:s_canon ~parent:succ ~trace:id in
          canon scratch;
          Spans.leave sp s;
          let s = Spans.enter sp ~on ~name:s_probe ~parent:succ ~trace:id in
          let hit = Store.probe store scratch >= 0 in
          Spans.leave sp s;
          if hit then t.hits <- t.hits + 1
          else begin
            let s = Spans.enter sp ~on ~name:s_insert ~parent:succ ~trace:id in
            let id' = Store.add_probed store scratch in
            push_meta ~parent:id ~pid ~pc:from_pc;
            Spans.leave sp s;
            let s = Spans.enter sp ~on ~name:s_inv ~parent:succ ~trace:id in
            let ok = holds scratch in
            Spans.leave sp s;
            if ok then Wave.push wave id' else t.bad <- t.bad + 1
          end);
      Spans.leave sp succ;
      if not !any then t.bad <- t.bad + 1;
      Spans.leave sp root);
  t.depth <- Wave.depth wave;
  t.distinct <- Store.length store;
  t.bytes <- Store.arena_bytes store;
  t

(* [Par_explore]'s per-state pipeline on one domain: fingerprint,
   owning shard, insert into that shard of a 2-shard table with the
   packed parent link, invariants, and a boxed copy onto the frontier.
   The hand-off batching between domains is the one step left out; the
   [par.*] counters measure it from a real pool run.  The trace id is
   the state's global id. *)
let replay_shards sp spec sys k =
  let red = Reduce.make spec.reduce sys in
  let canon = Reduce.canonizer red in
  let holds = invariants sys in
  let words = (System.layout sys).State.words in
  let tbl = Shard_table.create ~mode:Shard_table.Exact ~nshards:domains ~words () in
  let meta_parent = Array.init domains (fun _ -> Vec.create ()) in
  let meta_via = Array.init domains (fun _ -> Vec.create ()) in
  let scratch = Array.make words 0 in
  let wave = Wave.create () in
  let t = tally () in
  let insert ~parent ~via ~fp s =
    let o = Shard_table.owner tbl fp in
    let local = Shard_table.insert tbl ~shard:o ~fp s in
    if local < 0 then -1
    else begin
      ignore (Vec.push meta_parent.(o) parent);
      ignore (Vec.push meta_via.(o) via);
      Shard_table.gid tbl ~shard:o ~local
    end
  in
  let init = System.initial sys in
  canon init;
  let g = insert ~parent:(-1) ~via:(-1) ~fp:(Fingerprint.hash init) init in
  if holds init then Wave.push wave (g, Array.copy init) else t.bad <- t.bad + 1;
  Wave.drive wave (fun (gid, current) ->
      let n = t.expanded in
      t.expanded <- n + 1;
      keep k n current;
      let on = n land (sample_every - 1) = 0 && Spans.has_room sp 4096 in
      let root = Spans.enter sp ~on ~name:s_expand ~parent:(-1) ~trace:gid in
      let s = Spans.enter sp ~on ~name:s_ample ~parent:root ~trace:gid in
      let only = Reduce.ample red current in
      Spans.leave sp s;
      let succ = Spans.enter sp ~on ~name:s_succ ~parent:root ~trace:gid in
      let any = ref false in
      System.iter_successors_scratch ~only sys current ~scratch
        (fun ~pid ~from_pc ~alt ~flick ->
          any := true;
          t.moves <- t.moves + 1;
          if flick > 0 then t.flicked <- t.flicked + 1;
          let s = Spans.enter sp ~on ~name:s_canon ~parent:succ ~trace:gid in
          canon scratch;
          Spans.leave sp s;
          let s = Spans.enter sp ~on ~name:s_hash ~parent:succ ~trace:gid in
          let fp = Fingerprint.hash scratch in
          Spans.leave sp s;
          let s = Spans.enter sp ~on ~name:s_shard ~parent:succ ~trace:gid in
          let via = (flick lsl 36) lor (pid lsl 24) lor (from_pc lsl 8) lor alt in
          let g = insert ~parent:gid ~via ~fp scratch in
          Spans.leave sp s;
          if g < 0 then t.hits <- t.hits + 1
          else begin
            let s = Spans.enter sp ~on ~name:s_inv ~parent:succ ~trace:gid in
            let ok = holds scratch in
            Spans.leave sp s;
            if ok then Wave.push wave (g, Array.copy scratch) else t.bad <- t.bad + 1
          end);
      Spans.leave sp succ;
      if not !any then t.bad <- t.bad + 1;
      Spans.leave sp root);
  t.depth <- Wave.depth wave;
  t.distinct <- Shard_table.total tbl;
  t.bytes <- Shard_table.memory_bytes tbl;
  t

(* Minor words one canonizer call allocates, over the successors of the
   kept states as the canonizer first sees them. *)
let canon_words spec sys k =
  let canon = Reduce.canonizer (Reduce.make spec.reduce sys) in
  let words = (System.layout sys).State.words in
  let scratch = Array.make words 0 in
  let inputs = Vec.create () in
  for i = 0 to k.taken - 1 do
    System.iter_successors_scratch sys k.states.(i) ~scratch (fun ~pid:_ ~from_pc:_ ~alt:_ ~flick:_ ->
        ignore (Vec.push inputs (Array.copy scratch)))
  done;
  let n = Vec.length inputs in
  let w0 = Gc.minor_words () in
  for i = 0 to n - 1 do
    Array.blit (Vec.get inputs i) 0 scratch 0 words;
    canon scratch
  done;
  Util.per (Gc.minor_words () -. w0) n

let par_counters r metrics ~moves ~busy_share =
  let c name = Telemetry.Metrics.(counter_value (counter metrics ("par_explore." ^ name))) in
  let g name = Telemetry.Metrics.(gauge_value (gauge metrics ("par_explore." ^ name))) in
  Sheet.set r "par.handoff_share" (Util.per (float_of_int (c "handoff_states")) moves);
  Sheet.set r "par.steals" (float_of_int (c "steals"));
  Sheet.set r "par.idle_epochs" (float_of_int (c "idle_epochs"));
  let mn = g "shard_occupancy_min" and mx = g "shard_occupancy_max" in
  Sheet.set r "par.shard_imbalance" (Util.ratio (2.0 *. mx) (mn +. mx) -. 1.0);
  Sheet.set r "par.busy_share" busy_share

(* Per layer: a warm-up and a measured library round for the GC counts
   (and, on the parallel workload, the pool counters and the sequential
   engine's time), then the replay twice — untraced, then traced — each
   checked against the pinned counts. *)
let run_traced r spec ~tiny ~trace_out ~workload =
  let sys = make spec () in
  Sheet.set r "host.calib_s" (Util.host_calib_s ~tiny);
  let t_engine =
    with_pool spec (fun pool ->
        ignore (round r spec sys pool);
        let metrics = Telemetry.Metrics.create () in
        let busy0 = Option.map Pool.busy_ns pool in
        let g0 = Gc.quick_stat () in
        let res, t_engine = Util.time (engine ~metrics spec sys pool) in
        let g1 = Gc.quick_stat () in
        check_round r spec res;
        Sheet.set r "gc.minor_words_per_state"
          ((g1.minor_words -. g0.minor_words) /. float_of_int spec.distinct);
        Sheet.set r "gc.major_collections"
          (float_of_int (g1.major_collections - g0.major_collections));
        Gc.compact ();
        (match (pool, busy0) with
        | Some p, Some b0 ->
            let busy = Array.fold_left ( + ) 0 (Array.map2 ( - ) (Pool.busy_ns p) b0) in
            par_counters r metrics ~moves:(spec.generated - 1)
              ~busy_share:(float_of_int busy /. (float_of_int domains *. t_engine *. 1e9));
            Sheet.set r "par.speedup_vs_seq" (round r spec sys None /. t_engine)
        | _ -> ());
        t_engine)
  in
  let replay sp k =
    let t, dt = Util.time (fun () -> (if spec.parallel then replay_shards else replay_store) sp spec sys k) in
    Sheet.check r
      (t.bad = 0 && pinned spec ~distinct:t.distinct ~generated:(t.moves + 1) ~depth:t.depth)
      (Printf.sprintf "replay bad=%d distinct=%d generated=%d depth=%d" t.bad t.distinct
         (t.moves + 1) t.depth);
    Gc.compact ();
    (t, dt)
  in
  let _, t_plain = replay (Spans.create ~cap:0 names) { states = [||]; taken = 0 } in
  let sp = Spans.create ~cap:(1 lsl 20) names in
  Spans.calibrate sp;
  let k = { states = Array.make 512 [||]; taken = 0 } in
  let t, t_traced = replay sp k in
  let a = Spans.analyse sp in
  let per_state = Spans.ns_per_root a and per_call = Spans.ns_per_call a in
  Sheet.set r "succ.self_ns_per_state" (per_state "succ");
  Sheet.set r "succ.moves_per_state" (Util.per (float_of_int t.moves) t.expanded);
  Sheet.set r "regsem.flick_share" (Util.per (float_of_int t.flicked) t.moves);
  Sheet.set r "reduce.canon_ns_per_call" (per_call "reduce.canon");
  Sheet.set r "reduce.canon_words_per_call" (canon_words spec sys k);
  Sheet.set r "reduce.ample_ns_per_state" (per_state "reduce.ample");
  Sheet.set r "inv.ns_per_state" (per_call "inv");
  let bytes_per_state = Util.per (float_of_int t.bytes) t.distinct in
  if spec.parallel then begin
    Sheet.set r "fp.hash_ns" (per_call "fp.hash");
    Sheet.set r "shard.insert_ns" (per_call "shard.insert");
    Sheet.set r "shard.bytes_per_state" bytes_per_state
  end
  else begin
    Sheet.set r "store.probe_ns" (per_call "store.probe");
    Sheet.set r "store.insert_ns" (per_call "store.insert");
    Sheet.set r "store.read_ns" (per_call "store.read");
    Sheet.set r "store.hit_share" (Util.per (float_of_int t.hits) t.moves);
    Sheet.set r "store.bytes_per_state" bytes_per_state
  end;
  let estimate_s = a.root_ns *. float_of_int t.expanded /. float_of_int (max 1 a.roots) *. 1e-9 in
  Sheet.set r "trace.span_cost_ns" sp.outer_ns;
  Sheet.set r "trace.attributed_share" (Util.ratio a.attributed_ns a.root_ns);
  Sheet.set r "trace.replay_ratio" (estimate_s /. t_plain);
  Sheet.set r "trace.overhead" ((t_traced /. t_plain) -. 1.0);
  Sheet.note r
    "replay %.3f s untraced, %.3f s traced, %.3f s estimated from spans; library engine %.3f s; %d spans"
    t_plain t_traced estimate_s t_engine (Spans.count sp);
  Spans.write sp ~path:trace_out ~workload ~sample_every
