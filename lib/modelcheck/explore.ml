(* Sequential BFS over the induced transition system.

   One loop serves every sequential search: [run] checks invariants and
   deadlocks on it, [run_graph] keeps the graph it stored.  Each
   candidate successor is built in one reusable scratch buffer, probed
   against the allocation-free arena-backed {!Store}, and blitted into
   the arena only if genuinely new.  Most generated states of a big
   search are duplicates, so the steady state allocates nothing at all.

   Each new state logs one word, its parent's id and the rank of its
   move among the parent's successors; [trace_of] replays such logs for
   every explorer by regenerating those successors.

   [interpreted = true] swaps only the successor function: the AST
   interpreter's move list is copied into the same scratch buffer, move
   by move, and fed through the same loop, store, staged invariants and
   trace code — so the two successor engines are compared and timed
   through one search, and its traces check the compiled replay. *)

type stats = { generated : int; distinct : int; depth : int; runtime : float }

type outcome =
  | Pass
  | Violation of { invariant : string; trace : Trace.t }
  | Deadlock of { trace : Trace.t }
  | Capacity

type result = { outcome : outcome; stats : stats }

type graph =
  { sys : System.t; store : Store.t; log : int Vec.t; complete : bool }

(* The parent's id plus one (0 for the root) in the 32 bits above the
   rank's 31; the top one is OCaml's sign bit, which [lsr] reads back. *)
let log_word ~parent ~rank =
  if rank lsr 31 <> 0 || (parent + 1) lsr 32 <> 0 then
    invalid_arg "Explore.log_word: parent or rank out of range";
  ((parent + 1) lsl 31) lor rank

let log_parent w = (w lsr 31) - 1
let log_rank w = w land 0x7fff_ffff

(* Replay the log from the initial state: regenerate each state's
   successors under the search's ample set, take the logged rank and
   canonicalize as the search did, and check that it rebuilds the state
   the search stored. *)
let trace_of sys red ~log ~stored id =
  let steps = (System.program sys).steps in
  let scratch = Array.make (System.layout sys).State.words 0 in
  let entry id pid step_name state =
    Reduce.canonizer red state;
    if not (State.equal (stored id) state) then
      Printf.ksprintf failwith
        "Explore.trace_of: the log does not rebuild stored state %d" id;
    { Trace.pid; step_name; state }
  in
  let rec path id acc =
    let p = log_parent (log id) in
    if p < 0 then (id, acc) else path p (id :: acc)
  in
  let root, rest = path id [] in
  let init = entry root (-1) "<init>" (System.initial sys) in
  let prev = ref init in
  let exception Found of int * int in
  let replay id =
    let s = !prev.state and rank = log_rank (log id) and k = ref 0 in
    match
      System.iter_successors_scratch ~only:(Reduce.ample red s) sys s ~scratch
        (fun ~pid ~from_pc ~alt:_ ~flick:_ ->
          if !k = rank then raise_notrace (Found (pid, from_pc));
          incr k)
    with
    | () ->
        Printf.ksprintf failwith "Explore.trace_of: state %d has no move %d"
          (log_parent (log id)) rank
    | exception Found (pid, pc) ->
        prev := entry id pid steps.(pc).step_name (Array.copy scratch);
        !prev
  in
  Reduce.decanonicalize red (init :: List.map replay rest)

let trace_to (g : graph) id =
  trace_of g.sys (Reduce.make Reduce.Off g.sys) ~log:(Vec.get g.log)
    ~stored:(Store.get g.store) id

let default_invariants = lazy [ Invariant.mutex; Invariant.no_overflow ]

let outcome_tag = function
  | Pass -> "pass"
  | Violation { invariant; _ } -> "violation:" ^ invariant
  | Deadlock _ -> "deadlock"
  | Capacity -> "capacity"

(* Final telemetry for a finished search: one forced TLC-style progress
   line plus registry counters.  Off the hot path — called once. *)
let record_finish ?progress ?metrics ~prefix ~twin_moves outcome
    (stats : stats) =
  (match progress with
  | None -> ()
  | Some p ->
      Telemetry.Progress.force p (fun () ->
          [
            ("outcome", Telemetry.Json.Str (outcome_tag outcome));
            ("depth", Telemetry.Json.Num (float_of_int stats.depth));
            ("generated", Telemetry.Json.Num (float_of_int stats.generated));
            ("distinct", Telemetry.Json.Num (float_of_int stats.distinct));
            ( "kstates_s",
              Telemetry.Json.Num
                (if stats.runtime > 0.0 then
                   float_of_int stats.generated /. stats.runtime /. 1e3
                 else 0.0) );
            ("runtime_s", Telemetry.Json.Num stats.runtime);
          ]));
  match metrics with
  | None -> ()
  | Some m ->
      let open Telemetry.Metrics in
      add (counter m (prefix ^ ".generated")) stats.generated;
      add (counter m (prefix ^ ".distinct")) stats.distinct;
      add (counter m (prefix ^ ".twin_moves")) twin_moves;
      set (gauge m (prefix ^ ".depth")) (float_of_int stats.depth);
      set (gauge m (prefix ^ ".runtime_s")) stats.runtime;
      set (gauge m (prefix ^ ".kstates_s"))
        (if stats.runtime > 0.0 then
           float_of_int stats.generated /. stats.runtime /. 1e3
         else 0.0)

(* The search itself: dedup-before-copy BFS on the arena store, the
   frontier's ids in a {!Wave} ring.  Returns the result together with
   the store and its search log, which [run_graph] hands on. *)
let search ~invariants ~constraint_ ~max_states ~check_deadlock ~interpreted
    ~red ?progress ?metrics sys =
  let t0 = Telemetry.Clock.now_s () in
  let idx = Store.create () in
  let log = Vec.create () in
  let max_depth = ref 0 in
  let wave = Wave.create () in
  let lay = System.layout sys in
  let scratch = Array.make lay.State.words 0 in
  let current = Array.make lay.State.words 0 in
  let exception Stop of outcome in
  let trace id =
    trace_of sys red ~log:(Vec.get log) ~stored:(Store.get idx) id
  in
  (* Invariants are staged once per run (layouts and step kinds resolved
     up front); they and the state constraint run on the scratch buffer
     (identical contents to what was just stored). *)
  let names = Array.of_list (List.map (fun inv -> inv.Invariant.name) invariants) in
  let holds = Array.of_list (List.map (fun inv -> Invariant.stage inv sys) invariants) in
  let vet id' buf =
    if Store.length idx > max_states then raise (Stop Capacity);
    let k = ref 0 in
    while !k < Array.length holds && (Array.unsafe_get holds !k) buf do
      incr k
    done;
    if !k < Array.length holds then
      raise (Stop (Violation { invariant = names.(!k); trace = trace id' }));
    match constraint_ with
    | Some c when not (c sys buf) -> ()
    | _ -> Wave.push wave id'
  in
  let store_new ~parent ~rank buf =
    let id' = Store.add_probed idx buf in
    ignore (Vec.push log (log_word ~parent ~rank));
    vet id' buf
  in
  (* The expanded state's id, shared with the per-successor callback so
     that one closure serves the whole search. *)
  let from = ref 0 in
  let emit rank =
    if Store.probe idx scratch = -1 then store_new ~parent:!from ~rank scratch
  in
  (* [interpreted] swaps in the interpreter's moves, copied into the
     same scratch buffer. *)
  let iter =
    if not interpreted then System.iter_successors_between sys
    else fun s ~lo ~hi ~scratch f ->
      List.iter
        (fun (m : System.move) ->
          if m.pid >= lo && m.pid <= hi then begin
            Array.blit m.dest 0 scratch 0 lay.State.words;
            f ~pid:m.pid ~from_pc:m.from_pc ~alt:m.alt ~flick:m.flick
          end)
        (System.successors_interpreted sys s)
  in
  let ex = Reduce.expander red ~iter ~scratch emit in
  (* The initial state, then every move counted. *)
  let generated () = 1 + Reduce.generated ex in
  (* One tick per dequeued state; a disabled reporter costs one call to
     a static no-op closure, nothing else (E11 must not move). *)
  let tick =
    match progress with
    | None -> fun () -> ()
    | Some p ->
        let fields () =
          let elapsed = Telemetry.Clock.now_s () -. t0 in
          [
            ("depth", Telemetry.Json.Num (float_of_int !max_depth));
            ("generated", Telemetry.Json.Num (float_of_int (generated ())));
            ("distinct", Telemetry.Json.Num (float_of_int (Store.length idx)));
            ("queue", Telemetry.Json.Num (float_of_int (Wave.pending wave)));
            ( "kstates_s",
              Telemetry.Json.Num
                (if elapsed > 0.0 then
                   float_of_int (generated ()) /. elapsed /. 1e3
                 else 0.0) );
            ("store_load", Telemetry.Json.Num (Store.load_factor idx));
            ( "arena_mb",
              Telemetry.Json.Num
                (float_of_int (Store.arena_bytes idx) /. 1048576.0) );
          ]
        in
        fun () -> Telemetry.Progress.tick p fields
  in
  let wave_hist =
    match metrics with
    | None -> None
    | Some m -> Some (Telemetry.Metrics.histogram m "explore.wave_s")
  in
  let wave_t0 = ref (Telemetry.Clock.now_s ()) in
  (* Live gauges feed the flight-recorder sampler: refreshed once per
     wave (never per state), and registered only when a registry was
     asked for, so an uninstrumented run stays bit-identical.  Named
     live_* because record_finish registers the bare names as
     counters. *)
  let live =
    match metrics with
    | None -> None
    | Some m ->
        Telemetry.Metrics.set
          (Telemetry.Metrics.gauge m "explore.max_states")
          (float_of_int max_states);
        Some
          ( Telemetry.Metrics.gauge m "explore.frontier_depth",
            Telemetry.Metrics.gauge m "explore.live_generated",
            Telemetry.Metrics.gauge m "explore.live_distinct",
            Telemetry.Metrics.gauge m "explore.live_kstates_s" )
  in
  let on_wave ~depth ~frontier =
    max_depth := depth;
    (match live with
    | None -> ()
    | Some (g_frontier, g_gen, g_dist, g_rate) ->
        Telemetry.Metrics.set g_frontier (float_of_int frontier);
        Telemetry.Metrics.set g_gen (float_of_int (generated ()));
        Telemetry.Metrics.set g_dist (float_of_int (Store.length idx));
        let elapsed = Telemetry.Clock.now_s () -. t0 in
        Telemetry.Metrics.set g_rate
          (if elapsed > 0.0 then float_of_int (generated ()) /. elapsed /. 1e3
           else 0.0));
    match wave_hist with
    | None -> ()
    | Some h ->
        let t = Telemetry.Clock.now_s () in
        Telemetry.Metrics.observe h (t -. !wave_t0);
        wave_t0 := t
  in
  let outcome =
    try
      let init = System.initial sys in
      Reduce.canonizer red init;
      if Store.probe idx init = -1 then store_new ~parent:(-1) ~rank:0 init;
      (* BFS depth by wave boundary: ids enter the driver in depth
         order, so no per-state depth needs storing. *)
      Wave.drive ~on_wave wave (fun id ->
          tick ();
          Store.read_into idx id current;
          from := id;
          (* An ample process is enabled by construction, so expanding
             it alone never masks a deadlock. *)
          if Reduce.expand ex current = 0 && check_deadlock then
            raise (Stop (Deadlock { trace = trace id })));
      Pass
    with Stop o -> o
  in
  let stats =
    {
      generated = generated ();
      distinct = Store.length idx;
      depth = !max_depth;
      runtime = Telemetry.Clock.now_s () -. t0;
    }
  in
  record_finish ?progress ?metrics ~prefix:"explore"
    ~twin_moves:(Reduce.twin_moves ex) outcome stats;
  (match metrics with
  | None -> ()
  | Some m ->
      Telemetry.Metrics.set
        (Telemetry.Metrics.gauge m "explore.table_mb")
        (float_of_int (Store.arena_bytes idx) /. 1048576.0));
  ({ outcome; stats }, idx, log)

let run ?invariants ?constraint_ ?(max_states = 5_000_000) ?(check_deadlock = true)
    ?(interpreted = false) ?(reduce = Reduce.Off) ?progress ?metrics sys =
  let invariants =
    match invariants with Some l -> l | None -> Lazy.force default_invariants
  in
  (* Both reductions are only sound when every checked invariant reads
     nothing but pcs and shared cells; a pid- or local-sensitive custom
     invariant silently turns the whole reduction off. *)
  let red =
    if reduce = Reduce.Off || Reduce.invariants_reducible invariants then
      Reduce.make reduce sys
    else Reduce.make Reduce.Off sys
  in
  let r, _, _ =
    search ~invariants ~constraint_ ~max_states ~check_deadlock ~interpreted
      ~red ?progress ?metrics sys
  in
  r

let run_graph ?constraint_ ?(max_states = 5_000_000) sys =
  let r, store, log =
    search ~invariants:[] ~constraint_ ~max_states ~check_deadlock:false
      ~interpreted:false ~red:(Reduce.make Reduce.Off sys) sys
  in
  ({ sys; store; log; complete = r.outcome <> Capacity }, r.stats)
