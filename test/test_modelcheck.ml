(* Tests for the explicit-state model checker: state packing, the
   growable vector, BFS exploration (positive and negative), trace
   reconstruction, deadlock detection, state constraints, refinement and
   the lasso search — each on small systems with known answers. *)

module MC = Modelcheck

let check = Alcotest.check
let int_t = Alcotest.int
let bool_t = Alcotest.bool

(* ------------------------------------------------------------------ vec *)

let vec_basics () =
  let v = MC.Vec.create () in
  check int_t "empty" 0 (MC.Vec.length v);
  for i = 0 to 99 do
    let id = MC.Vec.push v (i * 2) in
    check int_t "push returns index" i id
  done;
  check int_t "length" 100 (MC.Vec.length v);
  check int_t "get" 84 (MC.Vec.get v 42);
  MC.Vec.set v 42 7;
  check int_t "set" 7 (MC.Vec.get v 42);
  let sum = ref 0 in
  MC.Vec.iteri (fun i x -> sum := !sum + i + x) v;
  check bool_t "iteri covers all" true (!sum > 0);
  (match MC.Vec.get v 100 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out of bounds get must raise");
  check int_t "to_list length" 100 (List.length (MC.Vec.to_list v));
  (* The log grows by chunks of 2^13 entries once its first chunk is
     full: pushes, sets and reads at and around each chunk boundary,
     then a refill after [clear] over the capacity it kept. *)
  let size = 1 lsl 13 in
  let v = MC.Vec.create () in
  let n = (3 * size) + 2 in
  for i = 0 to n - 1 do
    if MC.Vec.push v (i * 3) <> i then Alcotest.failf "push %d misplaced" i
  done;
  check int_t "length past three chunks" n (MC.Vec.length v);
  let edges = [ 0; size - 1; size; (3 * size) + 1 ] in
  List.iter
    (fun i ->
      check int_t (Printf.sprintf "get %d" i) (i * 3) (MC.Vec.get v i);
      MC.Vec.set v i (-i);
      check int_t (Printf.sprintf "set %d" i) (-i) (MC.Vec.get v i))
    edges;
  check int_t "a neighbour of a boundary is untouched"
    ((size + 1) * 3)
    (MC.Vec.get v (size + 1));
  List.iter
    (fun i ->
      match MC.Vec.get v i with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "get %d past the end must raise" i)
    [ n; 4 * size; -1 ];
  (match MC.Vec.set v n 0 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "set past the end must raise");
  MC.Vec.clear v;
  check int_t "cleared" 0 (MC.Vec.length v);
  (match MC.Vec.get v 0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "a cleared log holds nothing");
  for i = 0 to (2 * size) + 1 do
    ignore (MC.Vec.push v (i + 1))
  done;
  List.iter
    (fun i -> check int_t (Printf.sprintf "refilled %d" i) (i + 1) (MC.Vec.get v i))
    [ 0; size - 1; size; (2 * size) + 1 ];
  check int_t "refill length" ((2 * size) + 2) (MC.Vec.length v);
  (match MC.Vec.get v ((2 * size) + 2) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "a stale slot past the refill must raise");
  check int_t "to_list sees the refill" ((2 * size) + 2)
    (List.length (MC.Vec.to_list v))

(* ---------------------------------------------------------------- state *)

let sys_of ?(nprocs = 2) ?(bound = 3) prog = MC.System.make prog ~nprocs ~bound

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let state_roundtrip () =
  let sys = sys_of (Core.Bakery_pp_model.program ()) in
  let lay = MC.System.layout sys in
  let s = MC.System.initial sys in
  check int_t "initial pc of 0" 0 (MC.State.pc lay s 0);
  MC.State.set_pc lay s 1 3;
  check int_t "set_pc" 3 (MC.State.pc lay s 1);
  let shared = MC.State.shared_part lay s in
  let locals = MC.State.locals_part lay s 1 in
  shared.(0) <- 9;
  locals.(0) <- 5;
  MC.State.write_back lay s ~shared ~locals ~pid:1;
  check int_t "written back shared" 9 (MC.State.shared_part lay s).(0);
  check int_t "written back locals" 5 (MC.State.locals_part lay s 1).(0);
  (* widening groups of fine-grained Bakery++ at N=3: choosing[3] and
     number[3], the pcs, and each of the locals j and mx *)
  let fine =
    Core.Bakery_pp_model.program ~granularity:Algorithms.Common.Fine ()
  in
  check
    Alcotest.(array int)
    "one group per shared array, the pcs, and per local"
    [| 0; 0; 0; 3; 3; 3; 6; 6; 6; 9; 10; 9; 10; 9; 10 |]
    (MC.State.siblings (MC.System.layout (sys_of ~nprocs:3 fine)))

let state_hash_equal () =
  let sys = sys_of (Core.Bakery_pp_model.program ()) in
  let a = MC.System.initial sys in
  let b = MC.System.initial sys in
  check bool_t "equal initials" true (MC.State.equal a b);
  check bool_t "equal hashes" true (MC.State.hash a = MC.State.hash b);
  b.(0) <- b.(0) + 1;
  check bool_t "different states differ" false (MC.State.equal a b);
  (* FNV must see words beyond the polymorphic-hash prefix: states
     differing only in the last word must hash differently (almost
     surely). *)
  let c = Array.copy a and d = Array.copy a in
  d.(Array.length d - 1) <- 123456;
  check bool_t "suffix change changes hash" true
    (MC.State.hash c <> MC.State.hash d)

(* ---------------------------------------------------------- exploration *)

let explore_counts () =
  (* no_lock with N processes has exactly 3^N states and mutex fails. *)
  let sys = sys_of ~nprocs:2 (Algorithms.No_lock.program ()) in
  let r = MC.Explore.run ~invariants:[] sys in
  (match r.outcome with
  | MC.Explore.Pass -> ()
  | _ -> Alcotest.fail "no invariants: must pass");
  check int_t "3^2 states" 9 r.stats.distinct;
  let sys3 = sys_of ~nprocs:3 (Algorithms.No_lock.program ()) in
  let r3 = MC.Explore.run ~invariants:[] sys3 in
  check int_t "3^3 states" 27 r3.stats.distinct

let explore_violation_shortest () =
  let sys = sys_of ~nprocs:2 (Algorithms.No_lock.program ()) in
  let r = MC.Explore.run ~invariants:[ MC.Invariant.mutex ] sys in
  match r.outcome with
  | MC.Explore.Violation { invariant; trace } ->
      check Alcotest.string "invariant name" "mutual-exclusion" invariant;
      (* Shortest counterexample: init, p fires ncs, q fires ncs. *)
      check int_t "BFS counterexample is shortest" 3 (MC.Trace.length trace)
  | _ -> Alcotest.fail "expected mutex violation"

let explore_deadlock () =
  (* One process, one step whose only action has guard False: after the
     first (blocked) state is reached, nothing is enabled. *)
  let b = Mxlang.Builder.create ~title:"stuck" in
  let l = Mxlang.Builder.fresh_label b "l" in
  Mxlang.Builder.define b l ~kind:Mxlang.Ast.Critical
    [ Mxlang.Builder.action ~guard:Mxlang.Ast.False l ];
  let prog = Mxlang.Builder.build b in
  let sys = sys_of ~nprocs:1 prog in
  let r = MC.Explore.run ~invariants:[] sys in
  match r.outcome with
  | MC.Explore.Deadlock { trace } ->
      check int_t "deadlock at initial state" 1 (MC.Trace.length trace)
  | _ -> Alcotest.fail "expected deadlock"

let explore_constraint_closes_space () =
  (* Unbounded bakery has an infinite space; the ticket cap closes it. *)
  let sys = sys_of ~nprocs:2 ~bound:2 (Algorithms.Bakery.program ()) in
  let r =
    MC.Explore.run
      ~invariants:[ MC.Invariant.mutex ]
      ~constraint_:(Core.Verify.ticket_cap_constraint ~cap:4)
      sys
  in
  (match r.outcome with
  | MC.Explore.Pass -> ()
  | _ -> Alcotest.fail "bakery satisfies mutex under cap");
  check bool_t "space is finite and modest" true (r.stats.distinct < 100_000);
  (* At N=3 the tickets pass every width the first states fix, so the
     store widens mid-search; the counts are those of
     `check bakery -n 3 -m 2 --cap 8 --overflow=false`. *)
  let sys = sys_of ~nprocs:3 ~bound:2 (Algorithms.Bakery.program ()) in
  let r =
    MC.Explore.run
      ~invariants:[ MC.Invariant.mutex ]
      ~constraint_:(Core.Verify.ticket_cap_constraint ~cap:8)
      sys
  in
  (match r.outcome with
  | MC.Explore.Pass -> ()
  | _ -> Alcotest.fail "bakery N=3 satisfies mutex under cap 8");
  check int_t "N=3 cap 8: distinct" 83_881 r.stats.distinct;
  check int_t "N=3 cap 8: generated" 226_717 r.stats.generated;
  check int_t "N=3 cap 8: depth" 155 r.stats.depth

let explore_capacity () =
  let sys = sys_of ~nprocs:2 ~bound:2 (Algorithms.Bakery.program ()) in
  let r = MC.Explore.run ~invariants:[] ~max_states:100 sys in
  match r.outcome with
  | MC.Explore.Capacity -> ()
  | _ -> Alcotest.fail "expected capacity exhaustion"

(* Every later entry of a trace is a move, of the named process and
   label, out of the entry before it. *)
let check_connected what sys (tr : MC.Trace.t) =
  let steps = (MC.System.program sys).Mxlang.Ast.steps in
  let rec walk = function
    | (a : MC.Trace.entry) :: (b : MC.Trace.entry) :: rest ->
        check bool_t (what ^ ": consecutive trace states are connected") true
          (List.exists
             (fun (m : MC.System.move) ->
               m.pid = b.pid
               && steps.(m.from_pc).Mxlang.Ast.step_name = b.step_name
               && MC.State.equal m.dest b.state)
             (MC.System.successors sys a.state));
        walk (b :: rest)
    | _ -> ()
  in
  walk tr

let trace_states_connected () =
  (* Every state in a counterexample trace must follow from its
     predecessor by exactly one move. *)
  let sys = sys_of ~nprocs:2 ~bound:2 (Algorithms.Bakery.program ()) in
  let r = MC.Explore.run ~invariants:[ MC.Invariant.no_overflow ] sys in
  (match r.outcome with
  | MC.Explore.Violation { trace; _ } -> check_connected "bakery" sys trace
  | _ -> Alcotest.fail "expected overflow violation");
  (* So must every path [trace_to] replays out of a graph's levels, and
     it must end at the state the graph stored under that id: every 97th
     id of a capped graph, for every registry model under atomic and
     safe registers.  A model whose weak reads can feed an out-of-range
     index stops its search with [Eval.Error] and has no graph. *)
  let graphs = ref 0 in
  List.iter
    (fun (name, prog) ->
      List.iter
        (fun register_model ->
          let what = name ^ " " ^ Regsem.Model.to_string register_model in
          let sys = MC.System.make ~register_model prog ~nprocs:2 ~bound:2 in
          match MC.Explore.run_graph ~max_states:3_000 sys with
          | exception Mxlang.Eval.Error _ -> ()
          | g, _ ->
              incr graphs;
              let id = ref 0 in
              while !id < MC.Store.length g.store do
                let tr = MC.Explore.trace_to g !id in
                let last = List.nth tr (List.length tr - 1) in
                check bool_t (what ^ ": trace ends at the stored state") true
                  (MC.State.equal last.state (MC.Store.get g.store !id));
                check_connected what sys tr;
                id := !id + 97
              done)
        [ Regsem.Model.Atomic; Regsem.Model.Safe ])
    Harness.Registry.models;
  check bool_t "most models explored under both register models" true
    (!graphs > List.length Harness.Registry.models)

(* What a search keeps per state: bakery_pp at N=3/M=3 packs a state
   into one word, and the arena and the index of 4-byte slots then take
   under 2 words per state (2^17 slots and 11 arena chunks for 82,044
   states), with the level starts a few words in all.  A log word per
   state would add one more; 8-byte slots, another. *)
let run_graph_words () =
  let sys = sys_of ~nprocs:3 ~bound:3 (Core.Bakery_pp_model.program ()) in
  let g, stats = MC.Explore.run_graph sys in
  check int_t "82,044 states" 82_044 stats.distinct;
  let levels = Obj.reachable_words (Obj.repr g.levels) in
  if levels > 1_000 then Alcotest.failf "the level starts hold %d words" levels;
  let words = (MC.Store.arena_bytes g.store / (Sys.word_size / 8)) + levels in
  let per_state = float_of_int words /. float_of_int stats.distinct in
  if per_state >= 2.0 then
    Alcotest.failf "the store and levels hold %.2f words per state" per_state

(* The replay is checked state by state against the stored states: a
   scanned log word with a wrong rank raises instead of returning a
   wrong path. *)
let trace_replay_checks_stored () =
  let sys = sys_of ~nprocs:3 ~bound:2 (Core.Bakery_pp_model.program ()) in
  let g, _ = MC.Explore.run_graph ~max_states:2_000 sys in
  let scanned = MC.Explore.log_of g in
  let target = MC.Store.length g.store - 1 in
  let bad = MC.Explore.log_parent (scanned target) in
  let parent = MC.Explore.log_parent (scanned bad) in
  (* the rank of another move out of [bad]'s parent, one that leads
     elsewhere *)
  let rec wrong rank = function
    | [] -> Alcotest.fail "the parent has no second move"
    | (m : MC.System.move) :: rest ->
        if MC.State.equal m.dest (MC.Store.get g.store bad) then
          wrong (rank + 1) rest
        else rank
  in
  let rank = wrong 0 (MC.System.successors sys (MC.Store.get g.store parent)) in
  let log id =
    if id = bad then MC.Explore.log_word ~parent ~rank else scanned id
  in
  let red = MC.Reduce.make MC.Reduce.Off sys in
  match
    MC.Explore.trace_of sys red ~log ~stored:(MC.Store.get g.store) target
  with
  | _ -> Alcotest.fail "a wrong logged rank must not yield a trace"
  | exception Failure _ -> ()

(* One log word per state holds the parent's id, -1 to 2^32 - 2, and
   the move's rank, below 2^31; either out of range raises.  A rank no
   move has fails the replay. *)
let explore_log_word () =
  List.iter
    (fun (parent, rank) ->
      let w = MC.Explore.log_word ~parent ~rank in
      check
        Alcotest.(pair int int)
        (Printf.sprintf "parent %d, rank %d round-trip" parent rank)
        (parent, rank)
        (MC.Explore.log_parent w, MC.Explore.log_rank w))
    [
      (-1, 0); (0, 0); ((1 lsl 32) - 2, 0); (-1, (1 lsl 31) - 1);
      ((1 lsl 32) - 2, (1 lsl 31) - 1); (12345, 67);
    ];
  List.iter
    (fun (parent, rank) ->
      match MC.Explore.log_word ~parent ~rank with
      | _ -> Alcotest.failf "parent %d, rank %d must raise" parent rank
      | exception Invalid_argument _ -> ())
    [ (0, 1 lsl 31); (0, -1); ((1 lsl 32) - 1, 0); (-2, 0) ];
  let sys = sys_of ~nprocs:2 ~bound:2 (Core.Bakery_pp_model.program ()) in
  let moves = List.length (MC.System.successors sys (MC.System.initial sys)) in
  let log = function
    | 0 -> 0
    | _ -> MC.Explore.log_word ~parent:0 ~rank:moves
  in
  let stored _ = MC.System.initial sys in
  match
    MC.Explore.trace_of sys (MC.Reduce.make MC.Reduce.Off sys) ~log ~stored 1
  with
  | _ -> Alcotest.fail "a rank past the last move must not yield a trace"
  | exception Failure _ -> ()

(* ----------------------------------------------------------- invariants *)

let invariant_combinators () =
  let sys = sys_of (Core.Bakery_pp_model.program ()) in
  let s = MC.System.initial sys in
  check bool_t "mutex holds initially" true
    (MC.Invariant.check MC.Invariant.mutex sys s = None);
  check bool_t "no_overflow holds initially" true
    (MC.Invariant.check MC.Invariant.no_overflow sys s = None);
  let all = MC.Invariant.all [ MC.Invariant.mutex; MC.Invariant.no_overflow ] in
  check bool_t "conjunction holds" true (MC.Invariant.check all sys s = None);
  let broken = MC.Invariant.custom "always-false" (fun _ _ -> false) in
  check bool_t "custom violation reported" true
    (MC.Invariant.check broken sys s = Some "always-false")

let invariant_bounded_by () =
  let sys = sys_of (Core.Bakery_pp_model.program ()) in
  let prog = MC.System.program sys in
  let number = Mxlang.Ast.var_by_name prog "number" in
  let s = MC.System.initial sys in
  let inv0 = MC.Invariant.bounded_by ~var:number ~limit:0 in
  check bool_t "zeros are within limit 0" true
    (MC.Invariant.check inv0 sys s = None);
  let lay = MC.System.layout sys in
  ignore lay;
  s.(0) <- 1;
  (* first shared cell belongs to var 0 (choosing); bump number instead *)
  s.(2) <- 5;
  let invn = MC.Invariant.bounded_by ~var:number ~limit:4 in
  check bool_t "limit 4 violated by 5" true
    (MC.Invariant.check invn sys s <> None)

(* ------------------------------------------------------------ refinement *)

let refinement_self () =
  (* Any system refines itself. *)
  let impl = sys_of ~nprocs:2 ~bound:2 (Core.Bakery_pp_model.program ()) in
  let spec = sys_of ~nprocs:2 ~bound:2 (Core.Bakery_pp_model.program ()) in
  let r = MC.Refine.check ~impl ~spec () in
  check bool_t "self refinement" true r.included

let refinement_negative () =
  (* no_lock does NOT refine peterson2: two-in-CS is observable. *)
  let impl = sys_of ~nprocs:2 (Algorithms.No_lock.program ()) in
  let spec = sys_of ~nprocs:2 (Algorithms.Peterson2.program ()) in
  let r = MC.Refine.check ~impl ~spec () in
  check bool_t "not included" false r.included;
  match r.failure with
  | Some f -> check bool_t "trace nonempty" true (List.length f.impl_trace > 0)
  | None -> Alcotest.fail "failure detail expected"

let refinement_bakery_pp () =
  List.iter
    (fun (bound, pairs, spec_states) ->
      let r = Core.Verify.refines_bakery ~nprocs:2 ~bound () in
      let at = Printf.sprintf " at N=2 M=%d" bound in
      check bool_t ("bakery_pp refines bakery" ^ at) true r.included;
      check bool_t ("search complete" ^ at) true r.complete;
      check int_t ("impl pairs" ^ at) pairs r.impl_pairs;
      check int_t ("spec states" ^ at) spec_states r.spec_states)
    [ (2, 5_244, 910); (3, 7_784, 1_124) ]

(* ---------------------------------------------------------------- lasso *)

let lasso_found_at_gate () =
  let r = Core.Verify.starvation_lasso ~nprocs:3 ~bound:2 () in
  match r.witness with
  | Some w ->
      check bool_t "cycle nonempty" true (List.length w.cycle > 0);
      check bool_t "others enter CS" true (w.cs_entries_in_cycle >= 1)
  | None -> Alcotest.fail "gate lasso expected at N=3 M=2"

let lasso_fair_variant () =
  let r =
    Core.Verify.starvation_lasso ~require_victim_disabled:true ~nprocs:3
      ~bound:2 ()
  in
  match r.witness with
  | Some w ->
      check bool_t "victim disabled somewhere on the cycle" false
        w.victim_continuously_enabled
  | None -> Alcotest.fail "fair gate lasso expected at N=3 M=2"

(* A search cut by its state budget proves no absence: at 5,000 states
   the gate lasso is not yet in the explored prefix, and the report must
   say inconclusive, not "no starvation lasso".  From 10,000 states the
   prefix holds one. *)
let lasso_truncated_is_inconclusive () =
  let r = Core.Verify.starvation_lasso ~max_states:5_000 ~nprocs:3 ~bound:2 () in
  check bool_t "no witness in the prefix" true (r.witness = None);
  check bool_t "search incomplete" false r.complete;
  let sys = Core.Verify.system ~nprocs:3 ~bound:2 () in
  let text = MC.Report.lasso_string sys ~victim:0 r in
  check bool_t "report says inconclusive" true (contains text "INCONCLUSIVE");
  check bool_t "report claims no absence" false
    (contains text "No starvation lasso");
  let r = Core.Verify.starvation_lasso ~max_states:10_000 ~nprocs:3 ~bound:2 () in
  check bool_t "found in a 10,000-state prefix" true (r.witness <> None)

let lasso_none_in_waiting_room () =
  let sys = sys_of ~nprocs:3 ~bound:2 (Core.Bakery_pp_model.program ()) in
  let r =
    MC.Lasso.find ~victim:0
      ~stuck_at:(MC.Lasso.stuck_at_kind Mxlang.Ast.Waiting)
      sys
  in
  check bool_t "FCFS waiting room admits no lasso" true (r.witness = None);
  check bool_t "over the whole graph" true r.complete

let lasso_victim_out_of_range () =
  let sys = sys_of ~nprocs:3 ~bound:2 (Core.Bakery_pp_model.program ()) in
  List.iter
    (fun victim ->
      match
        MC.Lasso.find ~victim
          ~stuck_at:(MC.Lasso.stuck_at_label Core.Bakery_pp_model.gate_label)
          sys
      with
      | _ -> Alcotest.failf "victim %d of 3 processes must be rejected" victim
      | exception Invalid_argument _ -> ())
    [ -1; 3; 5 ]

let lasso_cycle_is_closed () =
  (* The cycle's moves must all be valid transitions and return to the
     cycle's starting state. *)
  let sys = sys_of ~nprocs:3 ~bound:2 (Core.Bakery_pp_model.program ()) in
  let r =
    MC.Lasso.find ~victim:0
      ~stuck_at:(MC.Lasso.stuck_at_label Core.Bakery_pp_model.gate_label)
      sys
  in
  match r.witness with
  | None -> Alcotest.fail "expected lasso"
  | Some w ->
      let start =
        match List.rev w.prefix with
        | last :: _ -> last.MC.Trace.state
        | [] -> Alcotest.fail "prefix empty"
      in
      let final =
        match List.rev w.cycle with
        | last :: _ -> last.MC.Trace.state
        | [] -> Alcotest.fail "cycle empty"
      in
      check bool_t "cycle returns to its entry state" true
        (MC.State.equal start final)

(* ------------------------------------------------------------- parallel *)

let outcome_equal a b =
  match (a, b) with
  | MC.Explore.Pass, MC.Explore.Pass -> true
  | ( MC.Explore.Violation { invariant = i1; trace = t1 },
      MC.Explore.Violation { invariant = i2; trace = t2 } ) ->
      (* Same invariant and same (shortest) counterexample length; the
         exact interleaving may differ between engines. *)
      i1 = i2 && List.length t1 = List.length t2
  | MC.Explore.Deadlock _, MC.Explore.Deadlock _ -> true
  | MC.Explore.Capacity, MC.Explore.Capacity -> true
  | _ -> false

(* Every counterexample either engine reports is replayed from its log
   and checked against its stored states, so agreement here also covers
   the sharded engine's trace reconstruction. *)
let par_agrees_with_sequential () =
  let naive = Harness.Registry.find_model "bakery_mod_naive" in
  let atomic = Regsem.Model.Atomic in
  let cases =
    [
      (Core.Bakery_pp_model.program (), 2, 2, atomic, None);
      (Core.Bakery_pp_model.program (), 3, 2, atomic, None);
      (Algorithms.Bakery.program (), 2, 2, atomic, None);
      (Algorithms.No_lock.program (), 2, 4, atomic, None);
      ( Algorithms.Bakery.program (),
        2,
        2,
        atomic,
        Some (Core.Verify.ticket_cap_constraint ~cap:4) );
      (naive, 3, 2, atomic, None);
      (naive, 3, 2, Regsem.Model.Safe, None);
    ]
  in
  List.iter
    (fun (prog, n, m, register_model, constraint_) ->
      let sys = MC.System.make ~register_model prog ~nprocs:n ~bound:m in
      let seq = MC.Explore.run ?constraint_ sys in
      List.iter
        (fun domains ->
          let what =
            Printf.sprintf "%s N=%d M=%d %s (%d domains)" prog.Mxlang.Ast.title
              n m
              (Regsem.Model.to_string register_model)
              domains
          in
          let par = MC.Par_explore.run ?constraint_ ~domains sys in
          check bool_t (what ^ ": same outcome") true
            (outcome_equal seq.outcome par.outcome);
          (* Exact state counts are guaranteed on a full exploration;
             on a violation the engines stop mid-wave at different
             points (the sharded engine keeps inserting until the stop
             flag propagates), so only the outcome is pinned. *)
          if seq.outcome = MC.Explore.Pass then
            check int_t (what ^ ": same state count") seq.stats.distinct
              par.stats.distinct)
        [ 1; 3 ])
    cases;
  (* At scale: safe Bakery++ at N=3/M=3 on 2 domains, the sequential
     engine's 528,663 states. *)
  let sys =
    MC.System.make ~register_model:Regsem.Model.Safe
      (Core.Bakery_pp_model.program ())
      ~nprocs:3 ~bound:3
  in
  let r = MC.Par_explore.run ~domains:2 sys in
  check bool_t "bakery_pp N=3 M=3 safe (2 domains): passes" true
    (r.outcome = MC.Explore.Pass);
  check int_t "bakery_pp N=3 M=3 safe (2 domains): state count" 528_663
    r.stats.distinct

(* ----------------------------------------------------------------- wave *)

(* 100,000 items through a frontier of at most 16: 16 roots, and each
   item pushes one more until 100,000 have been pushed, so every level
   holds 16 items.  The wave keeps only its frontier, a few dozen words,
   where keeping every item pushed would hold about 100,000; depth and
   the per-level frontier are unchanged. *)
let wave_holds_frontier () =
  let n = 100_000 and width = 16 in
  let w = MC.Wave.create () in
  for i = 0 to width - 1 do
    MC.Wave.push w i
  done;
  let pushed = ref width and seen = ref 0 and widest = ref 0 in
  let waves = ref [] in
  MC.Wave.drive
    ~on_wave:(fun ~depth ~frontier -> waves := (depth, frontier) :: !waves)
    w
    (fun x ->
      if x <> !seen then Alcotest.failf "item %d handed out as %d" !seen x;
      incr seen;
      if !pushed < n then begin
        MC.Wave.push w !pushed;
        incr pushed
      end;
      if !seen mod 10_000 = 0 then
        widest := max !widest (Obj.reachable_words (Obj.repr w)));
  check int_t "every item handed out once" n !seen;
  let levels = n / width in
  check int_t "depth" (levels - 1) (MC.Wave.depth w);
  check
    Alcotest.(list (pair int int))
    "one on_wave per level, each with the full frontier"
    (List.init (levels - 1) (fun d -> (d + 1, width)))
    (List.rev !waves);
  let words = max !widest (Obj.reachable_words (Obj.repr w)) in
  if words >= 1_000 then
    Alcotest.failf "the wave holds %d words for a frontier of %d" words width

(* ---------------------------------------------------------------- store *)

(* The one visited-set table, driven directly: growth past the point
   where the index starts to quadruple, and tag collisions from real
   keys. *)
let store_one_table () =
  (* 200,000 states pass 2^18 slots (full at 174,763), where growth
     switches from doubling to quadrupling, and land in 2^20 slots,
     where a key tag has 12 bits: real keys then collide on their tags,
     and the store tells the states apart by content. *)
  let n = 200_000 in
  let state i = [| i; i lxor 0x5555; i * 7 |] in
  let big = MC.Store.create () in
  for i = 0 to n - 1 do
    if MC.Store.add big (state i) <> Some i then
      Alcotest.failf "insert %d did not get id %d" i i
  done;
  check int_t "all states kept" n (MC.Store.length big);
  check bool_t "load factor at most 2/3" true
    (MC.Store.load_factor big <= 2.0 /. 3.0);
  check int_t "2^20 four-byte slots" (4 lsl 20)
    (MC.Store.arena_bytes big - (25 * 8192 * 8));
  check bool_t "some inserts passed a distinct state under their tag" true
    (MC.Store.collisions big > 0);
  let buf = Array.make 3 0 in
  for i = 0 to n - 1 do
    MC.Store.read_into big i buf;
    if not (MC.State.equal buf (state i)) then
      Alcotest.failf "read_into %d does not round-trip" i;
    if MC.Store.probe big (state i) <> i then
      Alcotest.failf "probe misses state %d after growth" i
  done;
  check int_t "an absent state misses" (-1) (MC.Store.probe big (state n));
  (* The extremes of int round-trip, whichever comes first: a field
     whose range must span min_int..max_int gets a word of its own. *)
  let extremes =
    [|
      [| -1; 0; max_int; min_int |];
      [| 0; -1; min_int; max_int |];
      [| max_int; min_int; -1; 0 |];
      [| min_int; max_int; 0; -1 |];
      [| 0; 0; 0; 0 |];
      [| -1; -1; -1; -1 |];
    |]
  in
  let wide = MC.Store.create () in
  Array.iteri
    (fun i s ->
      check
        Alcotest.(option int)
        (Printf.sprintf "extreme state %d is new" i)
        (Some i) (MC.Store.add wide s))
    extremes;
  let buf = Array.make 4 0 in
  Array.iteri
    (fun i s ->
      check bool_t (Printf.sprintf "get %d round-trips" i) true
        (MC.State.equal s (MC.Store.get wide i));
      MC.Store.read_into wide i buf;
      check bool_t (Printf.sprintf "read_into %d round-trips" i) true
        (MC.State.equal s buf);
      check int_t (Printf.sprintf "extreme state %d probes to itself" i) i
        (MC.Store.probe wide s))
    extremes;
  (* A field that first leaves its range after 10,000 stored states:
     the store widens it and re-encodes every earlier state, which must
     still read back and probe to its own id. *)
  let m = 10_000 in
  let late i = [| i land 7; i; (if i < m then 3 else -(i * 1000)); 1 |] in
  (* the same with the last two fields siblings, which widen together *)
  List.iter
    (fun siblings ->
      let grown = MC.Store.create () in
      Option.iter (MC.Store.set_siblings grown) siblings;
      for i = 0 to m + 99 do
        if MC.Store.add grown (late i) <> Some i then
          Alcotest.failf "late-widening insert %d did not get id %d" i i
      done;
      let buf = Array.make 4 0 in
      for i = 0 to m + 99 do
        let s = late i in
        if not (MC.State.equal s (MC.Store.get grown i)) then
          Alcotest.failf "get %d does not round-trip after widening" i;
        MC.Store.read_into grown i buf;
        if not (MC.State.equal s buf) then
          Alcotest.failf "read_into %d does not round-trip after widening" i;
        if MC.Store.probe grown s <> i then
          Alcotest.failf "probe misses state %d after widening" i
      done;
      check int_t "a state beyond every range misses" (-1)
        (MC.Store.probe grown [| 8; -1; max_int; 2 |]))
    [ None; Some [| 0; 1; 2; 2 |] ];
  Alcotest.check_raises "siblings for another length"
    (Invalid_argument "Store: siblings and states differ in length")
    (fun () ->
      let st = MC.Store.create () in
      MC.Store.set_siblings st [| 0 |];
      ignore (MC.Store.add st [| 1; 2 |]))

(* Packed states with learned widths: 2^17 distinct 16-field states
   whose values are below 8 need 48 bits each, one arena word, and the
   index keeps no keys, so the whole store holds at most 16 B per
   state: 8 in the arena and 8 in 2^18 four-byte slots, where 8-byte
   slots took 24 and the unpacked arena alone 128. *)
let store_memory_floor () =
  let n = 1 lsl 17 in
  let st = MC.Store.create () in
  for i = 0 to n - 1 do
    let s = Array.init 16 (fun f -> (i lsr (3 * f)) land 7) in
    if MC.Store.add st s <> Some i then Alcotest.failf "state %d not new" i
  done;
  let per_state = MC.Store.arena_bytes st / MC.Store.length st in
  if per_state > 16 then
    Alcotest.failf "%d B per stored state, more than 16" per_state

(* ---------------------------------------------- sharding / fingerprints *)

(* 1 shard and 3 (non-power-of-two, so the mod/div routing is
   exercised); stored states read back. *)
let shard_table_basics () =
  let sys = sys_of (Core.Bakery_pp_model.program ()) in
  let words = (MC.System.layout sys).MC.State.words in
  let s0 = MC.System.initial sys in
  (* past 2/3 of every shard's 4,096 initial slots, so each one grows *)
  let states = Array.init 10_000 (fun i -> Array.make words (i + 7)) in
  List.iter
    (fun nshards ->
      let tbl =
        MC.Shard_table.create ~mode:MC.Shard_table.Exact ~nshards ~words ()
      in
      let label msg = Printf.sprintf "%d shard(s): %s" nshards msg in
      let insert s =
        let fp = MC.Shard_table.fingerprint tbl s in
        MC.Shard_table.insert tbl ~shard:(MC.Shard_table.owner tbl fp) ~fp s
      in
      let local = insert s0 in
      check int_t (label "first insert gets local id 0") 0 local;
      check int_t (label "duplicate insert returns -1") (-1) (insert s0);
      let sh = MC.Shard_table.owner tbl (MC.Shard_table.fingerprint tbl s0) in
      let gid = MC.Shard_table.gid tbl ~shard:sh ~local in
      check int_t (label "gid round-trips shard") sh
        (MC.Shard_table.shard_of_gid tbl gid);
      check int_t (label "gid round-trips local") local
        (MC.Shard_table.local_of_gid tbl gid);
      check bool_t (label "stored state reads back") true
        (MC.State.equal s0 (MC.Shard_table.get tbl ~shard:sh local));
      check int_t (label "total counts the one state") 1
        (MC.Shard_table.total tbl);
      Array.iter
        (fun s ->
          check bool_t (label "bulk insert is new") true (insert s >= 0))
        states;
      let n = Array.length states in
      check int_t (label "total after bulk") (n + 1) (MC.Shard_table.total tbl);
      Array.iter
        (fun s -> check int_t (label "bulk reinsert dedups") (-1) (insert s))
        states;
      let mn, mx = MC.Shard_table.occupancy tbl in
      check bool_t (label "occupancy sums to total") true
        (mn > 0 && mx >= mn && MC.Shard_table.total tbl = n + 1);
      check int_t (label "no collisions under the real fingerprint") 0
        (MC.Shard_table.collisions tbl))
    [ 1; 3 ]

(* A pathological hash maps every state to one fingerprint.  The
   fingerprint only routes, so every state lands in one shard of two;
   that shard's store keys its states itself, and the search finds the
   same states as the sequential engine. *)
let collision_injection () =
  let bad (_ : MC.State.packed) = 42 in
  let sys = sys_of ~nprocs:2 ~bound:2 (Core.Bakery_pp_model.program ()) in
  let seq = MC.Explore.run sys in
  let m = Telemetry.Metrics.create () in
  let par = MC.Par_explore.run ~domains:2 ~hash:bad ~metrics:m sys in
  check bool_t "outcome unchanged under total collision" true
    (seq.outcome = MC.Explore.Pass && par.outcome = MC.Explore.Pass);
  check int_t "same distinct count" seq.stats.distinct par.stats.distinct;
  check int_t "same generated count" seq.stats.generated par.stats.generated;
  let g name = Telemetry.Metrics.gauge_value (Telemetry.Metrics.gauge m name) in
  check bool_t "every state in shard 0, none in shard 1" true
    (g "par_explore.shard_occupancy_min" = 0.0
    && g "par_explore.shard_occupancy_max" = float_of_int seq.stats.distinct)

(* Hand-off batches go back to the domain that allocated them, so a
   domain that sends far more than it receives still refills from its
   own.  Shard 1 owns seven states in eight here.  Domain 0 expands
   only shard 0's eighth of the states, hands most of their successors
   to shard 1, and gets little back in its inbox. *)
let handoff_batches_return_to_owner () =
  let sys =
    MC.System.make ~register_model:Regsem.Model.Safe
      (Core.Bakery_pp_model.program ())
      ~nprocs:3 ~bound:3
  in
  let skewed s =
    let fp = MC.Fingerprint.hash s in
    if (fp lsr 1) land 7 = 0 then fp land lnot 1 else fp lor 1
  in
  let m = Telemetry.Metrics.create () in
  let r = MC.Par_explore.run ~domains:2 ~hash:skewed ~metrics:m sys in
  check int_t "skewed shards: state count" 528_663 r.stats.distinct;
  let c name =
    Telemetry.Metrics.counter_value (Telemetry.Metrics.counter m name)
  in
  let occupancy name =
    Telemetry.Metrics.gauge_value (Telemetry.Metrics.gauge m name)
  in
  check bool_t "shard 0 holds under a fifth of the states" true
    (5. *. occupancy "par_explore.shard_occupancy_min"
    < occupancy "par_explore.shard_occupancy_max");
  let allocated = c "par_explore.batches_allocated" in
  let handed = c "par_explore.handoff_batches" in
  check bool_t "some batch was allocated" true (allocated >= 1);
  if 10 * allocated > handed then
    Alcotest.failf "%d batches allocated for %d handed off (limit: a tenth)"
      allocated handed

(* Words a run allocates, minor and major, a promoted word counted
   once. *)
let allocated_words f =
  Gc.compact ();
  let minor0, promoted0, major0 = Gc.counters () in
  let r = f () in
  let minor1, promoted1, major1 = Gc.counters () in
  (r, minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0))

(* Each shard's frontier is one local id per state, decoded from the
   owner's store when expanded, as the sequential engine's wave is.
   Keeping each frontier state unpacked instead, as an engine whose
   domains steal each other's frontier must, allocates 1.16 times the
   sequential search's words here. *)
let par_allocates_no_more_than_seq () =
  let sys =
    MC.System.make ~register_model:Regsem.Model.Safe
      (Core.Bakery_pp_model.program ())
      ~nprocs:3 ~bound:3
  in
  let seq, seq_words = allocated_words (fun () -> MC.Explore.run sys) in
  let par, par_words =
    allocated_words (fun () -> MC.Par_explore.run ~domains:1 sys)
  in
  check int_t "sequential state count" 528_663 seq.stats.distinct;
  check int_t "sharded state count" 528_663 par.stats.distinct;
  if par_words > seq_words then
    Alcotest.failf "one domain allocated %.0f words, the sequential search %.0f"
      par_words seq_words

(* One domain expands its shard's frontier last in first out, as every
   earlier sharded engine did, so a violation stops at the same point:
   the counts pin the expansion order. *)
let par_one_domain_violation_counts () =
  let sys =
    MC.System.make (Harness.Registry.find_model "bakery_mod_naive") ~nprocs:3
      ~bound:2
  in
  let r = MC.Par_explore.run ~domains:1 sys in
  (match r.outcome with
  | MC.Explore.Violation { invariant; _ } ->
      check Alcotest.string "violated invariant" "mutual-exclusion" invariant
  | o -> Alcotest.failf "expected a violation, got %s" (MC.Explore.outcome_tag o));
  check int_t "distinct" 15_201 r.stats.distinct;
  check int_t "generated" 41_752 r.stats.generated;
  check int_t "depth" 33 r.stats.depth

(* A sharded counterexample's parent links come from the level above,
   not from whichever domain inserted a state first: each step's parent
   is the first state of the level above, in (shard, local id) order,
   with a move to it.  A hash that routes every state to shard 1 of 2
   makes that order reproducible here: shard 1's owner alone inserts,
   expanding each level from its top local id down, so its levels can
   be rebuilt move by move.  The domain that inserted a state first
   expanded the last of its parents in that order. *)
let par_trace_parents_in_shard_order () =
  let sys =
    MC.System.make (Harness.Registry.find_model "bakery_mod_naive") ~nprocs:3
      ~bound:2
  in
  let hash s = MC.Fingerprint.hash s lor 1 in
  let trace =
    match (MC.Par_explore.run ~domains:2 ~hash sys).outcome with
    | MC.Explore.Violation { trace; _ } -> Array.of_list trace
    | o -> Alcotest.failf "expected a violation, got %s" (MC.Explore.outcome_tag o)
  in
  let moves_to (b : MC.State.packed) a =
    List.exists
      (fun (m : MC.System.move) -> MC.State.equal m.dest b)
      (MC.System.successors sys a)
  in
  let seen = Hashtbl.create 4096 in
  let level = ref [| MC.System.initial sys |] and choices = ref 0 in
  Hashtbl.replace seen !level.(0) ();
  for k = 1 to Array.length trace - 1 do
    (match List.filter (moves_to trace.(k).state) (Array.to_list !level) with
    | [] -> Alcotest.failf "no state of level %d moves to step %d" (k - 1) k
    | first :: rest ->
        check bool_t
          (Printf.sprintf "step %d's parent is the first with a move to it" k)
          true
          (MC.State.equal first trace.(k - 1).state);
        if rest <> [] then incr choices);
    let next = ref [] in
    for i = Array.length !level - 1 downto 0 do
      List.iter
        (fun (m : MC.System.move) ->
          if not (Hashtbl.mem seen m.dest) then begin
            Hashtbl.replace seen m.dest ();
            next := m.dest :: !next
          end)
        (MC.System.successors sys !level.(i))
    done;
    level := Array.of_list (List.rev !next)
  done;
  check bool_t "some step had more than one parent to choose from" true
    (!choices > 0)

let par_deadlock () =
  let b = Mxlang.Builder.create ~title:"stuck_par" in
  let l = Mxlang.Builder.fresh_label b "l" in
  Mxlang.Builder.define b l ~kind:Mxlang.Ast.Plain
    [ Mxlang.Builder.action ~guard:Mxlang.Ast.False l ];
  let prog = Mxlang.Builder.build b in
  let sys = sys_of ~nprocs:1 prog in
  match (MC.Par_explore.run ~invariants:[] ~domains:2 sys).outcome with
  | MC.Explore.Deadlock _ -> ()
  | _ -> Alcotest.fail "parallel engine must detect the deadlock"

(* --------------------------------------------------------- weak registers *)

(* Test-and-set in one atomic action: mutex-safe over atomic registers,
   impossible over weak ones — the guard's read of [lock] can overlap
   the other process's in-flight write and return a stale 0, letting
   both processes through.  The classic atomic/non-atomic separation
   the regsem layer must reproduce. *)
let tas_program () =
  let b = Mxlang.Builder.create ~title:"tas_toy" in
  let lock = Mxlang.Builder.shared b "lock" ~size:1 ~bounded:true () in
  let try_ = Mxlang.Builder.fresh_label b "try" in
  let cs = Mxlang.Builder.fresh_label b "cs" in
  let rd0 = Mxlang.Ast.Rd (lock, Mxlang.Ast.Int 0) in
  Mxlang.Builder.define b try_ ~kind:Mxlang.Ast.Entry
    [
      Mxlang.Builder.action
        ~guard:(Mxlang.Ast.Cmp (Mxlang.Ast.Ceq, rd0, Mxlang.Ast.Int 0))
        ~effects:[ (Mxlang.Ast.Sh (lock, Mxlang.Ast.Int 0), Mxlang.Ast.Int 1) ]
        cs;
    ];
  Mxlang.Builder.define b cs ~kind:Mxlang.Ast.Critical
    [
      Mxlang.Builder.action
        ~effects:[ (Mxlang.Ast.Sh (lock, Mxlang.Ast.Int 0), Mxlang.Ast.Int 0) ]
        try_;
    ];
  Mxlang.Builder.build b

let weak_model_separates_tas () =
  let prog = tas_program () in
  let atomic =
    MC.System.make ~register_model:Regsem.Model.Atomic prog ~nprocs:2 ~bound:2
  in
  (match (MC.Explore.run ~invariants:[ MC.Invariant.mutex ] atomic).outcome with
  | MC.Explore.Pass -> ()
  | o ->
      Alcotest.failf "TAS must be mutex-safe atomically, got %s"
        (MC.Explore.outcome_tag o));
  List.iter
    (fun model ->
      let sys = MC.System.make ~register_model:model prog ~nprocs:2 ~bound:2 in
      match (MC.Explore.run ~invariants:[ MC.Invariant.mutex ] sys).outcome with
      | MC.Explore.Violation { invariant; trace } ->
          check Alcotest.string "mutex broken" "mutual-exclusion" invariant;
          (* shortest interleaving: both write-starts (each reading the
             stale 0), then both commits — BFS must find exactly it *)
          check int_t
            (Regsem.Model.to_string model ^ " counterexample is shortest")
            5 (MC.Trace.length trace)
      | o ->
          Alcotest.failf "TAS must break under %s registers, got %s"
            (Regsem.Model.to_string model)
            (MC.Explore.outcome_tag o))
    [ Regsem.Model.Regular; Regsem.Model.Safe ]

let weak_counterexample_replays () =
  let prog = tas_program () in
  let run () =
    let sys =
      MC.System.make ~register_model:Regsem.Model.Safe prog ~nprocs:2 ~bound:2
    in
    (sys, MC.Explore.run ~invariants:[ MC.Invariant.mutex ] sys)
  in
  let sys, r1 = run () in
  let _, r2 = run () in
  match (r1.outcome, r2.outcome) with
  | ( MC.Explore.Violation { trace = t1; _ },
      MC.Explore.Violation { trace = t2; _ } ) ->
      (* bit-identical across runs... *)
      check int_t "same length" (MC.Trace.length t1) (MC.Trace.length t2);
      List.iter2
        (fun (a : MC.Trace.entry) (b : MC.Trace.entry) ->
          check int_t "same pid" a.pid b.pid;
          check bool_t "same state" true (MC.State.equal a.state b.state))
        t1 t2;
      (* ...and every step replays as a real move of the weak system *)
      let rec walk = function
        | (a : MC.Trace.entry) :: b :: rest ->
            check bool_t "connected under the weak semantics" true
              (List.exists
                 (fun (mv : MC.System.move) ->
                   MC.State.equal mv.dest b.MC.Trace.state)
                 (MC.System.successors sys a.state));
            walk (b :: rest)
        | _ -> ()
      in
      walk t1
  | _ -> Alcotest.fail "expected a Safe-register counterexample twice"

(* ------------------------------------------------------------- coverage *)

let coverage_counts () =
  let sys = sys_of ~nprocs:2 ~bound:2 (Core.Bakery_pp_model.program ()) in
  let c = MC.Coverage.measure sys in
  check int_t "stored transitions at N=2 M=2" 1_948 c.total_transitions;
  check bool_t "graph complete" true c.complete;
  let c3 =
    MC.Coverage.measure (sys_of ~nprocs:3 ~bound:2 (Core.Bakery_pp_model.program ()))
  in
  check int_t "stored transitions at N=3 M=2" 128_138 c3.total_transitions;
  let fired name =
    (List.find (fun (e : MC.Coverage.entry) -> e.step_name = name) c.entries)
      .fired
  in
  check bool_t "cs fired" true (fired "cs" > 0);
  check bool_t "reset fired at M=2" true (fired "reset" > 0);
  check (Alcotest.list Alcotest.string) "full coverage at N=2 M=2" []
    (MC.Coverage.uncovered c)

(* A label unfired in a truncated graph is not dead code: with the
   budget cut at 200 states, coverage must not print "never fired". *)
let coverage_truncated_is_inconclusive () =
  let sys = sys_of ~nprocs:3 ~bound:2 (Core.Bakery_pp_model.program ()) in
  let c = MC.Coverage.measure ~max_states:200 sys in
  check bool_t "graph incomplete" false c.complete;
  check bool_t "some label unfired" true (MC.Coverage.uncovered c <> []);
  let text = Format.asprintf "%a" MC.Coverage.pp c in
  check bool_t "says inconclusive" true (contains text "INCONCLUSIVE");
  check bool_t "claims no dead label" false (contains text "never fired")

let coverage_uncovered_solo () =
  (* With one process the overflow machinery never fires: max is always
     0, so reset is dead — coverage should say so. *)
  let sys = sys_of ~nprocs:1 ~bound:3 (Core.Bakery_pp_model.program ()) in
  let c = MC.Coverage.measure sys in
  check bool_t "reset uncovered at N=1" true
    (List.mem "reset" (MC.Coverage.uncovered c))

(* ------------------------------------------------------------------ dot *)

let dot_export () =
  let sys = sys_of ~nprocs:2 ~bound:2 (Algorithms.No_lock.program ()) in
  let dot = MC.Dot.of_system sys in
  check bool_t "digraph header" true (contains dot "digraph");
  check bool_t "nodes present" true (contains dot "s0 [");
  check bool_t "critical highlighted" true (contains dot "lightcoral");
  check bool_t "edges labeled" true (contains dot "p0:");
  (* 9 states for 2-process no_lock; no truncation marker *)
  check bool_t "no truncation at 9 states" false (contains dot "truncated")

let dot_truncation () =
  let sys = sys_of ~nprocs:2 ~bound:3 (Core.Bakery_pp_model.program ()) in
  let dot = MC.Dot.of_system ~max_states:20 sys in
  check bool_t "truncation marked" true (contains dot "truncated")

let dot_trace () =
  let sys = sys_of ~nprocs:2 (Algorithms.No_lock.program ()) in
  let r = MC.Explore.run ~invariants:[ MC.Invariant.mutex ] sys in
  match r.outcome with
  | MC.Explore.Violation { trace; _ } ->
      let dot = MC.Dot.of_trace sys trace in
      check bool_t "trace path rendered" true (contains dot "t0 -> t1")
  | _ -> Alcotest.fail "expected violation"

(* --------------------------------------------------------------- reduce *)

module State_tbl = Hashtbl.Make (struct
  type t = MC.State.packed

  let equal = MC.State.equal
  let hash = MC.State.hash
end)

let orbit_count red (g : MC.Explore.graph) =
  let orbits = State_tbl.create 256 in
  for id = 0 to MC.Store.length g.store - 1 do
    let c, _ = MC.Reduce.canon red (MC.Store.get g.store id) in
    if not (State_tbl.mem orbits c) then State_tbl.add orbits c ()
  done;
  State_tbl.length orbits

(* Every later trace entry must be an actual move of the named process
   with the named label — the claim de-canonicalization could break. *)
let trace_genuine sys (tr : MC.Trace.t) =
  match tr with
  | [] -> false
  | first :: rest ->
      let steps = (MC.System.program sys).Mxlang.Ast.steps in
      MC.State.equal first.MC.Trace.state (MC.System.initial sys)
      && fst
           (List.fold_left
              (fun (ok, cur) (e : MC.Trace.entry) ->
                if not ok then (false, cur)
                else
                  ( List.exists
                      (fun (m : MC.System.move) ->
                        steps.(m.MC.System.from_pc).Mxlang.Ast.step_name
                        = e.step_name
                        && MC.State.equal m.MC.System.dest e.state)
                      (MC.System.successors_of_pid sys cur e.pid),
                    e.state ))
              (true, first.MC.Trace.state)
              rest)

let reduce_certifier_classifications () =
  let expect_sym = [ "ticket"; "ticket_mod"; "tas"; "no_lock" ] in
  let expect_asym =
    [ "bakery"; "bakery_pp"; "bakery_mod_naive"; "peterson2"; "szymanski" ]
  in
  List.iter
    (fun name ->
      match MC.Reduce.certify (Harness.Registry.find_model name) with
      | Ok () -> ()
      | Error r -> Alcotest.failf "%s should certify symmetric, got: %s" name r)
    expect_sym;
  List.iter
    (fun name ->
      match MC.Reduce.certify (Harness.Registry.find_model name) with
      | Ok () -> Alcotest.failf "%s should fail the symmetry certificate" name
      | Error r ->
          check bool_t (name ^ " has a reason") true (String.length r > 0))
    expect_asym

let reduce_equivalence_ticket_mod () =
  let sys = sys_of ~nprocs:3 ~bound:3 (Harness.Registry.find_model "ticket_mod") in
  let full = MC.Explore.run sys in
  let sym = MC.Explore.run ~reduce:MC.Reduce.Sym sys in
  let por = MC.Explore.run ~reduce:MC.Reduce.Sym_por sys in
  (match (full.outcome, sym.outcome, por.outcome) with
  | MC.Explore.Pass, MC.Explore.Pass, MC.Explore.Pass -> ()
  | _ -> Alcotest.fail "ticket_mod n3 m3 must Pass under all three searches");
  check bool_t "sym quotient is smaller" true
    (sym.stats.distinct < full.stats.distinct);
  check bool_t "por cuts further" true (por.stats.distinct <= sym.stats.distinct);
  (* exactness: one stored representative per orbit of the full set *)
  let g, _ = MC.Explore.run_graph sys in
  let red = MC.Reduce.make MC.Reduce.Sym sys in
  check bool_t "certificate accepted" true (MC.Reduce.symmetry_active red);
  check int_t "orbit count equals sym distinct" (orbit_count red g)
    sym.stats.distinct

let reduce_fallback_identity () =
  (* bakery_pp's id tie-break fails the certificate: sym must silently
     run the identity search, bit-identical counts included. *)
  let sys = sys_of ~nprocs:2 ~bound:2 (Core.Bakery_pp_model.program ()) in
  let red = MC.Reduce.make MC.Reduce.Sym sys in
  check bool_t "symmetry inactive" false (MC.Reduce.symmetry_active red);
  check bool_t "reason reported" true
    (MC.Reduce.asymmetry_reason red <> None);
  let full = MC.Explore.run sys in
  let sym = MC.Explore.run ~reduce:MC.Reduce.Sym sys in
  check int_t "distinct identical" full.stats.distinct sym.stats.distinct;
  check int_t "generated identical" full.stats.generated sym.stats.generated;
  check int_t "depth identical" full.stats.depth sym.stats.depth

let reduce_trace_genuine () =
  (* ticket n2 m2 overflows; the de-canonicalized counterexample must
     replay as a genuine run in original pids, under both modes. *)
  let sys = sys_of ~nprocs:2 ~bound:2 (Harness.Registry.find_model "ticket") in
  List.iter
    (fun mode ->
      let r = MC.Explore.run ~reduce:mode sys in
      match r.outcome with
      | MC.Explore.Violation { trace; _ } ->
          check bool_t
            (MC.Reduce.mode_to_string mode ^ " trace is genuine")
            true (trace_genuine sys trace)
      | _ -> Alcotest.fail "expected a no-overflow violation")
    [ MC.Reduce.Sym; MC.Reduce.Sym_por ]

let reduce_weak_registers () =
  (* Safe registers: canon composes with the two-phase layout (pending
     slots included); quotient verdict and orbit count must match. *)
  let prog = Harness.Registry.find_model "ticket_mod" in
  let sys =
    MC.System.make ~register_model:Regsem.Model.Safe prog ~nprocs:2 ~bound:2
  in
  let full = MC.Explore.run sys in
  let sym = MC.Explore.run ~reduce:MC.Reduce.Sym sys in
  check bool_t "verdicts agree under safe registers" true
    (MC.Explore.outcome_tag full.outcome = MC.Explore.outcome_tag sym.outcome);
  match full.outcome with
  | MC.Explore.Pass ->
      let g, _ = MC.Explore.run_graph sys in
      let red = MC.Reduce.make MC.Reduce.Sym sys in
      check bool_t "certificate accepted under weak model" true
        (MC.Reduce.symmetry_active red);
      check int_t "weak orbit count equals sym distinct" (orbit_count red g)
        sym.stats.distinct
  | _ -> ()

(* Group-action laws, property-tested over the certified symmetric
   fragment the fuzzer draws from.  n = 3 keeps all 6 permutations
   checkable explicitly. *)
let perms3 =
  [
    [| 0; 1; 2 |]; [| 0; 2; 1 |]; [| 1; 0; 2 |];
    [| 1; 2; 0 |]; [| 2; 0; 1 |]; [| 2; 1; 0 |];
  ]

let prop_reduce_group_action =
  QCheck.Test.make ~name:"canon is an orbit normal form (symmetric programs)"
    ~count:30
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let rng = Prng.Rng.create seed in
      let prog =
        Fuzz.Gen.program_symmetric rng
          { Fuzz.Gen.g_nprocs = 3; g_bound = 2; g_max_steps = 4 }
      in
      (match MC.Reduce.certify prog with
      | Ok () -> ()
      | Error r ->
          QCheck.Test.fail_reportf "program_symmetric not certified: %s" r);
      let sys = MC.System.make prog ~nprocs:3 ~bound:2 in
      let red = MC.Reduce.make MC.Reduce.Sym sys in
      if not (MC.Reduce.symmetry_active red) then
        QCheck.Test.fail_report "reduction inactive on a certified program";
      let g, _ = MC.Explore.run_graph ~max_states:2_000 sys in
      let mutex = MC.Invariant.mutex and no_ovf = MC.Invariant.no_overflow in
      let n = min 60 (MC.Store.length g.store) in
      for i = 0 to n - 1 do
        let s = MC.Store.get g.store i in
        let c, perm = MC.Reduce.canon red s in
        (* idempotence *)
        let c2, _ = MC.Reduce.canon red c in
        if not (MC.State.equal c2 c) then
          QCheck.Test.fail_report "canon not idempotent";
        (* the stored permutation de-canonicalizes: applying its inverse
           to the representative recovers the original state *)
        let back = MC.Reduce.permute red ~perm:(MC.Reduce.invert perm) c in
        if not (MC.State.equal back s) then
          QCheck.Test.fail_report "stored permutation does not round-trip";
        (* invariant truth is a property of the orbit *)
        if
          mutex.holds sys s <> mutex.holds sys c
          || no_ovf.holds sys s <> no_ovf.holds sys c
        then QCheck.Test.fail_report "canon changed an invariant's truth";
        (* orbit invariance: every permuted copy canonicalizes equally *)
        List.iter
          (fun p ->
            let cp, _ = MC.Reduce.canon red (MC.Reduce.permute red ~perm:p s) in
            if not (MC.State.equal cp c) then
              QCheck.Test.fail_report "canon not constant on an orbit")
          perms3
      done;
      true)

(* Reference orbit representative, computed the direct way: build every
   block's key tuple (pc, per-process cells, locals with live pending
   indices read as 0), stable-sort the block indices by it, then move
   each block to its slot and rename its live pending indices to the
   slot.  The in-place sort must pick exactly this representative and
   slot map. *)
let reference_canon sys (s : MC.State.packed) =
  let lay = MC.System.layout sys in
  let env = lay.MC.State.env in
  let p = env.Mxlang.Eval.program in
  let n = lay.MC.State.nprocs and lp = lay.MC.State.locals_per in
  let per_process =
    List.filter (fun v -> p.var_sizes.(v) = -1) (List.init p.nvars Fun.id)
  in
  let cols =
    lay.MC.State.pcs_off
    :: List.map (fun v -> env.Mxlang.Eval.offsets.(v)) per_process
  in
  let pend =
    match MC.System.two_phase_meta sys with
    | None -> []
    | Some meta ->
        List.concat_map
          (fun v ->
            Array.to_list
              (Array.map fst meta.Regsem.Two_phase.tp_pend.(v)))
          per_process
  in
  let block i = lay.MC.State.locals_off + (i * lp) in
  let key i =
    List.map (fun c -> s.(c + i)) cols
    @ List.init lp (fun l ->
          let x = s.(block i + l) in
          if List.mem l pend && x >= 0 then 0 else x)
  in
  let perm =
    Array.of_list
      (List.stable_sort
         (fun a b -> compare (key a) (key b))
         (List.init n Fun.id))
  in
  let out = Array.copy s in
  Array.iteri
    (fun j i ->
      List.iter (fun c -> out.(c + j) <- s.(c + i)) cols;
      Array.blit s (block i) out (block j) lp;
      List.iter
        (fun l -> if out.(block j + l) >= 0 then out.(block j + l) <- j)
        pend)
    perm;
  (out, perm)

let prop_canonizer_matches_reference =
  QCheck.Test.make
    ~name:"canonizer = canon = key-tuple stable sort (atomic and safe)"
    ~count:30
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let rng = Prng.Rng.create seed in
      let prog =
        Fuzz.Gen.program_symmetric rng
          { Fuzz.Gen.g_nprocs = 3; g_bound = 2; g_max_steps = 4 }
      in
      List.iter
        (fun register_model ->
          let sys =
            MC.System.make ~register_model prog ~nprocs:3 ~bound:2
          in
          let red = MC.Reduce.make MC.Reduce.Sym sys in
          if not (MC.Reduce.symmetry_active red) then
            QCheck.Test.fail_report "reduction inactive on a certified program";
          let canonize = MC.Reduce.canonizer red in
          let g, _ = MC.Explore.run_graph ~max_states:2_000 sys in
          for i = 0 to min 60 (MC.Store.length g.store) - 1 do
            List.iter
              (fun p ->
                let s =
                  MC.Reduce.permute red ~perm:p (MC.Store.get g.store i)
                in
                let c, perm = MC.Reduce.canon red s in
                let in_place = Array.copy s in
                canonize in_place;
                let rc, rperm = reference_canon sys s in
                if not (MC.State.equal in_place c) then
                  QCheck.Test.fail_report "canonizer and canon disagree";
                if not (MC.State.equal c rc) then
                  QCheck.Test.fail_report "canon differs from the reference";
                if perm <> rperm then
                  QCheck.Test.fail_report "slot map differs from the reference")
              perms3
          done)
        [ Regsem.Model.Atomic; Regsem.Model.Safe ];
      true)

(* The canonizer runs once per generated successor: it must not
   allocate.  Inputs are successors of canonical ticket_mod N=7 M=7
   states, the shape the sym-reduced search feeds it. *)
let reduce_canonizer_allocation_free () =
  let sys = sys_of ~nprocs:7 ~bound:7 (Harness.Registry.find_model "ticket_mod") in
  let red = MC.Reduce.make MC.Reduce.Sym sys in
  let canonize = MC.Reduce.canonizer red in
  let calls = 10_000 in
  let g, _ = MC.Explore.run_graph ~max_states:3_000 sys in
  let inputs = MC.Vec.create () in
  for id = 0 to MC.Store.length g.store - 1 do
    if MC.Vec.length inputs < calls then
      List.iter
        (fun (m : MC.System.move) -> ignore (MC.Vec.push inputs m.dest))
        (MC.System.successors sys
           (fst (MC.Reduce.canon red (MC.Store.get g.store id))))
  done;
  check bool_t "enough successors" true (MC.Vec.length inputs >= calls);
  let scratch = Array.copy (MC.Vec.get inputs 0) in
  let words = Array.length scratch in
  let w0 = Gc.minor_words () in
  for i = 0 to calls - 1 do
    Array.blit (MC.Vec.get inputs i) 0 scratch 0 words;
    canonize scratch
  done;
  let per_call = (Gc.minor_words () -. w0) /. float_of_int calls in
  if per_call >= 1.0 then
    Alcotest.failf "canonizer allocates %.2f minor words per call" per_call

(* A successor of a canonical state moved one process, so [reseat]
   shifts that process's block alone; it must land on [canon]'s
   representative for every move of every register model.  The search
   expands through an expander that also skips twins: it builds
   [canon]'s successor of every move of each process it expands, in
   move order, every move it skips reaches a successor it built, and it
   counts every move. *)
let prop_reseat_matches_canon =
  QCheck.Test.make
    ~name:"reseat = canon on every successor of a canonical state"
    ~count:20
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let rng = Prng.Rng.create seed in
      let nprocs = 2 + (seed mod 3) and bound = 2 + (seed / 3 mod 2) in
      let generated =
        Fuzz.Gen.program_symmetric rng
          { Fuzz.Gen.g_nprocs = nprocs; g_bound = bound; g_max_steps = 4 }
      in
      let programs =
        generated
        :: List.map Harness.Registry.find_model [ "ticket"; "ticket_mod"; "tas" ]
      in
      List.iter
        (fun prog ->
          List.iter
            (fun register_model ->
              let sys = MC.System.make ~register_model prog ~nprocs ~bound in
              let red = MC.Reduce.make MC.Reduce.Sym sys in
              if not (MC.Reduce.symmetry_active red) then
                QCheck.Test.fail_report
                  "reduction inactive on a certified program";
              let scratch = Array.make (MC.System.layout sys).MC.State.words 0 in
              let built = ref [] and expanded = ref [] in
              (* the processes whose moves the expander enumerates *)
              let iter s ~lo ~hi ~scratch f =
                MC.System.iter_successors_between sys s ~lo ~hi ~scratch
                  (fun ~pid ~from_pc ~alt ~flick ->
                    expanded := pid :: !expanded;
                    f ~pid ~from_pc ~alt ~flick)
              in
              let ex =
                MC.Reduce.expander red ~iter ~scratch (fun () ->
                    built := Array.copy scratch :: !built)
              in
              let g, _ = MC.Explore.run_graph ~max_states:1_000 sys in
              let n = MC.Store.length g.store in
              for i = 0 to min 40 n - 1 do
                let c, _ =
                  MC.Reduce.canon red (MC.Store.get g.store ((i * 7919) mod n))
                in
                let moves = Array.of_list (MC.System.successors sys c) in
                let canons =
                  Array.map
                    (fun (m : MC.System.move) -> fst (MC.Reduce.canon red m.dest))
                    moves
                in
                Array.iteri
                  (fun k (m : MC.System.move) ->
                    let r = Array.copy m.dest in
                    MC.Reduce.reseat red r m.pid;
                    if not (MC.State.equal r canons.(k)) then
                      QCheck.Test.fail_report "reseat differs from canon")
                  moves;
                built := [];
                expanded := [];
                if MC.Reduce.expand ex c <> Array.length moves then
                  QCheck.Test.fail_report "expand miscounts the moves";
                (* what it builds, in the order it builds it: canon's
                   successor of every move of the processes it did not
                   skip, in the order of the moves *)
                let expected =
                  List.filteri
                    (fun k _ -> List.mem moves.(k).MC.System.pid !expanded)
                    (Array.to_list canons)
                in
                if
                  not
                    (List.equal MC.State.equal expected (List.rev !built))
                then
                  QCheck.Test.fail_report
                    "the built successors are not canon's, in move order";
                Array.iteri
                  (fun k st ->
                    if
                      not
                        (List.exists (MC.State.equal st) !built)
                    then
                      QCheck.Test.fail_reportf
                        "skipped move %d reaches no built successor" k)
                  canons
              done)
            [ Regsem.Model.Atomic; Regsem.Model.Regular; Regsem.Model.Safe ])
        programs;
      true)

(* Twin moves are counted in [generated] without being built; both
   engines skip the same ones. *)
let reduce_twin_moves_pinned () =
  List.iter
    (fun (n, twins) ->
      let sys = sys_of ~nprocs:n ~bound:n (Harness.Registry.find_model "ticket_mod") in
      let counter engine run =
        let m = Telemetry.Metrics.create () in
        let (r : MC.Explore.result) = run m in
        check bool_t "passes" true (r.outcome = MC.Explore.Pass);
        Telemetry.Metrics.counter_value
          (Telemetry.Metrics.counter m (engine ^ ".twin_moves"))
      in
      check int_t
        (Printf.sprintf "explore.twin_moves at N=M=%d" n)
        twins
        (counter "explore" (fun metrics ->
             MC.Explore.run ~metrics ~reduce:MC.Reduce.Sym sys));
      check int_t
        (Printf.sprintf "par_explore.twin_moves at N=M=%d" n)
        twins
        (counter "par_explore" (fun metrics ->
             MC.Par_explore.run ~metrics ~domains:2 ~reduce:MC.Reduce.Sym sys)))
    [ (4, 1_740); (5, 19_420) ]

(* Expanding a state allocates nothing, with or without symmetry.
   Setting a search up and growing its tables while they are small
   takes a few thousand minor words whatever the system, so the whole
   search is compared with the same search cut at 2,000 states: past
   those, it allocates under a tenth of a minor word per state. *)
let explore_allocation_free () =
  let minor_words f =
    let w0 = Gc.minor_words () in
    let (r : MC.Explore.result) = f () in
    (r, Gc.minor_words () -. w0)
  in
  List.iter
    (fun (what, sys, reduce) ->
      let cut, w_cut =
        minor_words (fun () -> MC.Explore.run ~max_states:2_000 ~reduce sys)
      in
      let r, w = minor_words (fun () -> MC.Explore.run ~reduce sys) in
      check bool_t (what ^ " passes") true (r.outcome = MC.Explore.Pass);
      let per_state =
        (w -. w_cut) /. float_of_int (r.stats.distinct - cut.stats.distinct)
      in
      if per_state >= 0.1 then
        Alcotest.failf "%s: %.3f minor words per expanded state" what per_state)
    [
      ( "bakery_pp N=3 M=2",
        sys_of ~nprocs:3 ~bound:2 (Core.Bakery_pp_model.program ()),
        MC.Reduce.Off );
      ( "ticket_mod N=5 M=5 sym",
        sys_of ~nprocs:5 ~bound:5 (Harness.Registry.find_model "ticket_mod"),
        MC.Reduce.Sym );
    ]

(* --------------------------------------------------------------- report *)

let report_strings () =
  let sys = sys_of ~nprocs:2 ~bound:2 (Core.Bakery_pp_model.program ()) in
  let r = MC.Explore.run sys in
  let s = MC.Report.result_string sys r in
  check bool_t "mentions the model" true
    (let needle = "bakery_pp_coarse" in
     let n = String.length needle and h = String.length s in
     let rec go i = i + n <= h && (String.sub s i n = needle || go (i + 1)) in
     go 0)

let () =
  Alcotest.run "modelcheck"
    [
      ("vec", [ Alcotest.test_case "growable vector" `Quick vec_basics ]);
      ( "wave",
        [
          Alcotest.test_case "holds only its frontier" `Quick
            wave_holds_frontier;
        ] );
      ( "store",
        [
          Alcotest.test_case "one table: collisions, growth, keys" `Quick
            store_one_table;
          Alcotest.test_case "packed arena memory floor" `Quick
            store_memory_floor;
        ] );
      ( "state",
        [
          Alcotest.test_case "pack/unpack round trip" `Quick state_roundtrip;
          Alcotest.test_case "hash and equality" `Quick state_hash_equal;
        ] );
      ( "explore",
        [
          Alcotest.test_case "state counts on known graph" `Quick
            explore_counts;
          Alcotest.test_case "violation with shortest trace" `Quick
            explore_violation_shortest;
          Alcotest.test_case "deadlock detection" `Quick explore_deadlock;
          Alcotest.test_case "state constraint closes infinite space" `Quick
            explore_constraint_closes_space;
          Alcotest.test_case "max_states capacity" `Quick explore_capacity;
          Alcotest.test_case "replay checks the stored states" `Quick
            trace_replay_checks_stored;
          Alcotest.test_case "log word" `Quick explore_log_word;
          Alcotest.test_case "run_graph words per state" `Quick
            run_graph_words;
          Alcotest.test_case "trace states are connected" `Quick
            trace_states_connected;
        ] );
      ( "invariants",
        [
          Alcotest.test_case "combinators" `Quick invariant_combinators;
          Alcotest.test_case "bounded_by" `Quick invariant_bounded_by;
        ] );
      ( "refinement",
        [
          Alcotest.test_case "reflexive" `Quick refinement_self;
          Alcotest.test_case "negative case" `Quick refinement_negative;
          Alcotest.test_case "bakery_pp refines bakery" `Quick
            refinement_bakery_pp;
        ] );
      ( "lasso",
        [
          Alcotest.test_case "found at the L1 gate" `Quick lasso_found_at_gate;
          Alcotest.test_case "fairness-consistent variant" `Quick
            lasso_fair_variant;
          Alcotest.test_case "none in the waiting room" `Quick
            lasso_none_in_waiting_room;
          Alcotest.test_case "truncated search is inconclusive" `Quick
            lasso_truncated_is_inconclusive;
          Alcotest.test_case "cycle closes" `Quick lasso_cycle_is_closed;
          Alcotest.test_case "victim out of range" `Quick
            lasso_victim_out_of_range;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "agrees with sequential engine" `Slow
            par_agrees_with_sequential;
          Alcotest.test_case "detects deadlock" `Quick par_deadlock;
          Alcotest.test_case "shard table basics" `Quick shard_table_basics;
          Alcotest.test_case "collision injection" `Quick collision_injection;
          Alcotest.test_case "hand-off batches return to their owner" `Quick
            handoff_batches_return_to_owner;
          Alcotest.test_case
            "one owner per shard allocates no more than the sequential search"
            `Quick par_allocates_no_more_than_seq;
          Alcotest.test_case "one-domain violation keeps its counts" `Quick
            par_one_domain_violation_counts;
          Alcotest.test_case "trace parents in (shard, local id) order" `Quick
            par_trace_parents_in_shard_order;
        ] );
      ( "regsem",
        [
          Alcotest.test_case "TAS separates atomic from weak models" `Quick
            weak_model_separates_tas;
          Alcotest.test_case "weak counterexample replays deterministically"
            `Quick weak_counterexample_replays;
        ] );
      ( "coverage",
        [
          Alcotest.test_case "action counts" `Quick coverage_counts;
          Alcotest.test_case "dead branch at N=1" `Quick
            coverage_uncovered_solo;
          Alcotest.test_case "truncated graph is inconclusive" `Quick
            coverage_truncated_is_inconclusive;
        ] );
      ( "dot",
        [
          Alcotest.test_case "system export" `Quick dot_export;
          Alcotest.test_case "truncation marker" `Quick dot_truncation;
          Alcotest.test_case "trace export" `Quick dot_trace;
        ] );
      ( "reduce",
        [
          Alcotest.test_case "certifier classifications" `Quick
            reduce_certifier_classifications;
          Alcotest.test_case "ticket_mod quotient equivalence + orbit count"
            `Quick reduce_equivalence_ticket_mod;
          Alcotest.test_case "bakery_pp sym falls back identically" `Quick
            reduce_fallback_identity;
          Alcotest.test_case "de-canonicalized traces are genuine" `Quick
            reduce_trace_genuine;
          Alcotest.test_case "weak registers compose with canon" `Quick
            reduce_weak_registers;
          QCheck_alcotest.to_alcotest prop_reduce_group_action;
          QCheck_alcotest.to_alcotest prop_canonizer_matches_reference;
          Alcotest.test_case "canonizer allocates nothing" `Quick
            reduce_canonizer_allocation_free;
          QCheck_alcotest.to_alcotest prop_reseat_matches_canon;
          Alcotest.test_case "twin moves pinned for both engines" `Quick
            reduce_twin_moves_pinned;
          Alcotest.test_case "a search allocates nothing per state" `Quick
            explore_allocation_free;
        ] );
      ("report", [ Alcotest.test_case "render" `Quick report_strings ]);
    ]
