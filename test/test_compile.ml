(* Differential tests for the staged mxlang compiler and the parallel
   explorer: the compiled successor engine must agree with the AST
   interpreter on every reachable (state, pid, action) triple, the
   staged invariants with their [holds] reference on every such state,
   [Explore.run] must give identical results on either successor
   engine, and [Par_explore.run] must match the sequential explorer on
   every registry algorithm at every pool width. *)

module MC = Modelcheck

let check = Alcotest.check
let int_t = Alcotest.int
let bool_t = Alcotest.bool

let cap = 20_000

(* -------------------------------------------------- move-level agreement *)

(* The explorers run only the staged invariants ({!Invariant.stage});
   [holds] is their reference.  Checks both built-in invariants on one
   state and returns which of them fail there, so callers can show
   that their states cover both outcomes. *)
let staged_invariants = [ MC.Invariant.mutex; MC.Invariant.no_overflow ]

let assert_staged_agrees what sys s =
  List.map
    (fun (inv : MC.Invariant.t) ->
      let holds = inv.holds sys s in
      if MC.Invariant.stage inv sys s <> holds then
        Alcotest.failf "%s: staged %s disagrees with holds" what inv.name;
      not holds)
    staged_invariants

let count_failing counts fails =
  List.iteri (fun i f -> if f then counts.(i) <- counts.(i) + 1) fails

(* Enumerate every state reachable in [prog] (up to [cap]) and compare
   the interpreter's move list against the compiled engine's, move by
   move: same (pid, from_pc, alt) in the same deterministic order and
   structurally equal destination states.  This exercises every guard
   and every effect of every action on every reachable input.  Returns
   how many states fail mutex and no-overflow. *)
let assert_moves_agree name prog ~nprocs ~bound =
  let sys = MC.System.make prog ~nprocs ~bound in
  let g, stats = MC.Explore.run_graph ~max_states:cap sys in
  let states = ref 0 and moves = ref 0 in
  let failing = [| 0; 0 |] in
  for id = 0 to MC.Store.length g.store - 1 do
    let s = MC.Store.get g.store id in
    count_failing failing
      (assert_staged_agrees (Printf.sprintf "%s state %d" name id) sys s);
    let reference = MC.System.successors_interpreted sys s in
    let compiled = MC.System.successors sys s in
    check int_t
      (Printf.sprintf "%s state %d: move count" name id)
      (List.length reference) (List.length compiled);
    List.iter2
      (fun (r : MC.System.move) (c : MC.System.move) ->
        incr moves;
        if
          r.pid <> c.pid || r.from_pc <> c.from_pc || r.alt <> c.alt
          || not (MC.State.equal r.dest c.dest)
        then
          Alcotest.failf "%s state %d: move (pid=%d,pc=%d,alt=%d) differs"
            name id r.pid r.from_pc r.alt)
      reference compiled;
    incr states
  done;
  check bool_t (name ^ ": explored something") true (!states > 1);
  check int_t (name ^ ": visited all distinct states") stats.distinct !states;
  ignore !moves;
  failing

let moves_bakery () =
  (* Unbounded Bakery overflows M: the staged no-overflow is checked
     against [holds] on violating states too. *)
  let failing =
    assert_moves_agree "bakery n2" (Algorithms.Bakery.program ()) ~nprocs:2
      ~bound:6
  in
  check bool_t "bakery n2: some states overflow" true (failing.(1) > 0);
  ignore
    (assert_moves_agree "bakery n3" (Algorithms.Bakery.program ()) ~nprocs:3
       ~bound:8)

let moves_bakery_pp () =
  List.iter
    (fun (name, prog, nprocs) ->
      ignore (assert_moves_agree name prog ~nprocs ~bound:2))
    [
      ("bakery_pp n2", Core.Bakery_pp_model.program (), 2);
      ("bakery_pp n3", Core.Bakery_pp_model.program (), 3);
      ( "bakery_pp_fine n2",
        Core.Bakery_pp_model.program ~granularity:Algorithms.Common.Fine (),
        2 );
    ]

(* ------------------------------------------- weak-register move order *)

(* The compiled paths enumerate flicker views with frames
   ({!Regsem.Flicker.enter}), the interpreter with the list-based
   reference ({!Regsem.Flicker.iter_views}).  On every explored state
   of seeded random programs under Regular and Safe registers, each
   compiled path must emit the interpreter's (pid, from_pc, alt, flick,
   dest) sequence exactly: a rank numbered differently (say, cells
   ranked ascending) changes the sequence even when the set of
   destinations agrees. *)
let weak_programs = 50
let weak_cap = 1_500

let key (m : MC.System.move) = (m.pid, m.from_pc, m.alt, m.flick, m.dest)

(* The callback re-enters the enumerator on the same state, as a
   callback reaching [System.enabled] does; the outer enumeration must
   not notice. *)
let scratch_moves sys s =
  let scratch = Array.make (MC.System.layout sys).words 0 in
  let acc = ref [] in
  MC.System.iter_successors_scratch sys s ~scratch
    (fun ~pid ~from_pc ~alt ~flick ->
      acc := (pid, from_pc, alt, flick, Array.copy scratch) :: !acc;
      ignore (MC.System.successors_of_pid sys s pid));
  List.rev !acc

let weak_moves_agree () =
  let flicked = ref 0 in
  let failing = [| 0; 0 |] in
  for seed = 1 to weak_programs do
    let nprocs = 2 + (seed mod 2) in
    let prog =
      Fuzz.Gen.program (Prng.Rng.create seed)
        { Fuzz.Gen.default_prog_params with g_nprocs = nprocs; g_bound = 3 }
    in
    List.iter
      (fun model ->
        let sys = MC.System.make ~register_model:model prog ~nprocs ~bound:3 in
        let g, _ = MC.Explore.run_graph ~max_states:weak_cap sys in
        for id = 0 to MC.Store.length g.store - 1 do
          let s = MC.Store.get g.store id in
          let reference = List.map key (MC.System.successors_interpreted sys s) in
          let per_pid =
            List.concat_map
              (fun pid -> List.map key (MC.System.successors_of_pid sys s pid))
              (List.init nprocs Fun.id)
          in
          let differs name moves =
            if moves <> reference then
              Alcotest.failf
                "seed %d %s state %d: %s differs from the interpreter" seed
                (Regsem.Model.to_string model) id name
          in
          differs "successors" (List.map key (MC.System.successors sys s));
          differs "successors_of_pid" per_pid;
          differs "iter_successors_scratch" (scratch_moves sys s);
          List.iter (fun (_, _, _, f, _) -> if f > 0 then incr flicked) reference;
          count_failing failing
            (assert_staged_agrees
               (Printf.sprintf "seed %d %s state %d" seed
                  (Regsem.Model.to_string model) id)
               sys s)
        done)
      [ Regsem.Model.Regular; Regsem.Model.Safe ]
  done;
  check bool_t "some moves read flickered views" true (!flicked > 0);
  check bool_t "some states violate mutex" true (failing.(0) > 0);
  check bool_t "some states overflow" true (failing.(1) > 0)

(* Once warm, the weak enumeration allocates nothing: its views live in
   the domain's frame, not in per-call copies and candidate lists. *)
let weak_scratch_allocates_nothing () =
  let sys =
    MC.System.make ~register_model:Regsem.Model.Safe
      (Core.Bakery_pp_model.program ()) ~nprocs:3 ~bound:4
  in
  let g, _ = MC.Explore.run_graph ~max_states:20_000 sys in
  let states = Array.init (MC.Store.length g.store) (MC.Store.get g.store) in
  let n = Array.length states in
  let scratch = Array.make (MC.System.layout sys).words 0 in
  let noop ~pid:_ ~from_pc:_ ~alt:_ ~flick:_ = () in
  MC.System.iter_successors_scratch sys states.(0) ~scratch noop;
  let w0 = Gc.minor_words () in
  for id = 0 to n - 1 do
    MC.System.iter_successors_scratch sys states.(id) ~scratch noop
  done;
  let per_state = (Gc.minor_words () -. w0) /. float_of_int n in
  if per_state >= 1.0 then
    Alcotest.failf "%.2f minor words per state over %d states" per_state n

(* Once warm, a staged invariant allocates nothing per call: the
   explorers run one on every new state. *)
let staged_invariants_allocate_nothing () =
  let sys =
    MC.System.make ~register_model:Regsem.Model.Safe
      (Core.Bakery_pp_model.program ()) ~nprocs:3 ~bound:4
  in
  let g, _ = MC.Explore.run_graph ~max_states:20_000 sys in
  let states = Array.init (MC.Store.length g.store) (MC.Store.get g.store) in
  let n = Array.length states in
  List.iter
    (fun (inv : MC.Invariant.t) ->
      let holds = MC.Invariant.stage inv sys in
      ignore (holds states.(0));
      let w0 = Gc.minor_words () in
      for id = 0 to n - 1 do
        ignore (holds states.(id))
      done;
      let per_call = (Gc.minor_words () -. w0) /. float_of_int n in
      if per_call >= 1.0 then
        Alcotest.failf "%s: %.2f minor words per call over %d states" inv.name
          per_call n)
    staged_invariants

(* ------------------------------------------------ engine-level agreement *)

let outcome_label = function
  | MC.Explore.Pass -> "pass"
  | Violation { invariant; _ } -> "violation:" ^ invariant
  | Deadlock _ -> "deadlock"
  | Capacity -> "capacity"

let trace_of_outcome = function
  | MC.Explore.Violation { trace; _ } | Deadlock { trace } -> Some trace
  | Pass | Capacity -> None

let nprocs_for name = if name = "peterson2" || name = "dekker" then 2 else 3

(* Compiled vs interpreted [Explore.run]: same outcome, same distinct /
   generated / depth counts, and byte-identical counterexample traces,
   on every registry model. *)
let engines_agree () =
  List.iter
    (fun (name, prog) ->
      let sys = MC.System.make prog ~nprocs:(nprocs_for name) ~bound:3 in
      let a = MC.Explore.run ~max_states:cap ~interpreted:true sys in
      let b = MC.Explore.run ~max_states:cap sys in
      check Alcotest.string
        (name ^ ": outcome")
        (outcome_label a.outcome) (outcome_label b.outcome);
      check int_t (name ^ ": distinct") a.stats.distinct b.stats.distinct;
      check int_t (name ^ ": generated") a.stats.generated b.stats.generated;
      check int_t (name ^ ": depth") a.stats.depth b.stats.depth;
      check bool_t
        (name ^ ": identical traces")
        true
        (trace_of_outcome a.outcome = trace_of_outcome b.outcome))
    Harness.Registry.models

(* --------------------------------------------------- parallel explorer *)

(* [Par_explore.run] at 1..3 domains, with exact and fingerprint-only
   tables, vs the sequential explorer, on every registry model under
   every register model: same outcome always, and on a Pass — where
   both engines explore the full reachable set wave by wave — the
   exact same distinct and generated counts.  On a violation or at
   capacity the engines stop mid-wave at different points, so only
   the outcome is pinned there.  A model whose weak reads can feed an
   out-of-range index stops with [Eval.Error]; both engines must. *)
let par_matches_sequential () =
  let run f =
    match f () with
    | (r : MC.Explore.result) -> (outcome_label r.outcome, Some r)
    | exception Mxlang.Eval.Error _ -> ("error", None)
  in
  List.iter
    (fun (name, prog) ->
      List.iter
        (fun register_model ->
          let sys =
            MC.System.make ~register_model prog ~nprocs:(nprocs_for name)
              ~bound:3
          in
          (* weak systems mostly run into the cap; a smaller one keeps
             the test quick and still above every weak Pass (filter,
             regular: 10,025 states) *)
          let cap =
            if register_model = Regsem.Model.Atomic then cap else 12_000
          in
          let seq = run (fun () -> MC.Explore.run ~max_states:cap sys) in
          List.iter
            (fun (domains, fingerprint_only) ->
              let par =
                run (fun () ->
                    MC.Par_explore.run ~max_states:cap ~domains
                      ~fingerprint_only sys)
              in
              let what =
                Printf.sprintf "%s %s d=%d%s" name
                  (Regsem.Model.to_string register_model)
                  domains
                  (if fingerprint_only then " fp-only" else "")
              in
              (* Capacity is a resource limit, not a verdict: the engines
                 overshoot the cap by different amounts within the final
                 wave, and one may legitimately find a real violation
                 there while the other gives up.  Everything else must
                 agree. *)
              if fst seq <> "capacity" && fst par <> "capacity" then
                check Alcotest.string (what ^ ": outcome") (fst seq) (fst par);
              match (seq, par) with
              | ("pass", Some s), (_, Some p) ->
                  check int_t (what ^ ": distinct") s.stats.distinct
                    p.stats.distinct;
                  check int_t (what ^ ": generated") s.stats.generated
                    p.stats.generated
              | _ -> ())
            (List.concat_map (fun d -> [ (d, false); (d, true) ]) [ 1; 2; 3 ]))
        Regsem.Model.[ Atomic; Regular; Safe ])
    Harness.Registry.models

(* A shared pool reused across several searches (the harness pattern). *)
let shared_pool () =
  MC.Pool.with_pool 3 (fun pool ->
      List.iter
        (fun (name, prog) ->
          let sys = MC.System.make prog ~nprocs:(nprocs_for name) ~bound:2 in
          let seq = MC.Explore.run ~max_states:cap sys in
          let par = MC.Par_explore.run ~max_states:cap ~pool sys in
          check Alcotest.string
            (name ^ " pooled: outcome")
            (outcome_label seq.outcome) (outcome_label par.outcome);
          if seq.outcome = MC.Explore.Pass then
            check int_t (name ^ " pooled: distinct") seq.stats.distinct
              par.stats.distinct)
        [
          ("bakery_pp", Core.Bakery_pp_model.program ());
          ("peterson2", Algorithms.Peterson2.program ());
        ])

(* ------------------------------------------------------------- the pool *)

let pool_runs_every_worker () =
  MC.Pool.with_pool 4 (fun p ->
      check int_t "size" 4 (MC.Pool.size p);
      let hits = Array.make 4 0 in
      for _ = 1 to 50 do
        MC.Pool.run p (fun w -> hits.(w) <- hits.(w) + 1)
      done;
      Array.iteri
        (fun w n -> check int_t (Printf.sprintf "worker %d ran" w) 50 n)
        hits)

let pool_propagates_exceptions () =
  MC.Pool.with_pool 2 (fun p ->
      (match MC.Pool.run p (fun w -> if w = 1 then failwith "boom") with
      | exception Failure m -> check Alcotest.string "message" "boom" m
      | () -> Alcotest.fail "expected the worker's exception");
      (* The pool must survive a failed job. *)
      let ok = Array.make 2 false in
      MC.Pool.run p (fun w -> ok.(w) <- true);
      check bool_t "still works" true (ok.(0) && ok.(1)))

let () =
  Alcotest.run "compile"
    [
      ( "differential",
        [
          Alcotest.test_case "bakery moves: interpreter = compiled" `Quick
            moves_bakery;
          Alcotest.test_case "bakery++ moves: interpreter = compiled" `Quick
            moves_bakery_pp;
          Alcotest.test_case "Explore.run engines agree on all models" `Quick
            engines_agree;
          Alcotest.test_case "weak-register moves: every path = interpreter"
            `Quick weak_moves_agree;
          Alcotest.test_case "weak-register moves allocate nothing" `Quick
            weak_scratch_allocates_nothing;
          Alcotest.test_case "staged invariants allocate nothing" `Quick
            staged_invariants_allocate_nothing;
        ] );
      ( "parallel",
        [
          Alcotest.test_case
            "Par_explore matches Explore at 1..3 domains, every register model"
            `Quick par_matches_sequential;
          Alcotest.test_case "shared pool across searches" `Quick shared_pool;
          Alcotest.test_case "pool runs every worker" `Quick
            pool_runs_every_worker;
          Alcotest.test_case "pool propagates exceptions" `Quick
            pool_propagates_exceptions;
        ] );
    ]
