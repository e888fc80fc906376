module MC = Modelcheck
module A = Mxlang.Ast

type verdict = Pass | Fail of { tag : string; detail : string }

type case =
  | Prog_case of {
      program : A.program;
      nprocs : int;
      bound : int;
      max_states : int;
    }
  | Sched_case of Gen.plan

type t = Compile | Parallel | Sharded | Regsem | Replay | Reduced

let all = [ Compile; Parallel; Sharded; Regsem; Replay; Reduced ]

let name = function
  | Compile -> "compile"
  | Parallel -> "parallel"
  | Sharded -> "sharded"
  | Regsem -> "regsem"
  | Replay -> "replay"
  | Reduced -> "reduced"

let of_name = function
  | "compile" -> Ok Compile
  | "parallel" -> Ok Parallel
  | "sharded" -> Ok Sharded
  | "regsem" -> Ok Regsem
  | "replay" -> Ok Replay
  | "reduced" -> Ok Reduced
  | s ->
      Error
        (Printf.sprintf
           "unknown oracle %S (expected \
            compile|parallel|sharded|regsem|replay|reduced)"
           s)

let fail tag fmt = Printf.ksprintf (fun detail -> Fail { tag; detail }) fmt

(* ------------------------------------------------------- engine oracles *)

let invariants = [ MC.Invariant.mutex; MC.Invariant.no_overflow ]

(* Everything two exploration runs must agree on, as one comparable
   value.  Traces are projected to (pid, step name) so the comparison is
   structural. *)
type run_fingerprint = {
  fp_outcome : string;
  fp_generated : int;
  fp_distinct : int;
  fp_depth : int;
  fp_trace : (int * string) list;
}

let fingerprint (r : MC.Explore.result) =
  let trace =
    match r.outcome with
    | MC.Explore.Violation { trace; _ } | MC.Explore.Deadlock { trace } ->
        List.map (fun (e : MC.Trace.entry) -> (e.pid, e.step_name)) trace
    | MC.Explore.Pass | MC.Explore.Capacity -> []
  in
  {
    fp_outcome = MC.Explore.outcome_tag r.outcome;
    fp_generated = r.stats.generated;
    fp_distinct = r.stats.distinct;
    fp_depth = r.stats.depth;
    fp_trace = trace;
  }

let fp_to_string fp =
  Printf.sprintf "%s generated=%d distinct=%d depth=%d trace=%d" fp.fp_outcome
    fp.fp_generated fp.fp_distinct fp.fp_depth (List.length fp.fp_trace)

let compare_fingerprints ~tag ~left ~right ~exact_trace a b =
  let mismatch what la lb =
    fail (tag ^ ":" ^ what) "%s: %s=[%s] %s=[%s]" what left la right lb
  in
  if a.fp_outcome <> b.fp_outcome then
    mismatch "outcome" (fp_to_string a) (fp_to_string b)
  else if a.fp_distinct <> b.fp_distinct then
    mismatch "distinct" (string_of_int a.fp_distinct) (string_of_int b.fp_distinct)
  else if a.fp_depth <> b.fp_depth then
    mismatch "depth" (string_of_int a.fp_depth) (string_of_int b.fp_depth)
  else if a.fp_generated <> b.fp_generated then
    mismatch "generated" (string_of_int a.fp_generated)
      (string_of_int b.fp_generated)
  else if exact_trace && a.fp_trace <> b.fp_trace then
    mismatch "trace"
      (String.concat ";" (List.map (fun (p, s) -> Printf.sprintf "%d:%s" p s) a.fp_trace))
      (String.concat ";" (List.map (fun (p, s) -> Printf.sprintf "%d:%s" p s) b.fp_trace))
  else Pass

let run_prog_case ?register_model ~engine ~program ~nprocs ~bound ~max_states
    () =
  let sys = MC.System.make ?register_model program ~nprocs ~bound in
  match engine with
  | `Interpreted ->
      MC.Explore.run ~interpreted:true ~invariants ~max_states sys
  | `Compiled -> MC.Explore.run ~invariants ~max_states sys
  | `Parallel -> MC.Par_explore.run ~invariants ~max_states ~domains:2 sys
  | `Sharded ->
      (* 3 domains exercises non-power-of-two shard routing. *)
      MC.Par_explore.run ~invariants ~max_states ~domains:3 sys

let compile_oracle ~program ~nprocs ~bound ~max_states =
  let reference =
    run_prog_case ~engine:`Interpreted ~program ~nprocs ~bound ~max_states ()
  in
  let compiled =
    run_prog_case ~engine:`Compiled ~program ~nprocs ~bound ~max_states ()
  in
  (* The two engines enumerate successors in the same order, so even the
     counterexample trace must match action for action. *)
  compare_fingerprints ~tag:"engine_mismatch" ~left:"interp" ~right:"compiled"
    ~exact_trace:true (fingerprint reference) (fingerprint compiled)

(* The compiled sequential engine vs a parallel configuration ([engine]
   is [`Parallel] for 2 domains, [`Sharded] for 3), over atomic
   registers and then over safe ones, whose flicker views give the
   hand-off different traffic.  A mismatch under [Safe] is tagged
   [tag ^ "_safe"]. *)
let vs_sequential ~engine ~tag ~program ~nprocs ~bound ~max_states =
  let compare register_model tag =
    let run engine =
      run_prog_case ~register_model ~engine ~program ~nprocs ~bound
        ~max_states ()
    in
    let seq = run `Compiled in
    let par = run engine in
    match (seq.outcome, par.outcome) with
    | MC.Explore.Capacity, _ | _, MC.Explore.Capacity ->
        (* the state-count cutoff lands mid-level in one engine and at a
           wave boundary in the other, so anything past it is undecided *)
        Pass
    | MC.Explore.Pass, MC.Explore.Pass ->
        (* exhaustive exploration: the reachable set itself must be
           identical, so every statistic agrees exactly *)
        compare_fingerprints ~tag ~left:"seq" ~right:"par" ~exact_trace:false
          (fingerprint seq) (fingerprint par)
    | ( (MC.Explore.Violation _ | MC.Explore.Deadlock _),
        (MC.Explore.Violation _ | MC.Explore.Deadlock _) ) ->
        (* Both engines report a counterexample.  The sequential explorer
           stops mid-level at the first bad state in insertion order while
           the parallel engine finishes generating its wave, so the state
           counts at detection — and, when one wave holds several bad
           states, which one wins — are engine-specific.  Agreement on
           "this program has a bug" is the sound claim. *)
        Pass
    | _ ->
        fail (tag ^ ":outcome") "seq=[%s] par=[%s]"
          (fp_to_string (fingerprint seq))
          (fp_to_string (fingerprint par))
  in
  match compare Regsem.Model.Atomic tag with
  | Pass -> compare Regsem.Model.Safe (tag ^ "_safe")
  | mismatch -> mismatch

let parallel_oracle = vs_sequential ~engine:`Parallel ~tag:"par_mismatch"
let sharded_oracle = vs_sequential ~engine:`Sharded ~tag:"sharded_mismatch"

(* ------------------------------------------------------- regsem oracle *)

(* Copy one atomic state into the weak (two-phase) layout: shared cells
   and pcs share offsets by stable numbering, original locals land at
   the front of each process's widened local block, and the appended
   pending slots keep their initial idle form (-1, 0) — which is also
   their form in every quiescent weak state, because commits reset both
   slot halves. *)
let embed_atomic ~atomic_lay ~weak_lay ~weak_init (s : MC.State.packed) =
  let la : MC.State.layout = atomic_lay and lw : MC.State.layout = weak_lay in
  let w = Array.copy weak_init in
  Array.blit s 0 w 0 (la.shared_len + la.nprocs);
  for pid = 0 to la.nprocs - 1 do
    Array.blit s
      (la.locals_off + (pid * la.locals_per))
      w
      (lw.locals_off + (pid * lw.locals_per))
      la.locals_per
  done;
  w

(* Three executable claims tie the weak-register engine to the baseline:
   1. a system built with an explicit [Atomic] model is bit-identical to
      the default build (outcome, counts, and counterexample trace);
   2. under [Safe], the AST interpreter and the compiled closures agree
      exactly (the weak twin of the [Compile] oracle);
   3. every atomic-reachable state embeds into the [Safe]-reachable set —
      weak semantics only add behaviours, they never remove one.  The
      subset leg is skipped when either exploration hits its state
      budget, since a truncated reachable set decides nothing. *)
let regsem_oracle ~program ~nprocs ~bound ~max_states =
  let make model =
    MC.System.make ~register_model:model program ~nprocs ~bound
  in
  let explicit_atomic =
    MC.Explore.run ~invariants ~max_states (make Regsem.Model.Atomic)
  in
  let default_build =
    run_prog_case ~engine:`Compiled ~program ~nprocs ~bound ~max_states ()
  in
  match
    compare_fingerprints ~tag:"regsem_atomic_mismatch" ~left:"atomic"
      ~right:"default" ~exact_trace:true
      (fingerprint explicit_atomic)
      (fingerprint default_build)
  with
  | Fail _ as f -> f
  | Pass -> (
      let safe_interp =
        MC.Explore.run ~interpreted:true ~invariants ~max_states
          (make Regsem.Model.Safe)
      in
      let safe_compiled =
        MC.Explore.run ~invariants ~max_states (make Regsem.Model.Safe)
      in
      match
        compare_fingerprints ~tag:"regsem_engine_mismatch" ~left:"interp"
          ~right:"compiled" ~exact_trace:true (fingerprint safe_interp)
          (fingerprint safe_compiled)
      with
      | Fail _ as f -> f
      | Pass ->
          let ga, sa = MC.Explore.run_graph ~max_states (make Regsem.Model.Atomic) in
          let gs, ss = MC.Explore.run_graph ~max_states (make Regsem.Model.Safe) in
          if not (ga.complete && gs.complete) then Pass
          else begin
            let atomic_lay = MC.System.layout ga.sys in
            let weak_lay = MC.System.layout gs.sys in
            let weak_init = MC.System.initial gs.sys in
            let n = MC.Store.length ga.store in
            let rec scan i =
              if i = n then Pass
              else
                let s = MC.Store.get ga.store i in
                let w = embed_atomic ~atomic_lay ~weak_lay ~weak_init s in
                if MC.Store.find_opt gs.store w = None then
                  fail "regsem_not_superset"
                    "atomic state %d of %d is unreachable under the safe \
                     model (atomic distinct %d, safe distinct %d)"
                    i n sa.distinct ss.distinct
                else scan (i + 1)
            in
            scan 0
          end)

(* ------------------------------------------------------- reduced oracle *)

(* Which reduction legs the [Reduced] oracle runs.  Both by default, so
   a corpus .repro stays self-contained; the CLI's [fuzz --reduce]
   narrows it for targeted sessions. *)
let reduced_modes = ref [ MC.Reduce.Sym; MC.Reduce.Sym_por ]

module State_tbl = Hashtbl.Make (struct
  type t = MC.State.packed

  let equal = MC.State.equal
  let hash = MC.State.hash
end)

(* A counterexample is genuine iff it starts at the initial state and
   every later entry is an actual move of the named process with the
   named label.  Reduced searches reconstruct traces by de-canonicalizing
   a quotient path, so this is exactly the claim that could break. *)
let trace_genuine sys (tr : MC.Trace.t) =
  match tr with
  | [] -> false
  | first :: rest ->
      let steps = (MC.System.program sys).A.steps in
      MC.State.equal first.MC.Trace.state (MC.System.initial sys)
      && fst
           (List.fold_left
              (fun (ok, cur) (e : MC.Trace.entry) ->
                if not ok then (false, cur)
                else
                  let hit =
                    List.exists
                      (fun (m : MC.System.move) ->
                        steps.(m.MC.System.from_pc).A.step_name = e.step_name
                        && MC.State.equal m.MC.System.dest e.state)
                      (MC.System.successors_of_pid sys cur e.pid)
                  in
                  (hit, e.state))
              (true, first.MC.Trace.state)
              rest)

let ctrex_of = function
  | MC.Explore.Violation { trace; _ } | MC.Explore.Deadlock { trace } ->
      Some trace
  | MC.Explore.Pass | MC.Explore.Capacity -> None

(* Exhaustive orbit count of the full reachable set, for the exactness
   leg: the quotient search must store one representative per orbit —
   no more (canonization is a true normal form) and no fewer (no orbit
   is lost to the ample filter or a canonization bug). *)
let orbit_count red (g : MC.Explore.graph) =
  let orbits = State_tbl.create 1024 in
  for id = 0 to MC.Store.length g.store - 1 do
    let c, _ = MC.Reduce.canon red (MC.Store.get g.store id) in
    if not (State_tbl.mem orbits c) then State_tbl.add orbits c ()
  done;
  State_tbl.length orbits

(* Reduced-vs-full claims, per enabled mode:
   1. verdict classes agree (Pass vs Pass, bug vs bug); a state-budget
      [Capacity] on either side decides nothing and passes;
   2. on a bug, the reduced counterexample replays as a genuine run of
      the full system in original pids;
   3. on a Pass, the quotient stores at most as many states as the full
      search — and for [Sym] on a certified program (within an orbit
      enumeration budget) {e exactly} one state per orbit of the full
      reachable set. *)
let reduced_oracle ~program ~nprocs ~bound ~max_states =
  let sys = MC.System.make program ~nprocs ~bound in
  let full = MC.Explore.run ~invariants ~max_states sys in
  let certified = Result.is_ok (MC.Reduce.certify program) in
  let orbit_budget = 50_000 in
  let check_mode acc mode =
    match acc with
    | Fail _ -> acc
    | Pass -> (
        let mname = MC.Reduce.mode_to_string mode in
        let red = MC.Explore.run ~invariants ~max_states ~reduce:mode sys in
        match (full.outcome, red.outcome) with
        | MC.Explore.Capacity, _ | _, MC.Explore.Capacity -> Pass
        | MC.Explore.Pass, MC.Explore.Pass ->
            if red.stats.distinct > full.stats.distinct then
              fail "reduced_inflation"
                "%s: quotient stored %d distinct states, full search %d" mname
                red.stats.distinct full.stats.distinct
            else if
              mode = MC.Reduce.Sym && certified
              && full.stats.distinct <= orbit_budget
            then begin
              let g, _ = MC.Explore.run_graph ~max_states sys in
              let n = orbit_count (MC.Reduce.make MC.Reduce.Sym sys) g in
              if n <> red.stats.distinct then
                fail "reduced_orbit_count"
                  "sym: quotient stored %d states but the full reachable set \
                   has %d orbits"
                  red.stats.distinct n
              else Pass
            end
            else Pass
        | ( (MC.Explore.Violation _ | MC.Explore.Deadlock _),
            (MC.Explore.Violation _ | MC.Explore.Deadlock _) ) -> (
            (* Both searches report a bug.  Which bug (and at what depth)
               is mode-specific: the quotient explores a different but
               bug-preserving state graph.  The sound claim is bug/bug
               agreement plus a genuine reduced counterexample. *)
            match ctrex_of red.outcome with
            | Some tr when not (trace_genuine sys tr) ->
                fail "reduced_bogus_trace"
                  "%s: de-canonicalized counterexample (%d entries) does not \
                   replay on the full system"
                  mname (List.length tr)
            | _ -> Pass)
        | _ ->
            fail
              ("reduced_mismatch:" ^ mname)
              "full=[%s] reduced=[%s]"
              (fp_to_string (fingerprint full))
              (fp_to_string (fingerprint red)))
  in
  List.fold_left check_mode Pass !reduced_modes

(* -------------------------------------------------------- replay oracle *)

let sim_config (pl : Gen.plan) =
  let open Schedsim.Runner in
  {
    (default_config ~nprocs:pl.pl_nprocs ~bound:pl.pl_bound) with
    strategy = Schedsim.Scheduler.Replay pl.pl_schedule;
    max_steps = Array.length pl.pl_schedule + 2;
    seed = pl.pl_seed;
    overflow_policy = (if pl.pl_wrap then Wrap else Detect);
    crash =
      (if pl.pl_crash > 0.0 then
         Some
           {
             crash_prob = pl.pl_crash;
             restart_delay = 5;
             only_outside_cs = false;
           }
       else None);
    flicker =
      (if pl.pl_flicker > 0.0 then
         Some
           {
             flicker_prob = pl.pl_flicker;
             flicker_model = pl.pl_flicker_model;
             flicker_slack = 0;
           }
       else None);
  }

let run_plan (pl : Gen.plan) =
  Schedsim.Runner.run (Harness.Registry.find_model pl.pl_model) (sim_config pl)

let executed_steps (r : Schedsim.Runner.result) =
  Array.fold_left
    (fun acc per_pid -> acc + Array.fold_left ( + ) 0 per_pid)
    0 r.label_counts

let results_equal (a : Schedsim.Runner.result) (b : Schedsim.Runner.result) =
  a.outcome = b.outcome && a.steps = b.steps && a.cs_entries = b.cs_entries
  && a.label_counts = b.label_counts
  && a.overflow_events = b.overflow_events
  && a.mutex_violations = b.mutex_violations
  && a.fcfs_inversions = b.fcfs_inversions
  && a.crashes = b.crashes && a.flickers = b.flickers
  && a.final_shared = b.final_shared

(* Walk the model checker's compiled transition system along the same
   pid sequence the simulator replayed.  Returns [None] when the walk
   hits a step with more than one simultaneously-enabled alternative
   (the simulator resolves those randomly, so the comparison would be
   ill-defined); every registry model in the default rotation is
   alternative-deterministic. *)
type walk = {
  w_executed : int;
  w_cs : int array;
  w_shared : int array;
}

let walk_model (pl : Gen.plan) =
  let p = Harness.Registry.find_model pl.pl_model in
  let sys = MC.System.make p ~nprocs:pl.pl_nprocs ~bound:pl.pl_bound in
  let layout = MC.System.layout sys in
  let cs = Array.make pl.pl_nprocs 0 in
  let state = ref (MC.System.initial sys) in
  let executed = ref 0 in
  let ambiguous = ref false in
  (try
     Array.iter
       (fun pid ->
         match MC.System.successors_of_pid sys !state pid with
         | [] -> raise Exit (* sim's Replay also stops here *)
         | [ m ] ->
             let from_pc = MC.State.pc layout !state pid in
             let to_pc = MC.State.pc layout m.MC.System.dest pid in
             if
               MC.System.kind_of_pc sys to_pc = A.Critical
               && MC.System.kind_of_pc sys from_pc <> A.Critical
             then cs.(pid) <- cs.(pid) + 1;
             state := m.MC.System.dest;
             incr executed
         | _ :: _ :: _ ->
             ambiguous := true;
             raise Exit)
       pl.pl_schedule
   with Exit -> ());
  if !ambiguous then None
  else
    Some
      {
        w_executed = !executed;
        w_cs = cs;
        w_shared = MC.State.shared_part layout !state;
      }

let ints_to_string a =
  String.concat "," (Array.to_list (Array.map string_of_int a))

let replay_oracle (pl : Gen.plan) =
  let r1 = run_plan pl in
  let r2 = run_plan pl in
  if not (results_equal r1 r2) then
    fail "replay_nondeterminism"
      "two replays of the same schedule differ (steps %d vs %d, cs [%s] vs [%s])"
      r1.steps r2.steps
      (ints_to_string r1.cs_entries)
      (ints_to_string r2.cs_entries)
  else
    let clean = pl.pl_flicker = 0.0 && pl.pl_crash = 0.0 in
    if not clean then Pass
    else if r1.mutex_violations > 0 then
      fail "mutex_violation"
        "%s violates mutual exclusion under a %d-step schedule (%d violation(s), overflows %d)"
        pl.pl_model (Array.length pl.pl_schedule) r1.mutex_violations
        r1.overflow_events
    else if pl.pl_wrap && r1.overflow_events > 0 then
      (* The simulator wrapped a store; the checker's transition system
         stores the raw value, so the walk comparison is ill-defined. *)
      Pass
    else
      match walk_model pl with
      | None -> Pass (* alternative-ambiguous model: determinism checked only *)
      | Some w ->
          if w.w_executed <> executed_steps r1 then
            fail "model_sim_divergence"
              "%s: checker walk executed %d steps, simulator %d" pl.pl_model
              w.w_executed (executed_steps r1)
          else if w.w_shared <> r1.final_shared then
            fail "model_sim_divergence"
              "%s: final shared memory differs (checker [%s], simulator [%s])"
              pl.pl_model (ints_to_string w.w_shared)
              (ints_to_string r1.final_shared)
          else if w.w_cs <> r1.cs_entries then
            fail "model_sim_divergence"
              "%s: CS entries differ (checker [%s], simulator [%s])"
              pl.pl_model (ints_to_string w.w_cs)
              (ints_to_string r1.cs_entries)
          else Pass

(* ------------------------------------------------------------ dispatch *)

let generate oracle rng (dp : Driver_params.t) =
  match oracle with
  | Compile | Parallel | Sharded | Regsem | Reduced ->
      let params =
        { Gen.g_nprocs = dp.nprocs; g_bound = dp.bound; g_max_steps = 5 }
      in
      let program =
        (* The reduced oracle splits its cases: half from the certified
           pid-symmetric fragment (the symmetry legs engage), half
           unrestricted (exercising the certificate-rejection fallback
           and POR on asymmetric programs). *)
        if oracle = Reduced && Prng.Rng.bool rng then
          Gen.program_symmetric rng params
        else Gen.program rng params
      in
      Prog_case
        {
          program;
          nprocs = dp.nprocs;
          bound = dp.bound;
          max_states = dp.max_states;
        }
  | Replay ->
      Sched_case
        (Gen.plan ?flicker_model:dp.register_model rng ~models:dp.models
           ~nprocs:dp.nprocs ~bound:dp.bound ~max_len:dp.sched_len)

let run oracle case =
  match (oracle, case) with
  | Compile, Prog_case { program; nprocs; bound; max_states } ->
      compile_oracle ~program ~nprocs ~bound ~max_states
  | Parallel, Prog_case { program; nprocs; bound; max_states } ->
      parallel_oracle ~program ~nprocs ~bound ~max_states
  | Sharded, Prog_case { program; nprocs; bound; max_states } ->
      sharded_oracle ~program ~nprocs ~bound ~max_states
  | Regsem, Prog_case { program; nprocs; bound; max_states } ->
      regsem_oracle ~program ~nprocs ~bound ~max_states
  | Reduced, Prog_case { program; nprocs; bound; max_states } ->
      reduced_oracle ~program ~nprocs ~bound ~max_states
  | Replay, Sched_case pl -> replay_oracle pl
  | (Compile | Parallel | Sharded | Regsem | Reduced), Sched_case _ ->
      fail "bad_case" "%s oracle expects a program case" (name oracle)
  | Replay, Prog_case _ -> fail "bad_case" "replay oracle expects a schedule case"

let tag_of = function Pass -> None | Fail { tag; _ } -> Some tag

let shrink oracle case ~max_evals =
  match tag_of (run oracle case) with
  | None -> (case, 0) (* not failing: nothing to shrink *)
  | Some tag -> (
      let fails_same c =
        match run oracle c with
        | Fail { tag = t; _ } -> t = tag
        | Pass -> false
      in
      match case with
      | Sched_case pl ->
          let sched, evals =
            Shrink.ddmin
              ~still_fails:(fun s ->
                fails_same (Sched_case { pl with Gen.pl_schedule = s }))
              ~max_evals pl.Gen.pl_schedule
          in
          (Sched_case { pl with Gen.pl_schedule = sched }, evals)
      | Prog_case pc ->
          let program, evals =
            Shrink.program
              ~still_fails:(fun p ->
                fails_same (Prog_case { pc with program = p }))
              ~max_evals pc.program
          in
          (Prog_case { pc with program }, evals))

let case_size = function
  | Sched_case pl -> Array.length pl.Gen.pl_schedule
  | Prog_case { program; _ } -> Shrink.program_size program
