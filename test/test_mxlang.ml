(* Unit and property tests for the mxlang algorithm language:
   evaluator semantics, builder desugaring, validation, pretty-printing
   and TLA+ export. *)

open Mxlang

let check = Alcotest.check
let int_t = Alcotest.int
let bool_t = Alcotest.bool

(* A tiny two-variable program used by many tests:
     shared a[1], b per process; locals x.
     s0: x := a[0] + 1         -> s1
     s1: if x > 2 then s2 else s0
     s2 (cs): b[self] := x     -> s0 *)
let tiny () =
  let open Dsl in
  let b = Builder.create ~title:"tiny" in
  let a = Builder.shared b "a" ~size:1 () in
  let bb = Builder.shared_per_process b "b" ~bounded:true () in
  let x = Builder.local b "x" in
  let s0 = Builder.fresh_label b "s0" in
  let s1 = Builder.fresh_label b "s1" in
  let s2 = Builder.fresh_label b "s2" in
  Builder.define b s0 ~kind:Ast.Plain
    [ Builder.action ~effects:[ set_local x (rd a zero +: one) ] s1 ];
  Builder.define b s1 ~kind:Ast.Plain (Builder.ite (lv x >: int 2) s2 s0);
  Builder.define b s2 ~kind:Ast.Critical
    [ Builder.action ~effects:[ set_own bb (lv x) ] s0 ];
  (a, bb, x, Builder.build b)

let env_of prog ~nprocs ~bound = Eval.make_env prog ~nprocs ~bound

(* ----------------------------------------------------------- evaluator *)

let eval_cases () =
  let _, _, _, prog = tiny () in
  let env = env_of prog ~nprocs:3 ~bound:7 in
  let shared = Eval.init_shared env in
  let locals = Eval.init_locals env in
  let e expr = Eval.eval env ~shared ~locals ~pid:1 expr in
  check int_t "N" 3 (e Ast.N);
  check int_t "M" 7 (e Ast.M);
  check int_t "Pid" 1 (e Ast.Pid);
  check int_t "Int" 42 (e (Ast.Int 42));
  check int_t "Add" 5 (e Ast.(Add (Int 2, Int 3)));
  check int_t "Sub" (-1) (e Ast.(Sub (Int 2, Int 3)));
  check int_t "Mul" 6 (e Ast.(Mul (Int 2, Int 3)));
  check int_t "Mod" 2 (e Ast.(Mod (Int 5, Int 3)));
  check int_t "Mod of negative is nonnegative" 1 (e Ast.(Mod (Int (-5), Int 3)));
  check int_t "Ite true" 1 (e Ast.(Ite (True, Int 1, Int 2)));
  check int_t "Ite false" 2 (e Ast.(Ite (False, Int 1, Int 2)))

let eval_reads () =
  let a, bvar, x, prog = tiny () in
  let env = env_of prog ~nprocs:3 ~bound:7 in
  let shared = Eval.init_shared env in
  let locals = Eval.init_locals env in
  shared.(Eval.offset env a) <- 9;
  shared.(Eval.offset env bvar + 2) <- 4;
  locals.(x) <- 5;
  let e expr = Eval.eval env ~shared ~locals ~pid:2 expr in
  check int_t "read scalar" 9 (e (Ast.Rd (a, Ast.Int 0)));
  check int_t "read own cell via Pid" 4 (e (Ast.Rd (bvar, Ast.Pid)));
  check int_t "read local" 5 (e (Ast.Local x));
  check int_t "max over array" 4 (e (Ast.Max_arr bvar));
  check bool_t "exists >= 4" true
    (Eval.eval_b env ~shared ~locals ~pid:2 (Ast.exists_cell bvar Ast.Cge (Ast.Int 4)));
  check bool_t "forall >= 4 is false" false
    (Eval.eval_b env ~shared ~locals ~pid:2 (Ast.forall_cell bvar Ast.Cge (Ast.Int 4)))

let eval_errors () =
  let a, _, _, prog = tiny () in
  let env = env_of prog ~nprocs:2 ~bound:3 in
  let shared = Eval.init_shared env in
  let locals = Eval.init_locals env in
  Alcotest.check_raises "index out of range"
    (Eval.Error "read a[5]: index out of range 0..0") (fun () ->
      ignore (Eval.eval env ~shared ~locals ~pid:0 (Ast.Rd (a, Ast.Int 5))));
  (match
     Eval.eval env ~shared ~locals ~pid:0 Ast.(Mod (Int 1, Int 0))
   with
  | exception Eval.Error _ -> ()
  | _ -> Alcotest.fail "expected Error on mod 0");
  match Eval.eval env ~shared ~locals ~pid:0 Ast.Qidx with
  | exception Eval.Error _ -> ()
  | _ -> Alcotest.fail "Qidx outside quantifier must fail"

let quantifier_ranges () =
  let _, bvar, _, prog = tiny () in
  let env = env_of prog ~nprocs:4 ~bound:9 in
  let shared = Eval.init_shared env in
  let locals = Eval.init_locals env in
  (* b = [0; 1; 2; 3] *)
  for i = 0 to 3 do
    shared.(Eval.offset env bvar + i) <- i
  done;
  let holds pid bx = Eval.eval_b env ~shared ~locals ~pid bx in
  let ge1 = Ast.(Cmp (Cge, Rd (bvar, Qidx), Int 1)) in
  check bool_t "Rall: not all >= 1" false (holds 2 (Ast.Qall (Ast.Rall, ge1)));
  check bool_t "Rothers from 0: all others >= 1" true
    (holds 0 (Ast.Qall (Ast.Rothers, ge1)));
  check bool_t "Rbelow 2: exists 0" true
    (holds 2 (Ast.Qexists (Ast.Rbelow, Ast.(Cmp (Ceq, Rd (bvar, Qidx), Int 0)))));
  check bool_t "Rabove 2: all >= 3" true
    (holds 2 (Ast.Qall (Ast.Rabove, Ast.(Cmp (Cge, Rd (bvar, Qidx), Int 3)))));
  check bool_t "Rabove 3: vacuous forall" true
    (holds 3 (Ast.Qall (Ast.Rabove, Ast.False)));
  check bool_t "Rbelow 0: vacuous forall" true
    (holds 0 (Ast.Qall (Ast.Rbelow, Ast.False)));
  check bool_t "Rabove 3: empty exists" false
    (holds 3 (Ast.Qexists (Ast.Rabove, Ast.True)))

let lex_order () =
  let _, _, _, prog = tiny () in
  let env = env_of prog ~nprocs:2 ~bound:3 in
  let shared = Eval.init_shared env in
  let locals = Eval.init_locals env in
  let lex (a, b) (c, d) =
    Eval.eval_b env ~shared ~locals ~pid:0
      Ast.(Lex_lt ((Int a, Int b), (Int c, Int d)))
  in
  check bool_t "(1,5) < (2,0)" true (lex (1, 5) (2, 0));
  check bool_t "(2,1) < (2,3)" true (lex (2, 1) (2, 3));
  check bool_t "not (2,3) < (2,3)" false (lex (2, 3) (2, 3));
  check bool_t "not (3,0) < (2,9)" false (lex (3, 0) (2, 9))

let simultaneous_assignment () =
  (* x, y := y, x must swap, not copy. *)
  let open Dsl in
  let b = Builder.create ~title:"swap" in
  let v = Builder.shared b "v" ~size:2 () in
  let s0 = Builder.fresh_label b "s0" in
  Builder.define b s0 ~kind:Ast.Plain
    [
      Builder.action
        ~effects:[ set v zero (rd v one); set v one (rd v zero) ]
        s0;
    ];
  let prog = Builder.build b in
  let env = env_of prog ~nprocs:1 ~bound:3 in
  let shared = Eval.init_shared env in
  let locals = Eval.init_locals env in
  shared.(0) <- 10;
  shared.(1) <- 20;
  (match Eval.enabled_actions env ~shared ~locals ~pid:0 ~pc:0 with
  | [ a ] -> Eval.apply env ~shared ~locals ~pid:0 a
  | _ -> Alcotest.fail "expected one enabled action");
  check int_t "v0 swapped" 20 shared.(0);
  check int_t "v1 swapped" 10 shared.(1)

(* ------------------------------------------------------------- builder *)

let builder_duplicate_define () =
  let b = Builder.create ~title:"dup" in
  let l = Builder.fresh_label b "l" in
  Builder.define b l ~kind:Ast.Plain [ Builder.goto l ];
  match Builder.define b l ~kind:Ast.Plain [ Builder.goto l ] with
  | exception Failure _ -> ()
  | () -> Alcotest.fail "duplicate define must fail"

let builder_undefined_label () =
  let b = Builder.create ~title:"undef" in
  let l = Builder.fresh_label b "l" in
  let dangling = Builder.fresh_label b "nowhere" in
  Builder.define b l ~kind:Ast.Plain [ Builder.goto dangling ];
  match Builder.build b with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "undefined label must fail"

let builder_metadata () =
  let _, _, _, prog = tiny () in
  check int_t "nvars" 2 prog.Ast.nvars;
  check int_t "nlocals" 1 prog.Ast.nlocals;
  check int_t "steps" 3 (Array.length prog.Ast.steps);
  check bool_t "b is per-process" true prog.Ast.per_process.(1);
  check bool_t "b is bounded" true prog.Ast.bounded.(1);
  check bool_t "a is not per-process" false prog.Ast.per_process.(0);
  check int_t "var_by_name" 1 (Ast.var_by_name prog "b");
  check int_t "pc_by_name" 2 (Ast.pc_by_name prog "s2");
  (match Ast.var_by_name prog "zzz" with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "unknown var must raise");
  check int_t "cells_of per-process" 5 (Ast.cells_of ~nprocs:5 prog 1);
  check int_t "cells_of scalar" 1 (Ast.cells_of ~nprocs:5 prog 0)

(* ------------------------------------------------------------ validate *)

let validate_good () =
  let _, _, _, prog = tiny () in
  Validate.assert_valid prog;
  let issues = Validate.check prog in
  check bool_t "no errors" true
    (List.for_all (fun i -> i.Validate.severity <> `Error) issues)

let validate_bad_target () =
  let prog =
    let _, _, _, p = tiny () in
    let steps = Array.copy p.Ast.steps in
    steps.(0) <-
      {
        (steps.(0)) with
        Ast.actions = [ { Ast.guard = Ast.True; effects = []; target = 99 } ];
      };
    { p with Ast.steps = steps }
  in
  (match Validate.assert_valid prog with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "bad target must be rejected")

let validate_warnings () =
  (* A program with no Critical step should warn. *)
  let b = Builder.create ~title:"nocs" in
  let l = Builder.fresh_label b "l" in
  Builder.define b l ~kind:Ast.Plain [ Builder.goto l ];
  let prog = Builder.build b in
  let issues = Validate.check prog in
  check bool_t "warns about missing critical step" true
    (List.exists
       (fun i ->
         i.Validate.severity = `Warning
         && String.length i.Validate.message > 0)
       issues)

(* -------------------------------------------------------------- pretty *)

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let pretty_renders () =
  let _, _, _, prog = tiny () in
  let s = Pretty.program prog in
  List.iter
    (fun needle ->
      check bool_t (Printf.sprintf "listing mentions %s" needle) true
        (contains s needle))
    [ "algorithm tiny"; "shared a[1]"; "s2: (CS)"; "goto s0"; "x := " ]

(* ----------------------------------------------------------------- TLA *)

let tla_export () =
  let prog = Core.Bakery_pp_model.program () in
  let s = Tla.export prog in
  List.iter
    (fun needle ->
      check bool_t (Printf.sprintf "TLA module contains %s" needle) true
        (contains s needle))
    [
      "---- MODULE Bakery_pp_coarse ----";
      "CONSTANTS NProc, MaxReg";
      "Init ==";
      "Next ==";
      "Mutex ==";
      "NoOverflow ==";
      "number' = [number EXCEPT";
      "\\E q \\in Procs";
      "====";
    ];
  check bool_t "module name sanitized" true
    (Tla.module_name prog = "Bakery_pp_coarse")

let tla_unchanged_clause () =
  let _, _, _, prog = tiny () in
  let s = Tla.export prog in
  check bool_t "UNCHANGED lists untouched vars" true (contains s "UNCHANGED")

(* ---------------------------------------------------------- properties *)

let prop_mod_nonnegative =
  QCheck.Test.make ~name:"Mod always yields value in [0, |d|)" ~count:500
    QCheck.(pair int (int_range 1 1000))
    (fun (a, d) ->
      let _, _, _, prog = tiny () in
      let env = env_of prog ~nprocs:2 ~bound:3 in
      let shared = Eval.init_shared env in
      let locals = Eval.init_locals env in
      let v =
        Eval.eval env ~shared ~locals ~pid:0 Ast.(Mod (Int a, Int d))
      in
      v >= 0 && v < d)

let prop_lex_is_strict_order =
  QCheck.Test.make ~name:"ticket order is a strict total order on distinct pairs"
    ~count:500
    QCheck.(quad (int_range 0 5) (int_range 0 3) (int_range 0 5) (int_range 0 3))
    (fun (a, b, c, d) ->
      let _, _, _, prog = tiny () in
      let env = env_of prog ~nprocs:2 ~bound:3 in
      let shared = Eval.init_shared env in
      let locals = Eval.init_locals env in
      let lt (x1, y1) (x2, y2) =
        Eval.eval_b env ~shared ~locals ~pid:0
          Ast.(Lex_lt ((Int x1, Int y1), (Int x2, Int y2)))
      in
      let p = (a, b) and q = (c, d) in
      if p = q then (not (lt p q)) && not (lt q p)
      else lt p q <> lt q p)

let prop_max_arr =
  QCheck.Test.make ~name:"Max_arr equals List maximum" ~count:200
    QCheck.(array_of_size (QCheck.Gen.return 4) (int_range 0 100))
    (fun values ->
      let _, bvar, _, prog = tiny () in
      let env = env_of prog ~nprocs:4 ~bound:1000 in
      let shared = Eval.init_shared env in
      let locals = Eval.init_locals env in
      Array.iteri (fun i v -> shared.(Eval.offset env bvar + i) <- v) values;
      Eval.eval env ~shared ~locals ~pid:0 (Ast.Max_arr bvar)
      = Array.fold_left max values.(0) values)

(* ---------------------------------------------------------- fuzzing *)

(* Random well-formed programs: valid label targets, in-range variable
   references (indices restricted to [Pid] and constant 0), small
   constants.  The property: the whole pipeline — validation, pretty,
   TLA+ export, bounded exploration, simulation — accepts them without
   raising. *)
let random_program_gen =
  let open QCheck.Gen in
  let* nsteps = int_range 2 5 in
  let* seed = int_range 0 1_000_000 in
  return (nsteps, seed)

let build_random_program (nsteps, seed) =
  let rng = Prng.Rng.create seed in
  let open Dsl in
  let b = Builder.create ~title:(Printf.sprintf "fuzz_%d_%d" nsteps seed) in
  let v1 = Builder.shared_per_process b "pp" ~bounded:(Prng.Rng.bool rng) () in
  let v2 = Builder.shared b "sc" ~size:1 () in
  let x = Builder.local b "x" in
  let labels =
    Array.init nsteps (fun i -> Builder.fresh_label b (Printf.sprintf "f%d" i))
  in
  let any_label () = labels.(Prng.Rng.int rng nsteps) in
  let rand_expr () =
    match Prng.Rng.int rng 6 with
    | 0 -> int (Prng.Rng.int rng 4)
    | 1 -> rd_own v1
    | 2 -> rd v2 zero
    | 3 -> lv x
    | 4 -> max_arr v1
    | _ -> lv x +: one
  in
  let rand_guard () =
    match Prng.Rng.int rng 4 with
    | 0 -> tt
    | 1 -> rand_expr () <=: rand_expr ()
    | 2 -> exists v1 Ast.Cge (rand_expr ())
    | _ -> not_ (rand_expr () =: rand_expr ())
  in
  let rand_effect () =
    match Prng.Rng.int rng 3 with
    | 0 -> set_own v1 (rand_expr ())
    | 1 -> set v2 zero (rand_expr ())
    | _ -> set_local x (rand_expr ())
  in
  Array.iteri
    (fun i lab ->
      let nacts = 1 + Prng.Rng.int rng 2 in
      let actions =
        List.init nacts (fun _ ->
            let effects = List.init (Prng.Rng.int rng 3) (fun _ -> rand_effect ()) in
            Builder.action ~guard:(rand_guard ()) ~effects (any_label ()))
      in
      let kind =
        match i with
        | 0 -> Ast.Noncritical
        | 1 -> Ast.Critical
        | _ -> Ast.Plain
      in
      Builder.define b lab ~kind actions)
    labels;
  Builder.build b

let prop_pipeline_total =
  QCheck.Test.make
    ~name:"random programs flow through validate/pretty/TLA/check/sim" ~count:60
    (QCheck.make random_program_gen)
    (fun params ->
      let prog = build_random_program params in
      Validate.assert_valid prog;
      let (_ : string) = Pretty.program prog in
      let (_ : string) = Tla.export prog in
      let sys = Modelcheck.System.make prog ~nprocs:2 ~bound:3 in
      let (_ : Modelcheck.Explore.result) =
        Modelcheck.Explore.run ~invariants:[] ~check_deadlock:false
          ~max_states:2_000 sys
      in
      let cfg =
        {
          (Schedsim.Runner.default_config ~nprocs:2 ~bound:3) with
          strategy = Schedsim.Scheduler.Uniform (snd params);
          max_steps = 2_000;
        }
      in
      let (_ : Schedsim.Runner.result) = Schedsim.Runner.run prog cfg in
      true)

(* ------------------------------------------- weak-register candidates *)

module MC = Modelcheck

(* Writer/reader toy: pid 0 writes x[0] := 2 while pid 1 copies x[0]
   into a local.  Driving pid 0 through its first move only (under a
   weak model, the write-start — the write is then in flight) and
   collecting pid 1's successor states pins exactly which values an
   overlapped read may return under each register model. *)
let wr_toy () =
  let open Dsl in
  let b = Builder.create ~title:"wr_toy" in
  let x = Builder.shared b "x" ~size:1 ~bounded:true () in
  let seen = Builder.local b "seen" in
  let start = Builder.fresh_label b "start" in
  let stop = Builder.fresh_label b "stop" in
  Builder.define b start ~kind:Ast.Plain
    [
      Builder.action ~guard:(self =: zero) ~effects:[ set x zero (int 2) ] stop;
      Builder.action ~guard:(self =: one)
        ~effects:[ set_local seen (rd x zero) ]
        stop;
    ];
  Builder.define b stop ~kind:Ast.Plain [ Builder.action ~guard:ff stop ];
  Builder.build b

let wr_sys model =
  MC.System.make ~register_model:model (wr_toy ()) ~nprocs:2 ~bound:3

(* pid 1's reachable values of [seen] from state [s], deduplicated *)
let reader_sees sys s =
  let lay = MC.System.layout sys in
  MC.System.successors_of_pid sys s 1
  |> List.map (fun (mv : MC.System.move) ->
         (MC.State.locals_part lay mv.dest 1).(0))
  |> List.sort_uniq compare

(* drive pid 0 one move (under a weak model: the write-start) *)
let after_p0 sys =
  match MC.System.successors_of_pid sys (MC.System.initial sys) 0 with
  | [ mv ] -> mv.MC.System.dest
  | ms -> Alcotest.failf "expected 1 move for pid 0, got %d" (List.length ms)

let regsem_no_overlap_singleton () =
  (* no in-flight write anywhere: the read is a singleton under every
     model — weakening only bites on overlap *)
  List.iter
    (fun model ->
      let sys = wr_sys model in
      check
        (Alcotest.list int_t)
        (Regsem.Model.to_string model ^ ": quiescent read is a singleton")
        [ 0 ]
        (reader_sees sys (MC.System.initial sys)))
    Regsem.Model.all

let regsem_regular_old_or_new () =
  let sys = wr_sys Regsem.Model.Regular in
  check
    (Alcotest.list int_t)
    "overlapped regular read sees exactly {old, new}" [ 0; 2 ]
    (reader_sees sys (after_p0 sys))

let regsem_safe_full_range () =
  let sys = wr_sys Regsem.Model.Safe in
  let ceil = (Regsem.Domain.ceilings (wr_toy ()) ~nprocs:2 ~bound:3).(0) in
  check bool_t "interval analysis covers the written value" true (ceil >= 2);
  let vals = reader_sees sys (after_p0 sys) in
  check
    (Alcotest.list int_t)
    "overlapped safe read sees the full register range"
    (List.init (ceil + 1) Fun.id)
    vals;
  (* the range includes 1, a value no process ever writes *)
  check bool_t "safe candidates include a never-written value" true
    (List.mem 1 vals)

let regsem_atomic_never_overlaps () =
  let sys = wr_sys Regsem.Model.Atomic in
  (* atomic writes land in one step: after pid 0 moves, only the new
     value is observable, and every move carries the trivial rank *)
  check (Alcotest.list int_t) "atomic read after the write" [ 2 ]
    (reader_sees sys (after_p0 sys));
  List.iter
    (fun (mv : MC.System.move) ->
      check int_t "atomic flick rank" 0 mv.MC.System.flick)
    (MC.System.successors sys (MC.System.initial sys))

let regsem_rank0_unperturbed () =
  let sys = wr_sys Regsem.Model.Safe in
  let s = after_p0 sys in
  let lay = MC.System.layout sys in
  let moves = MC.System.successors_of_pid sys s 1 in
  match
    List.filter (fun (mv : MC.System.move) -> mv.MC.System.flick = 0) moves
  with
  | [ mv ] ->
      check int_t "rank 0 reads the register's current value" 0
        (MC.State.locals_part lay mv.dest 1).(0);
      check
        (Alcotest.list (Alcotest.pair int_t int_t))
        "rank 0 decodes to no flickered cells" []
        (MC.System.flick_assignment sys s ~pid:1 ~pc:mv.from_pc ~alt:mv.alt
           ~flick:0)
  | _ -> Alcotest.fail "expected exactly one rank-0 move"

(* ---------------------------------------------------------------- reads *)

(* [Reads]' documented contracts, on random well-formed programs and the
   states a bounded search reaches: every cell [of_action] records is in
   [static_cells] for the same pid and action (the superset the flicker
   enumerator relies on), each recorded value is the state's cell, and
   no (variable, cell) pair is recorded twice. *)
let reads_contracts () =
  let checked = ref 0 in
  for seed = 1 to 12 do
    let nprocs = 2 + (seed mod 2) in
    let prog =
      Fuzz.Gen.program (Prng.Rng.create seed)
        { Fuzz.Gen.default_prog_params with g_nprocs = nprocs; g_bound = 3 }
    in
    let sys = MC.System.make prog ~nprocs ~bound:3 in
    let lay = MC.System.layout sys in
    let env = lay.MC.State.env in
    let g, _ = MC.Explore.run_graph ~max_states:2_000 sys in
    for id = 0 to MC.Store.length g.store - 1 do
      let s = MC.Store.get g.store id in
      let shared = MC.State.shared_part lay s in
      for pid = 0 to nprocs - 1 do
        let locals = MC.State.locals_part lay s pid in
        List.iter
          (fun (a : Ast.action) ->
            let what = Printf.sprintf "seed %d state %d p%d" seed id pid in
            let static = Reads.static_cells env ~pid a in
            let reads = Reads.of_action env ~shared ~locals ~pid a in
            List.iter
              (fun (r : Reads.read) ->
                let cell = Eval.offset env r.rd_var + r.rd_cell in
                incr checked;
                if not (Array.mem cell static) then
                  Alcotest.failf "%s: read cell %d outside static_cells" what
                    cell;
                if r.rd_value <> shared.(cell) then
                  Alcotest.failf "%s: cell %d recorded %d, state holds %d"
                    what cell r.rd_value shared.(cell))
              reads;
            let keys =
              List.map (fun (r : Reads.read) -> (r.rd_var, r.rd_cell)) reads
            in
            if List.length (List.sort_uniq compare keys) <> List.length keys
            then Alcotest.failf "%s: a (var, cell) pair repeats" what)
          (Eval.enabled_actions env ~shared ~locals ~pid
             ~pc:(MC.State.pc lay s pid))
      done
    done
  done;
  check bool_t "some reads were checked" true (!checked > 0)

let () =
  Alcotest.run "mxlang"
    [
      ( "eval",
        [
          Alcotest.test_case "constants and arithmetic" `Quick eval_cases;
          Alcotest.test_case "shared and local reads" `Quick eval_reads;
          Alcotest.test_case "dynamic errors" `Quick eval_errors;
          Alcotest.test_case "quantifier ranges" `Quick quantifier_ranges;
          Alcotest.test_case "lexicographic ticket order" `Quick lex_order;
          Alcotest.test_case "simultaneous assignment" `Quick
            simultaneous_assignment;
        ] );
      ( "builder",
        [
          Alcotest.test_case "duplicate define rejected" `Quick
            builder_duplicate_define;
          Alcotest.test_case "undefined label rejected" `Quick
            builder_undefined_label;
          Alcotest.test_case "program metadata" `Quick builder_metadata;
        ] );
      ( "validate",
        [
          Alcotest.test_case "well-formed program passes" `Quick validate_good;
          Alcotest.test_case "dangling target rejected" `Quick
            validate_bad_target;
          Alcotest.test_case "missing critical step warns" `Quick
            validate_warnings;
        ] );
      ( "pretty",
        [ Alcotest.test_case "listing mentions key parts" `Quick pretty_renders ] );
      ( "tla",
        [
          Alcotest.test_case "bakery_pp module exports" `Quick tla_export;
          Alcotest.test_case "UNCHANGED clause present" `Quick
            tla_unchanged_clause;
        ] );
      ( "reads",
        [
          Alcotest.test_case "recorded reads keep their contracts" `Quick
            reads_contracts;
        ] );
      ( "regsem",
        [
          Alcotest.test_case "no overlapping write => singleton" `Quick
            regsem_no_overlap_singleton;
          Alcotest.test_case "regular read sees {old, new}" `Quick
            regsem_regular_old_or_new;
          Alcotest.test_case "safe read sees the full range" `Quick
            regsem_safe_full_range;
          Alcotest.test_case "atomic never overlaps" `Quick
            regsem_atomic_never_overlaps;
          Alcotest.test_case "rank 0 is the unperturbed view" `Quick
            regsem_rank0_unperturbed;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_mod_nonnegative; prop_lex_is_strict_order; prop_max_arr;
            prop_pipeline_total;
          ] );
    ]
