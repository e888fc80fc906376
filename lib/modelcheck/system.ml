(* A weak-register system runs the two-phase transform of the program
   ({!Regsem.Two_phase}) and enumerates flicker views for every action
   whose static read set overlaps another process's in-flight write.
   The atomic path is byte-for-byte today's engine: no transform, no
   view allocation, every move carries [flick = 0]. *)
type weak = {
  wk_model : Regsem.Model.t;
  wk_flick : Regsem.Flicker.ctx;
  wk_meta : Regsem.Two_phase.meta;
  wk_reads : int array array array array;
      (* wk_reads.(pc).(pid).(alt) = sorted static read cells *)
}

type t = {
  env : Mxlang.Eval.env;
  lay : State.layout;
  comp : Mxlang.Compile.t;
  source : Mxlang.Ast.program;
      (* the program as given, before any two-phase transform *)
  weak : weak option;
}

type move = { pid : int; from_pc : int; alt : int; flick : int; dest : State.packed }

let make ?(register_model = Regsem.Model.Atomic) program ~nprocs ~bound =
  Mxlang.Validate.assert_valid program;
  let source = program in
  let build (program : Mxlang.Ast.program) weak_of =
    let env = Mxlang.Eval.make_env program ~nprocs ~bound in
    let lay = State.layout env in
    let comp =
      Mxlang.Compile.compile env ~local_base:(fun pid ->
          lay.locals_off + (pid * lay.locals_per))
    in
    { env; lay; comp; source; weak = weak_of env lay }
  in
  match register_model with
  | Regsem.Model.Atomic -> build program (fun _ _ -> None)
  | model ->
      (* Value ranges come from the source program — the transform only
         relocates the same right-hand sides into pending locals. *)
      let ceil = Regsem.Domain.ceilings program ~nprocs ~bound in
      let tp, meta = Regsem.Two_phase.transform program in
      build tp (fun env lay ->
          let cell_ceil = Array.make env.shared_cells 0 in
          for v = 0 to program.nvars - 1 do
            let o = env.offsets.(v) in
            let n = Mxlang.Ast.cells_of ~nprocs program v in
            Array.fill cell_ceil o n ceil.(v)
          done;
          let wk_flick =
            Regsem.Flicker.make ~model ~nprocs ~locals_off:lay.State.locals_off
              ~locals_per:lay.State.locals_per ~var_off:env.offsets ~cell_ceil
              ~pend:meta.Regsem.Two_phase.tp_pend
          in
          let wk_reads =
            Array.map
              (fun (step : Mxlang.Ast.step) ->
                Array.init nprocs (fun pid ->
                    Array.of_list
                      (List.map
                         (fun a -> Mxlang.Reads.static_cells env ~pid a)
                         step.actions)))
              tp.steps
          in
          Some { wk_model = model; wk_flick; wk_meta = meta; wk_reads })

let layout t = t.lay
let program t = t.env.program
let source_program t = t.source

let two_phase_meta t =
  match t.weak with None -> None | Some wk -> Some wk.wk_meta
let nprocs t = t.env.nprocs
let bound t = t.env.bound
let initial t = State.initial t.lay
let register_model t =
  match t.weak with None -> Regsem.Model.Atomic | Some wk -> wk.wk_model

(* The hot path: compiled guards run directly against the packed state
   (no [Array.sub] copies), and each enabled action's destination is
   built in the caller's [scratch] buffer (blit + compiled effects) for
   [f] to decide whether it is worth an allocation.  Over a big search
   most generated states are duplicates, so skipping the copy for them
   is the single largest allocation saving in the checker.  Under a
   weak model the views come from a {!Regsem.Flicker} frame, which
   allocates nothing once warm. *)
let iter_successors_between t (s : State.packed) ~lo:pid_lo ~hi:pid_hi
    ~scratch f =
  let lay = t.lay in
  let actions = t.comp.actions in
  match t.weak with
  | None ->
      for pid = pid_lo to pid_hi do
        let pc = s.(lay.pcs_off + pid) in
        let alts = actions.(pc).(pid) in
        for alt = 0 to Array.length alts - 1 do
          let (a : Mxlang.Compile.caction) = alts.(alt) in
          if a.enabled s then begin
            (* Manual copy: a packed state is a couple dozen words, short
               enough that the loop beats [Array.blit]'s C stub call. *)
            for i = 0 to lay.words - 1 do
              Array.unsafe_set scratch i (Array.unsafe_get s i)
            done;
            a.perform scratch;
            scratch.(lay.pcs_off + pid) <- a.target;
            f ~pid ~from_pc:pc ~alt ~flick:0
          end
        done
      done
  | Some wk -> (
      let fl = Regsem.Flicker.enter wk.wk_flick s in
      let view = Regsem.Flicker.view fl in
      match
        for pid = pid_lo to pid_hi do
          let pc = s.(lay.pcs_off + pid) in
          let alts = actions.(pc).(pid) and reads = wk.wk_reads.(pc).(pid) in
          for alt = 0 to Array.length alts - 1 do
            let (a : Mxlang.Compile.caction) = alts.(alt) in
            let views = Regsem.Flicker.start fl ~pid ~cells:reads.(alt) in
            for flick = 0 to views - 1 do
              if flick > 0 then Regsem.Flicker.next fl;
              if a.enabled view then begin
                for i = 0 to lay.words - 1 do
                  Array.unsafe_set scratch i (Array.unsafe_get s i)
                done;
                a.perform_rw ~read:view ~write:scratch;
                scratch.(lay.pcs_off + pid) <- a.target;
                f ~pid ~from_pc:pc ~alt ~flick
              end
            done
          done
        done
      with
      | () -> Regsem.Flicker.leave fl
      | exception e ->
          Regsem.Flicker.leave fl;
          raise e)

(* [only >= 0] restricts expansion to that process — the ample-set
   reduction's single-process wave ({!Reduce.ample}).  The searches call
   [iter_successors_between] directly: an optional argument would box
   its value on every call. *)
let iter_successors_scratch ?(only = -1) t s ~scratch f =
  if only >= 0 then iter_successors_between t s ~lo:only ~hi:only ~scratch f
  else iter_successors_between t s ~lo:0 ~hi:(t.env.nprocs - 1) ~scratch f

(* The move-list views of the same enumeration, for the consumers that
   keep every destination (lasso, refinement, coverage, dot, the
   reduction's trace replay). *)
let moves ?only t s =
  let scratch = Array.make t.lay.words 0 in
  let acc = ref [] in
  iter_successors_scratch ?only t s ~scratch (fun ~pid ~from_pc ~alt ~flick ->
      acc := { pid; from_pc; alt; flick; dest = Array.copy scratch } :: !acc);
  List.rev !acc

let successors t s = moves t s
let successors_of_pid t s pid = moves ~only:pid t s

(* The (flat cell, value seen) pairs move [flick] perturbed, for the
   re-walk forensics; empty under the atomic model or rank 0. *)
let flick_assignment t (s : State.packed) ~pid ~pc ~alt ~flick =
  match t.weak with
  | None -> []
  | Some wk ->
      let cells = wk.wk_reads.(pc).(pid).(alt) in
      List.filter
        (fun (cell, seen) -> seen <> s.(cell))
        (Regsem.Flicker.assignment wk.wk_flick ~s ~pid ~cells ~flick)

(* Map a flat shared offset back to (variable, cell index). *)
let var_of_cell t cell =
  let offsets = t.env.offsets in
  let v = ref (t.env.program.nvars - 1) in
  while offsets.(!v) > cell do
    decr v
  done;
  (!v, cell - offsets.(!v))

(* Reference implementation on the interpreter, kept as the differential
   baseline for the compiled path (and as the "before" engine in the
   throughput experiment).  Single linear pass; no quadratic append. *)
let successors_interpreted t s =
  let lay = t.lay in
  let moves = ref [] in
  (match t.weak with
  | None ->
      for pid = t.env.nprocs - 1 downto 0 do
        let pc = State.pc lay s pid in
        let shared = State.shared_part lay s in
        let locals = State.locals_part lay s pid in
        let step = t.env.program.steps.(pc) in
        let rec alts alt = function
          | [] -> []
          | (a : Mxlang.Ast.action) :: rest ->
              if Mxlang.Eval.eval_b t.env ~shared ~locals ~pid a.guard then begin
                let shared' = Array.copy shared and locals' = Array.copy locals in
                Mxlang.Eval.apply t.env ~shared:shared' ~locals:locals' ~pid a;
                let dest = Array.copy s in
                State.write_back lay dest ~shared:shared' ~locals:locals' ~pid;
                State.set_pc lay dest pid a.target;
                { pid; from_pc = pc; alt; flick = 0; dest } :: alts (alt + 1) rest
              end
              else alts (alt + 1) rest
        in
        moves := alts 0 step.actions @ !moves
      done
  | Some wk ->
      (* A packed state's first [shared_len] words ARE the shared cells,
         so the full copy doubles as the interpreter's flickered shared
         view.  Same (pid asc, alt asc, flick asc) order as the compiled
         engine — pinned by the regsem fuzz oracle. *)
      for pid = t.env.nprocs - 1 downto 0 do
        let pc = State.pc lay s pid in
        let locals = State.locals_part lay s pid in
        let step = t.env.program.steps.(pc) in
        let view = Array.copy s in
        let acc = ref [] in
        let rec alts alt = function
          | [] -> ()
          | (a : Mxlang.Ast.action) :: rest ->
              let cells = wk.wk_reads.(pc).(pid).(alt) in
              Regsem.Flicker.iter_views wk.wk_flick ~s ~view ~pid ~cells
                (fun ~flick ->
                  if Mxlang.Eval.eval_b t.env ~shared:view ~locals ~pid a.guard
                  then begin
                    let shared' = Array.sub s 0 lay.shared_len in
                    let locals' = Array.copy locals in
                    Mxlang.Eval.apply_split t.env ~rshared:view ~shared:shared'
                      ~locals:locals' ~pid a;
                    let dest = Array.copy s in
                    State.write_back lay dest ~shared:shared' ~locals:locals'
                      ~pid;
                    State.set_pc lay dest pid a.target;
                    acc := { pid; from_pc = pc; alt; flick; dest } :: !acc
                  end);
              alts (alt + 1) rest
        in
        alts 0 step.actions;
        moves := List.rev_append !acc !moves
      done);
  !moves

let enabled t s pid =
  let pc = s.(t.lay.pcs_off + pid) in
  let alts = t.comp.actions.(pc).(pid) in
  let n = Array.length alts in
  match t.weak with
  | None ->
      let rec any alt = alt < n && (alts.(alt).enabled s || any (alt + 1)) in
      any 0
  | Some wk -> (
      (* A flicker view can enable a guard the true state disables, so a
         process counts as live if ANY view enables any alternative. *)
      let fl = Regsem.Flicker.enter wk.wk_flick s in
      let view = Regsem.Flicker.view fl in
      let reads = wk.wk_reads.(pc).(pid) in
      let found = ref false and alt = ref 0 in
      match
        while (not !found) && !alt < n do
          let views = Regsem.Flicker.start fl ~pid ~cells:reads.(!alt) in
          let flick = ref 0 in
          while (not !found) && !flick < views do
            if !flick > 0 then Regsem.Flicker.next fl;
            found := alts.(!alt).enabled view;
            incr flick
          done;
          incr alt
        done
      with
      | () ->
          Regsem.Flicker.leave fl;
          !found
      | exception e ->
          Regsem.Flicker.leave fl;
          raise e)

let kind_of_pc t pc = t.env.program.steps.(pc).kind

let in_critical t s pid = kind_of_pc t (State.pc t.lay s pid) = Mxlang.Ast.Critical
