(* Counterexample re-walker.

   A checker trace records *which* label each process fired and the
   packed state after it — nothing about why the step was enabled or
   what it observed.  The re-walker replays the trace through the AST
   interpreter ([System.successors_interpreted], deliberately the
   engine that is *not* the optimised one under test) and recovers, for
   every step, the action that fired, the shared cells its guard and
   effects read with the values seen, and the writes as
   (prev -> value) diffs.  That per-step forensics is the raw material
   for causal traces and the [explain] story. *)

type write = {
  wr_var : Mxlang.Ast.var;
  wr_cell : int;
  wr_prev : int;
  wr_value : int;
}

type flick = {
  fl_var : Mxlang.Ast.var;
  fl_cell : int;
  fl_seen : int;
  fl_actual : int;
}

type step = {
  rw_pid : int;
  rw_from_pc : int;
  rw_to_pc : int;
  rw_step_name : string;  (* label fired, i.e. name of [rw_from_pc] *)
  rw_reads : Mxlang.Reads.read list;
  rw_writes : write list;
  rw_flicks : flick list;
  rw_post : State.packed;
}

type t = {
  rw_sys : System.t;
  rw_init : State.packed;
  rw_steps : step list;
}

(* Indices and right-hand sides are resolved in the pre-state — through
   the flickered view [rshared] when a weak register model perturbed
   this step's reads — while the previous contents come from the true
   pre-state. *)
let writes_of env ~rshared ~shared ~locals ~pid a =
  List.filter_map
    (function
      | Mxlang.Eval.Local _ -> None
      | Mxlang.Eval.Shared { var; cell; value } ->
          Some
            {
              wr_var = var;
              wr_cell = cell;
              wr_prev = shared.(Mxlang.Eval.offset env var + cell);
              wr_value = value;
            })
    (Mxlang.Eval.writes env ~shared:rshared ~locals ~pid a)

let of_trace sys (trace : Trace.t) =
  match trace with
  | [] -> Error "empty trace"
  | first :: rest ->
      let lay = System.layout sys in
      let env = lay.State.env in
      let program = System.program sys in
      let exception Walk_error of string in
      (try
         let _, rev_steps =
           List.fold_left
             (fun (pre, acc) (e : Trace.entry) ->
               let k = List.length acc + 1 in
               let move =
                 match
                   List.find_opt
                     (fun (m : System.move) ->
                       m.pid = e.pid && State.equal m.dest e.state)
                     (System.successors_interpreted sys pre)
                 with
                 | Some m -> m
                 | None ->
                     raise
                       (Walk_error
                          (Printf.sprintf
                             "step %d: no interpreter move of p%d reaches the \
                              recorded state (stale or corrupted trace?)"
                             k e.pid))
               in
               let action =
                 List.nth program.steps.(move.from_pc).actions move.alt
               in
               let shared = State.shared_part lay pre in
               let locals = State.locals_part lay pre e.pid in
               (* Reads are recovered against the view the move actually
                  observed: under a weak register model the recorded
                  flicker rank decodes (through the same path the search
                  used) to the values each overlapping read returned. *)
               let assignment =
                 System.flick_assignment sys pre ~pid:e.pid ~pc:move.from_pc
                   ~alt:move.alt ~flick:move.flick
               in
               let view =
                 match assignment with
                 | [] -> shared
                 | _ ->
                     let view = Array.copy shared in
                     List.iter (fun (cell, seen) -> view.(cell) <- seen)
                       assignment;
                     view
               in
               let step =
                 {
                   rw_pid = e.pid;
                   rw_from_pc = move.from_pc;
                   rw_to_pc = action.target;
                   rw_step_name = program.steps.(move.from_pc).step_name;
                   rw_reads =
                     Mxlang.Reads.of_action env ~shared:view ~locals
                       ~pid:e.pid action;
                   rw_writes =
                     writes_of env ~rshared:view ~shared ~locals ~pid:e.pid
                       action;
                   rw_flicks =
                     List.map
                       (fun (cell, seen) ->
                         let v, idx = System.var_of_cell sys cell in
                         {
                           fl_var = v;
                           fl_cell = idx;
                           fl_seen = seen;
                           fl_actual = shared.(cell);
                         })
                       assignment;
                   rw_post = e.state;
                 }
               in
               (e.state, step :: acc))
             (first.Trace.state, [])
             rest
         in
         Ok { rw_sys = sys; rw_init = first.Trace.state; rw_steps = List.rev rev_steps }
       with Walk_error msg -> Error msg)
