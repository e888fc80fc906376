(** Shared-register read-set extraction for causal tracing.

    Given an action and the pre-state it executed in, recover the shared
    cells its guard and effects actually observed, with the values seen.
    {!of_action} is no second evaluator: it runs {!Eval}, the one
    interpreter, watching its shared reads ({!Eval.observe}) through
    short-circuit connectives, the taken [Ite] branch and quantifier
    loops stopping at the deciding witness, so the result is exactly the
    set of cells the verdict depended on, not a syntactic
    over-approximation. *)

type read = {
  rd_var : Ast.var;  (** which shared variable *)
  rd_cell : int;  (** cell index within the variable *)
  rd_value : int;  (** value observed in the pre-state *)
}

val of_action :
  Eval.env ->
  shared:int array ->
  locals:int array ->
  pid:int ->
  Ast.action ->
  read list
(** Reads performed by [action]'s guard and effects in evaluation
    order — the guard first, then each effect's right-hand side before
    its destination index — deduplicated by (variable, cell) keeping the
    first occurrence.  The action must be executable in the given state:
    an out-of-range index raises {!Eval.Error}, as {!Eval.apply} would. *)

val static_cells : Eval.env -> pid:int -> Ast.action -> int array
(** Sorted flat shared offsets the action may read in ANY state: both
    [Ite] branches, all quantifier instantiations, and dynamic array
    indices widened to the whole array.  A superset of [of_action]'s
    cells in every state, which is what the weak-register flicker
    enumerator needs (a candidate view may flip the control flow). *)
