(** Evaluation of mxlang expressions and actions against a concrete
    machine state: the one interpreter of the language.  The checker's
    interpreted engine, the simulator, {!Reads} and the counterexample
    re-walker evaluate guards and effects here; {!Compile} stages the
    same meaning into closures.  Every shared read goes through one
    range-checked accessor that {!observe} can watch, and every write is
    resolved by {!writes}.

    The state layout is shared with the model checker and the simulator:
    shared memory is a flat [int array] (variables laid out back to back,
    per-process arrays expanded to [nprocs] cells), and each process owns a
    flat [int array] of locals. *)

exception Error of string
(** Raised on dynamic errors: out-of-range shared index (["read a[5]:
    index out of range 0..1"], ["write a[2]: index out of range"]),
    modulo by zero. *)

type env = {
  program : Ast.program;
  nprocs : int;  (** number of processes, the paper's N *)
  bound : int;  (** register capacity, the paper's M *)
  offsets : int array;  (** start offset of each shared variable *)
  shared_cells : int;  (** total number of shared cells *)
}

val make_env : Ast.program -> nprocs:int -> bound:int -> env
(** Precompute the memory layout of [program] for [nprocs] processes. *)

val offset : env -> Ast.var -> int
(** Offset of the first cell of a variable in the flat shared array. *)

val in_bounds : env -> Ast.var -> int -> bool
(** Is [idx] a cell of variable [v]?  The range check behind every read
    and write. *)

val read_error : env -> Ast.var -> int -> string
val write_error : env -> Ast.var -> int -> string
(** The {!Error} messages for a read or a write of [v] at [idx] outside
    it, which {!Compile} raises too. *)

val init_shared : env -> int array
(** Freshly allocated initial shared memory. *)

val init_locals : env -> int array
(** Freshly allocated initial locals for one process. *)

val in_range : pid:int -> Ast.range -> int -> bool
(** Is process [i] inside a quantification range, relative to [pid]?
    (Shared with {!Compile}, which unrolls ranges statically.) *)

val eval : env -> shared:int array -> locals:int array -> pid:int -> Ast.expr -> int
(** Evaluate an integer expression. *)

val eval_b : env -> shared:int array -> locals:int array -> pid:int -> Ast.bexpr -> bool
(** Evaluate a boolean expression. *)

val enabled_actions :
  env -> shared:int array -> locals:int array -> pid:int -> pc:int -> Ast.action list
(** All actions of the step at [pc] whose guards hold in the given state. *)

type write =
  | Local of { slot : int; value : int }
  | Shared of { var : Ast.var; cell : int; value : int }
      (** [cell] indexes within [var], at [offset env var + cell] *)

val writes :
  env -> shared:int array -> locals:int array -> pid:int -> Ast.action ->
  write list
(** The action's effects resolved in the given pre-state, in order: each
    right-hand side, then its destination index, which must be a cell of
    its variable.  Nothing is written. *)

val observe :
  env ->
  shared:int array ->
  locals:int array ->
  pid:int ->
  watch:(Ast.var -> int -> int -> unit) ->
  Ast.action ->
  unit
(** Evaluate the action's guard, then resolve its effects as {!writes}
    does, calling [watch var cell value] on every shared read in
    evaluation order. *)

val apply :
  env -> shared:int array -> locals:int array -> pid:int -> Ast.action -> unit
(** Apply an action's effects in place (simultaneous-assignment semantics:
    {!writes} resolves every effect before any lands).  The caller is
    responsible for updating the process's program counter to
    [action.target]. *)

val apply_split :
  env ->
  rshared:int array ->
  shared:int array ->
  locals:int array ->
  pid:int ->
  Ast.action ->
  unit
(** Like {!apply}, but reads shared cells from [rshared] while writing
    into [shared].  Used by the weak-register engine: [rshared] is a
    flickered view of the pre-state, so the action computes with the
    values its overlapping reads returned while its writes land in the
    real successor.  [apply] is [apply_split] with [rshared == shared]. *)
