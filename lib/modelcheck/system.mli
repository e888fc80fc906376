(** The transition system induced by an mxlang program: interleaving of
    atomic labeled steps, exactly TLC's view of a PlusCal algorithm.

    Under a weak register model ({!Regsem.Model}), the system is the
    two-phase transform of the program ({!Regsem.Two_phase}) — writes
    become start/commit pairs — and every action additionally branches
    over the flicker views of its reads that overlap another process's
    in-flight write ({!Regsem.Flicker}).  Each such branch is one move,
    identified by its [flick] rank.  Under [Atomic] (the default) the
    engine is bit-identical to the system without this parameter. *)

type t

type move = {
  pid : int;
  from_pc : int;
  alt : int;  (** which alternative action of the step fired *)
  flick : int;
      (** flicker-view rank under a weak register model; 0 = the
          unperturbed view, and always 0 under [Atomic] *)
  dest : State.packed;
}

val make :
  ?register_model:Regsem.Model.t ->
  Mxlang.Ast.program ->
  nprocs:int ->
  bound:int ->
  t
(** Validates the program (see {!Mxlang.Validate.assert_valid}),
    precomputes the state layout, and compiles every action's guard and
    effects to closures ({!Mxlang.Compile}) — once per (step, process)
    pair, so exploration never re-interprets the AST.  With a weak
    [register_model] the program is first two-phase-transformed, value
    ceilings are derived ({!Regsem.Domain}), and per-action static read
    sets are tabulated for the flicker enumerator; {!program} then
    returns the transformed program (commit steps visible, so traces
    show writes landing). *)

val layout : t -> State.layout
val program : t -> Mxlang.Ast.program

val source_program : t -> Mxlang.Ast.program
(** The program as handed to {!make}, before any two-phase transform —
    equal to {!program} under [Atomic].  The symmetry classifier
    ({!Reduce}) runs on this, because pid-(a)symmetry is a property of
    the source algorithm, not of the register encoding. *)

val two_phase_meta : t -> Regsem.Two_phase.meta option
(** The two-phase transform's bookkeeping (original step/local counts,
    pending-slot map) when a weak register model is in force; [None]
    under [Atomic]. *)

val nprocs : t -> int
val bound : t -> int

val register_model : t -> Regsem.Model.t
(** The model this system was built with ([Atomic] by default). *)

val initial : t -> State.packed

val successors : t -> State.packed -> move list
(** Every move of every process enabled in the given state, in
    deterministic (pid, alternative, flicker rank) order. *)

val iter_successors_scratch :
  ?only:int ->
  t ->
  State.packed ->
  scratch:State.packed ->
  (pid:int -> from_pc:int -> alt:int -> flick:int -> unit) ->
  unit
(** Allocation-free variant: each enabled move's destination is built in
    [scratch] (length {!State.layout}[.words]) and [f] is called while it
    is valid — the buffer is overwritten by the next move, so [f] must
    copy it to keep it.  Same deterministic order as {!successors},
    which a log word's move rank counts ({!Explore.log_word}); lets
    the explorer dedup first and allocate only genuinely new states.
    Under a weak model the flicker views come from a per-domain
    {!Regsem.Flicker} frame, so once warm no call allocates under any
    model; [f] may itself call back into this module.  [only] restricts
    expansion to that single process — the ample-set reduction; default
    [-1] expands all processes.  {!successors} and {!successors_of_pid}
    are this enumeration with each destination copied. *)

val iter_successors_between :
  t ->
  State.packed ->
  lo:int ->
  hi:int ->
  scratch:State.packed ->
  (pid:int -> from_pc:int -> alt:int -> flick:int -> unit) ->
  unit
(** The same enumeration restricted to processes [lo .. hi], in the same
    order: {!iter_successors_scratch} without an optional argument,
    whose value would be boxed on every call.  The searches expand
    through it ({!Reduce.expand}). *)

val successors_interpreted : t -> State.packed -> move list
(** The same moves computed by the AST interpreter ({!Mxlang.Eval})
    instead of the compiled closures — the differential-testing baseline
    and the "before" engine of the throughput experiment.  Honors the
    register model with the same move order as the compiled engine. *)

val flick_assignment :
  t -> State.packed -> pid:int -> pc:int -> alt:int -> flick:int -> (int * int) list
(** The (flat shared cell, value seen) pairs in which view [flick] of
    this move differs from the true pre-state [s] — i.e. the reads that
    actually flickered.  Empty under [Atomic] and for rank 0. *)

val var_of_cell : t -> int -> int * int
(** Map a flat shared offset back to (variable id, cell index within
    the variable). *)

val successors_of_pid : t -> State.packed -> int -> move list
(** Moves of one process only (used by the starvation search, which
    freezes one process and lets the others run). *)

val enabled : t -> State.packed -> int -> bool
(** Does process [pid] have at least one enabled action?  Under a weak
    model, enabled under at least one flicker view. *)

val in_critical : t -> State.packed -> int -> bool
(** Is process [pid] at a [Critical]-kind step? *)

val kind_of_pc : t -> int -> Mxlang.Ast.kind
