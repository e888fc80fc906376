(** Packed system states.

    A state of an [N]-process mxlang program is the shared memory, the
    per-process program counters, and the per-process locals.  The checker
    stores states packed into flat [int array]s — layout
    [shared cells | pcs | locals(p0) | locals(p1) | ...] — which hash and
    compare quickly and keep the store compact. *)

type layout = {
  env : Mxlang.Eval.env;
  nprocs : int;
  shared_len : int;
  pcs_off : int;
  locals_off : int;
  locals_per : int;  (** locals per process *)
  words : int;  (** total packed length *)
}

type packed = int array

val layout : Mxlang.Eval.env -> layout
val initial : layout -> packed

val siblings : layout -> int array
(** By word, its group: the first word of its shared variable, of the
    pcs, or of its local's copies (process 0's).  Words of one group
    are the same variable's, and in a symmetric program range over the
    same values; {!Store.set_siblings} widens them together. *)

val pc : layout -> packed -> int -> int
(** Program counter of process [i]. *)

val set_pc : layout -> packed -> int -> int -> unit

val shared_part : layout -> packed -> int array
(** Copy of the shared-memory region. *)

val locals_part : layout -> packed -> int -> int array
(** Copy of process [i]'s locals. *)

val write_back : layout -> packed -> shared:int array -> locals:int array -> pid:int -> unit
(** Store mutated shared memory and one process's locals into the packed
    state (used after {!Mxlang.Eval.apply}). *)

val shared_cell : layout -> packed -> Mxlang.Ast.var -> int -> int
(** Read one cell of a shared variable directly from the packed state. *)

val hash : packed -> int
(** FNV-1a over all words (the polymorphic hash only samples a prefix). *)

val equal : packed -> packed -> bool
(** Word-by-word equality of two states of one layout. *)

val pp : layout -> Format.formatter -> packed -> unit
(** Human-readable rendering: pcs by label name plus all shared cells. *)
