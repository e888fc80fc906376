(** Named state predicates checked on every reachable state. *)

type t = {
  name : string;
  law : string;
      (** the predicate as a one-line human-readable law, e.g. "at most
          one process is at a Critical-kind label" — quoted verbatim by
          the counterexample explainer *)
  holds : System.t -> State.packed -> bool;
  prepare : (System.t -> State.packed -> bool) option;
      (** Optional staged form: specialize the check against one system
          (resolve layouts, step kinds, cell offsets) and return a
          per-state closure.  Must agree with [holds] on every state;
          the built-in ones allocate nothing per call. *)
  describe : (System.t -> State.packed -> string option) option;
      (** Optional forensics: on a state where [holds] is false, name the
          concrete registers / program counters falsifying the law
          (e.g. "number[1] = 4 exceeds M = 3").  [None] on states where
          the invariant holds. *)
  subs : t list;
      (** conjuncts for compound invariants built with {!all}; [[]] for
          atomic ones *)
}

val mutex : t
(** At most one process is at a [Critical]-kind step — the paper's
    mutual-exclusion property (§6.2). *)

val no_overflow : t
(** Every cell of every register-bounded shared variable is [<= M] — the
    paper's overflow-freedom property (§6.1).  A value of [M] itself is
    legal (it is the largest storable value); [M + 1] is an overflow. *)

val bounded_by : var:Mxlang.Ast.var -> limit:int -> t
(** All cells of one variable stay [<= limit]. *)

val custom : string -> (System.t -> State.packed -> bool) -> t

val all : t list -> t
(** Conjunction, reported under the name of the first failing conjunct. *)

val conjuncts : t -> t list
(** Flatten a (possibly nested) conjunction into its atomic conjuncts;
    an atomic invariant is its own single conjunct. *)

type failure = {
  f_name : string;  (** name of the failing conjunct *)
  f_law : string;  (** the conjunct as a human-readable law *)
  f_detail : string option;  (** register/pc values falsifying it *)
}

val explain_failure : t -> System.t -> State.packed -> failure option
(** Reduce a violation to the first failing atomic conjunct and the
    concrete values falsifying it.  [None] if the invariant holds. *)

val check : t -> System.t -> State.packed -> string option
(** [None] if the invariant holds, [Some name] of the violated
    (sub-)invariant otherwise. *)

val stage : t -> System.t -> State.packed -> bool
(** Specialize an invariant for one system: uses [prepare] when present
    (paying layout/offset resolution once, not per state), otherwise
    partially applies [holds].  The only form the explorers run. *)
