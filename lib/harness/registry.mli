(** Central catalogue of everything runnable: lock families (runtime) and
    algorithm models (checker/simulator), keyed by name for the CLI and
    the experiment drivers. *)

val lock_families : Locks.Lock_intf.family list
val find_family : string -> Locks.Lock_intf.family
(** Raises [Not_found]. *)

val model_names : string list
val find_model : string -> Mxlang.Ast.program
(** Builds the program; raises [Not_found] for unknown names. *)

val fixed_nprocs : string -> int option
(** [Some n] for a model written for exactly [n] processes (the
    two-process algorithms), [None] for one that runs with any
    [N >= 1]. *)

val models : (string * Mxlang.Ast.program) list
(** All models, built. *)
