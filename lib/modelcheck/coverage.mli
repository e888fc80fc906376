(** TLC-style action coverage: how often each labeled step fired during
    exploration, and which never fired at all.

    Zero-coverage labels usually indicate dead protocol branches (or a
    too-small configuration to reach them) — e.g. Bakery++'s [reset] step
    is unreachable at N=1 but covered from N=2, M=1. *)

type entry = {
  step_name : string;
  pc : int;
  kind : Mxlang.Ast.kind;
  fired : int;  (** transitions generated through this label during the search *)
}

type t = {
  entries : entry list;
  total_transitions : int;
  complete : bool;
      (** the graph was explored in full; when [false], a label that
          never fired may still fire beyond the state budget *)
}

val of_graph : Explore.graph -> t
(** Count, for every program label, the transitions generated from stored
    states that execute it — TLC's notion of action coverage. *)

val measure :
  ?constraint_:(System.t -> State.packed -> bool) ->
  ?max_states:int ->
  System.t ->
  t
(** Explore and measure in one call. *)

val uncovered : t -> string list
(** Labels that never fired. *)

val pp : Format.formatter -> t -> unit
(** One line per label; on an incomplete graph, unfired labels are
    marked inconclusive rather than never fired. *)
