(** Starvation witness search — the paper's §6.3 scenario.

    The liveness concern for Bakery++ is a process parked at the overflow
    gate [L1] while faster processes repeatedly fill the ticket space up
    to M, reset, and race back up: the slow process can in theory wait
    forever.  That is a *lasso*: a reachable cycle in the state graph in
    which the victim process stays at its gate while other processes keep
    entering the critical section.

    This module finds such lassos exactly: it explores the reachable
    graph, restricts it to states where the victim sits at one of the
    given program counters with only non-victim moves, runs Tarjan's SCC
    algorithm on the restriction, and extracts a concrete cycle containing
    a critical-section entry by another process. *)

type witness = {
  prefix : Trace.t;  (** path from the initial state to the cycle *)
  cycle : Trace.t;  (** the cycle; last entry's state equals the first's predecessor loop point *)
  victim_continuously_enabled : bool;
      (** if false, the victim is disabled somewhere on the cycle, so the
          starvation is consistent even with weak fairness — the
          theoretically-possible scenario the paper describes *)
  cs_entries_in_cycle : int;  (** critical-section entries by other processes *)
}

type result = {
  witness : witness option;
  complete : bool;
      (** the search covered the whole reachable graph; when [false], a
          missing witness proves nothing (see {!Explore.graph}) *)
  stats : Explore.stats;
}

val find :
  ?constraint_:(System.t -> State.packed -> bool) ->
  ?max_states:int ->
  ?require_victim_disabled:bool ->
  victim:int ->
  stuck_at:(Mxlang.Ast.program -> int -> bool) ->
  System.t ->
  result
(** [find ~victim ~stuck_at sys] searches for a cycle of non-[victim]
    moves through states where [stuck_at program pc_of_victim] holds and
    some other process enters its critical section on the cycle.

    With [require_victim_disabled] (default [false]), only cycles through
    at least one state where the victim has no enabled action are
    accepted.  Such a cycle starves the victim without ever violating
    weak fairness — the paper's "extremely slow process" scenario in its
    strongest form.
    @raise Invalid_argument if [victim] is not a pid of [sys]. *)

val stuck_at_kind : Mxlang.Ast.kind -> Mxlang.Ast.program -> int -> bool
(** Convenience predicate: the victim's step has the given kind. *)

val stuck_at_label : string -> Mxlang.Ast.program -> int -> bool
(** Convenience predicate: the victim's step has the given label name. *)
