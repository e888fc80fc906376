(** Derived metrics over simulator results. *)

val throughput : Runner.result -> float
(** Total critical-section entries per simulated step. *)

val label_count : Mxlang.Ast.program -> Runner.result -> string -> int
(** Total executions (all processes) of the step with the given label
    name; raises [Not_found] for an unknown label.  Used to count
    Bakery++'s overflow resets and L1 gate spins. *)

val cs_entry_times : Runner.result -> (int * int) list
(** [(time, pid)] of every CS entry, chronological; requires the run to
    have recorded events. *)

val max_waiting_time : Runner.result -> int
(** Longest doorway-completion-to-CS-entry span observed (steps);
    requires recorded events.  0 if no complete span was observed. *)

val max_overtakes : Runner.result -> int
(** Bounded overtaking: the largest number of critical-section entries by
    other processes between one process's doorway completion and its own
    entry.  Bakery-family FCFS implies this is at most N-1; unfair locks
    can exceed it without bound.  Requires recorded events; 0 if no
    complete span was observed. *)
