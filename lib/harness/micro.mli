(** Bechamel microbenchmarks of the uncontended acquire/release path of
    every lock in {!Registry.lock_families} (paper §7's practicality
    argument at one participant). *)

val table : quick:bool -> Table.t
(** Nanoseconds per acquire+release pair on an idle lock created for 4
    participants, with the OLS fit's r², fastest lock first.  [quick]
    shortens each measurement quota from 0.75 s to 0.2 s. *)
