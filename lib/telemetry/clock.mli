(** Time sources for the telemetry subsystem. *)

val wall_s : unit -> float
(** Wall-clock seconds since the Unix epoch (for run metadata and
    JSONL timestamps). *)

val now_s : unit -> float
(** Seconds on the monotonic clock, from an arbitrary origin: the time
    base of every duration, rate and latency in the repo.  An NTP or
    VM-migration step of the wall clock cannot distort it. *)
