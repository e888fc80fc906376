(** Flag-value parsing whose errors name the offending flag:
    {!parse_enum} and {!parse_suffixed} read one flag's value for the
    CLI, and every error message starts with the flag's own name. *)

val parse_enum :
  ?docv:string ->
  flag:string ->
  values:(string * 'a) list ->
  string ->
  ('a, string) result
(** [parse_enum ~flag ~values raw] maps [raw] through the closed
    [values] table (e.g. [[("atomic", Atomic); ...]]).  The error
    message starts with the offending flag's own name and lists every
    valid spelling in table order:
    ["--register-model: unknown MODEL \"x\" (valid: atomic|regular|safe)"]. *)

val parse_suffixed :
  ?docv:string -> flag:string -> string -> (float, string) result
(** [parse_suffixed ~flag raw] reads a number with an optional unit
    suffix, so rates and durations read naturally on the command line:
    ["30s"] is 30.0, ["250ms"] is 0.25, ["50k"] is 50_000.0, ["2M"] is
    2e6.  Known suffixes: [s] (×1), [ms] (×1e-3), [us] (×1e-6), [k]/[K]
    (×1e3), [M] (×1e6), [G] (×1e9).  A lowercase [m] alone is rejected
    (milli or mega?), as are negative results and anything that is not
    number-then-suffix.  Errors start with [flag]'s own name and name
    the value as [docv], matching {!parse_enum}'s message style. *)
