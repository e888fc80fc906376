(** Minimal argv scanning whose errors name the offending flag.

    {!extract_presence} and {!extract_value} pluck options ([--quick],
    [--json FILE]) out of a raw argument list that also carries
    positional words; {!parse_enum} and {!parse_suffixed} read one
    flag's value for the CLI.  The rules are unit-testable: a value
    flag given twice, left dangling at the end of the line, or
    interleaved with another option ([--json --quick out.json]) is an
    error, not a silent misparse. *)

val extract_presence : flag:string -> string list -> bool * string list
(** [extract_presence ~flag args] is [(present, rest)] where [present]
    says whether [flag] occurred (any number of times) and [rest] is
    [args] with every occurrence removed. *)

val extract_value :
  ?docv:string ->
  flag:string ->
  string list ->
  (string option * string list, string) result
(** [extract_value ~flag args] removes one [flag VALUE] pair from
    [args].  [Ok (None, args)] when the flag is absent;
    [Ok (Some v, rest)] when it occurs exactly once with a value that
    is not itself an option.  [Error msg] when the flag is repeated,
    is the last argument, or its supposed value starts with ["--"] —
    every message starts with the offending flag's own name and
    describes the expected value as [docv] (default ["VALUE"]), e.g.
    ["--json: missing FILE (flag is the last argument)"]. *)

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
    the value as [docv], matching {!extract_value}'s message style. *)
