(** ASCII/CSV result tables, one per reproduced experiment. *)

type t

val make : title:string -> ?notes:string list -> string list -> t
(** [make ~title headers]. *)

val add_row : t -> string list -> unit
(** Must match the header count. *)

val add_rowf : t -> ('a, unit, string, unit) format4 -> 'a
(** Convenience: a whole row as one "|"-separated formatted string. *)

val render : t -> string
(** Boxed ASCII rendering with the title and notes. *)

val to_csv : t -> string

val cells_of_string : string -> string list
(** Split a "|"-separated row specification. *)

val format_si : float -> string
(** Human-readable engineering notation for a table cell: 12.30k,
    4.56M, ... *)
