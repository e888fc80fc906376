(** Run metadata attached to benchmark datapoints and metric
    snapshots, so numbers recorded across PRs and machines stay
    comparable: the same (git_rev, host, nprocs) triple means the same
    experiment environment. *)

type t = {
  git_rev : string;  (** short commit hash, or ["unknown"] outside a checkout *)
  hostname : string;
  nprocs : int;  (** [Domain.recommended_domain_count ()] *)
  os : string;  (** [Sys.os_type] *)
  ocaml : string;  (** [Sys.ocaml_version] *)
}

val capture : unit -> t
(** Captured once per process and cached (the git rev is read from the
    [.git] directory found by walking up from the current directory —
    no subprocess is spawned). *)

val to_fields : t -> (string * Json.t) list
(** [git_rev], [host], [nprocs], [os], [ocaml]. *)
