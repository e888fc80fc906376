type t = {
  git_rev : string;
  hostname : string;
  nprocs : int;
  os : string;
  ocaml : string;
}

let read_line_of path =
  match open_in path with
  | ic ->
      let line = try input_line ic with End_of_file -> "" in
      close_in ic;
      Some (String.trim line)
  | exception Sys_error _ -> None

(* Resolve HEAD by hand — telemetry must not fork a git subprocess from
   inside benchmarks.  Walks up from cwd (dune tests run in a _build
   sandbox below the repo root). *)
let git_rev_of_cwd () =
  let rec find_git dir =
    let candidate = Filename.concat dir ".git" in
    if Sys.file_exists candidate && Sys.is_directory candidate then
      Some candidate
    else
      let parent = Filename.dirname dir in
      if parent = dir then None else find_git parent
  in
  match find_git (Sys.getcwd ()) with
  | None -> "unknown"
  | Some git -> (
      match read_line_of (Filename.concat git "HEAD") with
      | None | Some "" -> "unknown"
      | Some head ->
          let rev =
            match String.index_opt head ' ' with
            | None -> Some head (* detached HEAD: the hash itself *)
            | Some i -> (
                let refname =
                  String.sub head (i + 1) (String.length head - i - 1)
                in
                match read_line_of (Filename.concat git refname) with
                | Some h when h <> "" -> Some h
                | _ -> (
                    (* packed refs *)
                    match open_in (Filename.concat git "packed-refs") with
                    | exception Sys_error _ -> None
                    | ic ->
                        let found = ref None in
                        (try
                           while !found = None do
                             let line = input_line ic in
                             if
                               String.length line > 41
                               && String.sub line 41 (String.length line - 41)
                                  = refname
                             then found := Some (String.sub line 0 40)
                           done
                         with End_of_file -> ());
                        close_in ic;
                        !found))
          in
          (match rev with
          | Some h when String.length h >= 12 -> String.sub h 0 12
          | Some h when h <> "" -> h
          | _ -> "unknown"))

let cached = ref None

let capture () =
  match !cached with
  | Some m -> m
  | None ->
      let m =
        {
          git_rev = git_rev_of_cwd ();
          hostname = (try Unix.gethostname () with Unix.Unix_error _ -> "unknown");
          nprocs = Domain.recommended_domain_count ();
          os = Sys.os_type;
          ocaml = Sys.ocaml_version;
        }
      in
      cached := Some m;
      m

let to_fields m =
  [
    ("git_rev", Json.Str m.git_rev);
    ("host", Json.Str m.hostname);
    ("nprocs", Json.Num (float_of_int m.nprocs));
    ("os", Json.Str m.os);
    ("ocaml", Json.Str m.ocaml);
  ]
