(* Formatting lint for the OCaml sources, run as part of tier-1.

   ocamlformat is not a dependency of this repo, so this is the
   mechanical subset that catches real drift in new modules: no tab
   characters, no trailing whitespace, no CR line endings, and every
   file ends in exactly one newline.  The scan walks the copied source
   tree inside the build sandbox (found by walking up to dune-project),
   so it always lints what was just built. *)

let source_dirs = [ "lib"; "bin"; "bench"; "test"; "examples" ]

let rec find_root dir =
  if Sys.file_exists (Filename.concat dir "dune-project") then dir
  else
    let parent = Filename.dirname dir in
    if parent = dir then failwith "dune-project not found above the test cwd"
    else find_root parent

let rec ml_files dir =
  Array.to_list (Sys.readdir dir)
  |> List.concat_map (fun entry ->
         let path = Filename.concat dir entry in
         if Sys.is_directory path then
           if entry = "_build" || entry.[0] = '.' then [] else ml_files path
         else if
           Filename.check_suffix entry ".ml" || Filename.check_suffix entry ".mli"
         then [ path ]
         else [])

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let lint_file path =
  let body = read_file path in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  if String.contains body '\t' then problem "tab character";
  if String.contains body '\r' then problem "CR line ending";
  let n = String.length body in
  if n = 0 || body.[n - 1] <> '\n' then problem "missing final newline"
  else if n >= 2 && body.[n - 2] = '\n' then problem "trailing blank line";
  String.split_on_char '\n' body
  |> List.iteri (fun i line ->
         let l = String.length line in
         if l > 0 && (line.[l - 1] = ' ' || line.[l - 1] = '\t') then
           problem "trailing whitespace on line %d" (i + 1));
  List.rev !problems

let formatting () =
  let root = find_root (Sys.getcwd ()) in
  let files =
    List.concat_map
      (fun d ->
        let dir = Filename.concat root d in
        if Sys.file_exists dir then ml_files dir else [])
      source_dirs
  in
  Alcotest.(check bool)
    "found a plausible number of sources" true
    (List.length files > 50);
  let dirty =
    List.concat_map
      (fun f ->
        List.map
          (fun p -> Printf.sprintf "%s: %s" f p)
          (lint_file f))
      files
  in
  if dirty <> [] then
    Alcotest.failf "formatting drift:\n%s" (String.concat "\n" dirty)

(* ------------------------------------------------------- metric names *)

(* The metric-name lint (see Telemetry.Catalog): every instrument name
   the sources register must be covered by the catalogue, and the
   catalogue itself must be duplicate-free.  The scan is textual —
   string literals with a metric-name shape, plus the literal
   prefix/suffix fragments of [("lock." ^ name ^ ".acquire_s")]-style
   registration sites — so a typo'd name fails tier-1 instead of
   minting a series nobody reads. *)

let is_metric_char c =
  (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '_' || c = '.'

(* full metric-name shape: lowercase start, at least one dot, no
   leading/trailing/double dots, metric charset only *)
let metric_shaped s =
  let n = String.length s in
  n > 0
  && s.[0] >= 'a'
  && s.[0] <= 'z'
  && s.[n - 1] <> '.'
  && String.contains s '.'
  && (let ok = ref true in
      String.iter (fun c -> if not (is_metric_char c) then ok := false) s;
      !ok)
  &&
  let double = ref false in
  String.iteri
    (fun i c -> if c = '.' && i + 1 < n && s.[i + 1] = '.' then double := true)
    s;
  not !double

(* all string literals on a line (no escape handling — metric names
   never contain backslashes, and a literal we fail to parse is simply
   not checked) *)
let literals_of_line line =
  let out = ref [] in
  let n = String.length line in
  let i = ref 0 in
  while !i < n do
    if line.[!i] = '"' then begin
      let j = ref (!i + 1) in
      while !j < n && line.[!j] <> '"' do
        if line.[!j] = '\\' then incr j;
        incr j
      done;
      if !j < n then out := String.sub line (!i + 1) (!j - !i - 1) :: !out;
      i := !j + 1
    end
    else incr i
  done;
  List.rev !out

let mentions_instrument line =
  List.exists
    (fun needle ->
      let nl = String.length needle and hl = String.length line in
      let rec go i =
        i + nl <= hl && (String.sub line i nl = needle || go (i + 1))
      in
      go 0)
    [ "counter"; "gauge"; "histogram" ]

let contains_sub hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let metric_names () =
  (* catalogue hygiene first: sorted, duplicate-free, valid patterns *)
  let cat = Telemetry.Catalog.all in
  Alcotest.(check bool)
    "catalogue is sorted" true
    (List.sort compare cat = cat);
  Alcotest.(check int)
    "catalogue has no duplicates"
    (List.length (List.sort_uniq compare cat))
    (List.length cat);
  List.iter
    (fun entry ->
      Alcotest.(check bool)
        (entry ^ " is a valid pattern")
        true
        (String.length entry > 0
        && entry.[0] <> '.'
        && entry.[String.length entry - 1] <> '.'
        && (let ok = ref true in
            String.iter
              (fun c -> if not (is_metric_char c || c = '*') then ok := false)
              entry;
            !ok)))
    cat;
  (* the matcher itself: sanity anchors *)
  Alcotest.(check bool)
    "literal entry matches" true
    (Telemetry.Catalog.matches "explore.generated");
  Alcotest.(check bool)
    "wildcard entry matches" true
    (Telemetry.Catalog.matches "lock.bakery_pp.acquire_s");
  Alcotest.(check bool)
    "unknown name rejected" false
    (Telemetry.Catalog.matches "explore.bogus_metric");
  (* namespaces the sweep cares about: first segment of each entry *)
  let namespaces =
    List.sort_uniq compare
      (List.map
         (fun e ->
           match String.index_opt e '.' with
           | Some i -> String.sub e 0 i
           | None -> e)
         cat)
  in
  let root = find_root (Sys.getcwd ()) in
  let files =
    List.concat_map
      (fun d ->
        let dir = Filename.concat root d in
        if Sys.file_exists dir then ml_files dir else [])
      [ "lib"; "bin"; "bench" ]
    |> List.filter (fun f -> Filename.check_suffix f ".ml")
  in
  Alcotest.(check bool)
    "found sources to scan" true
    (List.length files > 30);
  let problems = ref [] in
  let checked = ref 0 in
  let problem fmt =
    Printf.ksprintf (fun m -> problems := m :: !problems) fmt
  in
  List.iter
    (fun file ->
      let lines = String.split_on_char '\n' (read_file file) in
      List.iteri
        (fun i line ->
          let prev = if i = 0 then "" else List.nth lines (i - 1) in
          if not (contains_sub line "Span.start") then
            List.iter
              (fun lit ->
                let n = String.length lit in
                let namespace =
                  match String.index_opt lit '.' with
                  | Some j -> String.sub lit 0 j
                  | None -> lit
                in
                if metric_shaped lit && List.mem namespace namespaces then begin
                  incr checked;
                  if not (Telemetry.Catalog.matches lit) then
                    problem "%s:%d: metric %S is not in Telemetry.Catalog"
                      file (i + 1) lit
                end
                else if
                  mentions_instrument line || mentions_instrument prev
                then begin
                  (* concat fragments at registration sites:
                     ("bench." ^ id ^ ".wall_s") *)
                  if n > 1 && lit.[n - 1] = '.' && metric_shaped (lit ^ "x")
                  then begin
                    if not (Telemetry.Catalog.covers_prefix lit) then
                      problem
                        "%s:%d: no catalogue entry can start with %S" file
                        (i + 1) lit
                  end
                  else if n > 1 && lit.[0] = '.' && metric_shaped ("x" ^ lit)
                  then if not (Telemetry.Catalog.covers_suffix lit) then
                    problem "%s:%d: no catalogue entry can end with %S" file
                      (i + 1) lit
                end)
              (literals_of_line line))
        lines)
    files;
  Alcotest.(check bool)
    "sweep saw a plausible number of metric literals" true
    (!checked >= 30);
  if !problems <> [] then
    Alcotest.failf "metric-name drift:\n%s"
      (String.concat "\n" (List.rev !problems))

(* ------------------------------------------------------ record header *)

(* One owner for the run-record header: outside lib/telemetry/, no
   program source spells the literal "header" or "schema", so every
   header is built and checked by Telemetry.Record and a second format
   cannot grow a header of its own. *)
let header_owner () =
  let root = find_root (Sys.getcwd ()) in
  let owner = Filename.concat (Filename.concat root "lib") "telemetry" in
  let files =
    List.concat_map (fun d -> ml_files (Filename.concat root d)) [ "lib"; "bin" ]
    |> List.filter (fun f ->
           Filename.check_suffix f ".ml" && Filename.dirname f <> owner)
  in
  Alcotest.(check bool)
    "found sources to scan" true
    (List.length files > 30);
  let offending =
    List.concat_map
      (fun file ->
        String.split_on_char '\n' (read_file file)
        |> List.mapi (fun i line -> (i + 1, line))
        |> List.filter_map (fun (n, line) ->
               if
                 contains_sub line "\"header\"" || contains_sub line "\"schema\""
               then Some (Printf.sprintf "%s:%d: %s" file n (String.trim line))
               else None))
      files
  in
  if offending <> [] then
    Alcotest.failf "run-record header literal outside lib/telemetry/:\n%s"
      (String.concat "\n" offending)

let () =
  Alcotest.run "lint"
    [
      ("formatting", [ Alcotest.test_case "sources are clean" `Quick formatting ]);
      ( "metrics",
        [ Alcotest.test_case "names are catalogued" `Quick metric_names ] );
      ( "records",
        [ Alcotest.test_case "one owner for the header" `Quick header_owner ] );
    ]
