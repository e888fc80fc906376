type name = Events | Flight | Metrics | Trace

let name_to_string = function
  | Events -> "events"
  | Flight -> "flight"
  | Metrics -> "metrics"
  | Trace -> "trace"

(* Records are long-lived artifacts (attached to issues, compared
   months later): the version lets a reader refuse a file it would
   misparse. *)
let schema = 1

let header ?(extra = []) name =
  Json.Obj
    ((("kind", Json.Str "header")
     :: ("name", Json.Str (name_to_string name))
     :: ("schema", Json.Num (float_of_int schema))
     :: Runmeta.to_fields (Runmeta.capture ()))
    @ extra)

type 'a run = { name : name; header : Json.t; body : 'a list }

let check_header ~accept j =
  let shown = Option.fold ~none:"(none)" ~some:Json.to_string in
  let found = Json.member "name" j in
  match
    List.find_opt (fun n -> found = Some (Json.Str (name_to_string n))) accept
  with
  | None ->
      Error
        (Printf.sprintf "a run record of name %s, expected %s" (shown found)
           (String.concat " or " (List.map name_to_string accept)))
  | Some name -> (
      match Json.member "schema" j with
      | Some (Json.Num v) when v = float_of_int schema -> Ok name
      | v ->
          Error
            (Printf.sprintf
               "%s record schema %s is not readable by this build (it reads \
                schema %d)"
               (name_to_string name) (shown v) schema))

let read ~accept ~decode path =
  match open_in path with
  | exception Sys_error e -> Error e
  | ic ->
      let error line msg = Error (Printf.sprintf "%s:%d: %s" path line msg) in
      let close run runs = { run with body = List.rev run.body } :: runs in
      let rec go line runs run =
        match input_line ic with
        | exception End_of_file -> (
            match run with
            | None -> error line "no run record header"
            | Some run -> Ok (List.rev (close run runs)))
        | text when String.trim text = "" -> go (line + 1) runs run
        | text -> (
            match (Json.parse text, run) with
            | Error e, _ -> error line e
            | Ok j, _ when Json.member "kind" j = Some (Json.Str "header") -> (
                match check_header ~accept j with
                | Error e -> error line e
                | Ok name ->
                    let runs =
                      match run with Some r -> close r runs | None -> runs
                    in
                    go (line + 1) runs (Some { name; header = j; body = [] }))
            | Ok _, None -> error line "no run record header before this line"
            | Ok j, Some r -> (
                match decode r.name j with
                | Error e -> error line e
                | Ok v -> go (line + 1) runs (Some { r with body = v :: r.body }))
            )
      in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> go 1 [] None)
