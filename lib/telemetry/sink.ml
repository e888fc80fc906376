type event = {
  time : float;
  kind : string;
  name : string;
  fields : (string * Json.t) list;
}

type t = { emit : event -> unit; close : unit -> unit }

let event ?time ~kind ~name fields =
  let time = match time with Some t -> t | None -> Clock.wall_s () in
  { time; kind; name; fields }

let null = { emit = (fun _ -> ()); close = (fun () -> ()) }

(* Compact human scalar: integers without the decimal point, floats
   with just enough digits, strings bare when unambiguous. *)
let rec human_value (v : Json.t) =
  match v with
  | Json.Null -> "-"
  | Json.Bool b -> string_of_bool b
  | Json.Num v ->
      if Float.is_integer v && Float.abs v < 1e15 then
        Printf.sprintf "%.0f" v
      else Printf.sprintf "%.4g" v
  | Json.Str s ->
      if s <> "" && String.for_all (fun c -> c <> ' ' && c <> '=') s then s
      else Printf.sprintf "%S" s
  | Json.Arr l -> "[" ^ String.concat "," (List.map human_value l) ^ "]"
  | Json.Obj _ -> Json.to_string v

let stderr_human () =
  let born = Clock.wall_s () in
  let mutex = Mutex.create () in
  let emit e =
    let line =
      Printf.sprintf "[%s %s +%.1fs] %s" e.kind e.name (e.time -. born)
        (String.concat "  "
           (List.map (fun (k, v) -> k ^ "=" ^ human_value v) e.fields))
    in
    Mutex.lock mutex;
    Printf.eprintf "%s\n%!" line;
    Mutex.unlock mutex
  in
  { emit; close = (fun () -> ()) }

let jsonl name path =
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  output_string oc (Json.to_string (Record.header name));
  output_char oc '\n';
  flush oc;
  let mutex = Mutex.create () in
  let closed = ref false in
  let emit e =
    let json =
      Json.Obj
        (("t", Json.Num e.time)
        :: ("kind", Json.Str e.kind)
        :: ("name", Json.Str e.name)
        :: e.fields)
    in
    let line = Json.to_string json in
    Mutex.lock mutex;
    if not !closed then begin
      output_string oc line;
      output_char oc '\n';
      (* One flush per event: telemetry cadence is coarse, and a run
         killed mid-flight must leave only whole lines behind — the
         flight recorder's crash-forensics contract. *)
      flush oc
    end;
    Mutex.unlock mutex
  in
  let close () =
    Mutex.lock mutex;
    if not !closed then begin
      closed := true;
      close_out oc
    end;
    Mutex.unlock mutex
  in
  { emit; close }

let tee sinks =
  {
    emit = (fun e -> List.iter (fun s -> s.emit e) sinks);
    close = (fun () -> List.iter (fun s -> s.close ()) sinks);
  }
