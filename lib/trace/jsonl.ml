module J = Telemetry.Json

let num i = J.Num (float_of_int i)

let int_field line name =
  match J.member name line with
  | Some (J.Num v) -> Some (int_of_float v)
  | _ -> None

let str_field line name =
  match J.member name line with Some (J.Str s) -> Some s | _ -> None

let header_line (t : Event.trace) =
  Telemetry.Record.header Telemetry.Record.Trace
    ~extra:
      [
        ("source", J.Str t.source);
        ("model", J.Str t.model);
        ("trace_nprocs", num t.nprocs);
        ("bound", num t.bound);
        ("meta", J.Obj (List.map (fun (k, v) -> (k, J.Str v)) t.meta));
      ]

let kind_to_fields : Event.kind -> (string * J.t) list = function
  | Event.Label { from_label; to_label; from_kind; to_kind } ->
      [
        ("from_label", J.Str from_label);
        ("to_label", J.Str to_label);
        ("from_kind", J.Str from_kind);
        ("to_kind", J.Str to_kind);
      ]
  | Event.Read { var; cell; value } ->
      [ ("var", J.Str var); ("cell", num cell); ("value", num value) ]
  | Event.Write { var; cell; value; prev; raw } ->
      [
        ("var", J.Str var);
        ("cell", num cell);
        ("value", num value);
        ("prev", num prev);
        ("raw", num raw);
      ]
  | Event.Acquire { lock } -> [ ("lock", J.Str lock) ]
  | Event.Release { lock } -> [ ("lock", J.Str lock) ]
  | Event.Wait { what } -> [ ("what", J.Str what) ]
  | Event.Reset { what } -> [ ("what", J.Str what) ]
  | Event.Anomaly { what; cell; value } ->
      [ ("what", J.Str what); ("cell", num cell); ("value", num value) ]
  | Event.Violation { property; law; detail } ->
      [
        ("property", J.Str property);
        ("law", J.Str law);
        ("detail", J.Str detail);
      ]

let event_line (e : Event.t) =
  J.Obj
    ([
       ("kind", J.Str "event");
       ("type", J.Str (Event.kind_tag e.kind));
       ("seq", num e.seq);
       ("step", num e.step);
       ("pid", num e.pid);
       ("observed", num e.observed);
       ("vc", J.Arr (Array.to_list (Array.map (fun v -> num v) e.vc)));
     ]
    @ kind_to_fields e.kind)

let write ~path (t : Event.trace) =
  let oc = open_out path in
  output_string oc (J.to_string (header_line t));
  output_char oc '\n';
  Array.iter
    (fun e ->
      output_string oc (J.to_string (event_line e));
      output_char oc '\n')
    t.events;
  close_out oc

(* ------------------------------------------------------------ reading *)

let ( let* ) = Result.bind

let require name = function
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing or malformed field %S" name)

let kind_of_line line =
  let* ty = require "type" (str_field line "type") in
  let str n = require n (str_field line n) in
  let int n = require n (int_field line n) in
  match ty with
  | "label" ->
      let* from_label = str "from_label" in
      let* to_label = str "to_label" in
      let* from_kind = str "from_kind" in
      let* to_kind = str "to_kind" in
      Ok (Event.Label { from_label; to_label; from_kind; to_kind })
  | "read" ->
      let* var = str "var" in
      let* cell = int "cell" in
      let* value = int "value" in
      Ok (Event.Read { var; cell; value })
  | "write" ->
      let* var = str "var" in
      let* cell = int "cell" in
      let* value = int "value" in
      let* prev = int "prev" in
      let* raw = int "raw" in
      Ok (Event.Write { var; cell; value; prev; raw })
  | "acquire" ->
      let* lock = str "lock" in
      Ok (Event.Acquire { lock })
  | "release" ->
      let* lock = str "lock" in
      Ok (Event.Release { lock })
  | "wait" ->
      let* what = str "what" in
      Ok (Event.Wait { what })
  | "reset" ->
      let* what = str "what" in
      Ok (Event.Reset { what })
  | "anomaly" ->
      let* what = str "what" in
      let* cell = int "cell" in
      let* value = int "value" in
      Ok (Event.Anomaly { what; cell; value })
  | "violation" ->
      let* property = str "property" in
      let* law = str "law" in
      let* detail = str "detail" in
      Ok (Event.Violation { property; law; detail })
  | other -> Error (Printf.sprintf "unknown event type %S" other)

let event_of_line line =
  let* kind = kind_of_line line in
  let* seq = require "seq" (int_field line "seq") in
  let* step = require "step" (int_field line "step") in
  let* pid = require "pid" (int_field line "pid") in
  let* observed = require "observed" (int_field line "observed") in
  let* vc =
    match J.member "vc" line with
    | Some (J.Arr l) ->
        Ok
          (Array.of_list
             (List.map
                (function J.Num v -> int_of_float v | _ -> 0)
                l))
    | _ -> Error "missing or malformed field \"vc\""
  in
  Ok { Event.seq; step; pid; kind; observed; vc }

let read ~path =
  let* runs =
    Telemetry.Record.read ~accept:[ Telemetry.Record.Trace ]
      ~decode:(fun _ line -> event_of_line line)
      path
  in
  (* [write] leaves one run per file; of several, the last is read *)
  let run = List.nth runs (List.length runs - 1) in
  let header = run.Telemetry.Record.header in
  Result.map_error
    (fun e -> Printf.sprintf "%s: %s" path e)
    (let* source = require "source" (str_field header "source") in
     let* model = require "model" (str_field header "model") in
     let* nprocs = require "trace_nprocs" (int_field header "trace_nprocs") in
     let* bound = require "bound" (int_field header "bound") in
     let meta =
       match J.member "meta" header with
       | Some (J.Obj kvs) ->
           List.filter_map
             (fun (k, v) -> match v with J.Str s -> Some (k, s) | _ -> None)
             kvs
       | _ -> []
     in
     Ok
       {
         Event.source;
         model;
         nprocs;
         bound;
         meta;
         events = Array.of_list run.body;
       })
