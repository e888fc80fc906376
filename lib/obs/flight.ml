module Json = Telemetry.Json

type sample = { seq : int; at_s : float; values : (string * float) list }

let sample ~seq ~at_s values =
  {
    seq;
    at_s;
    values = List.sort (fun (a, _) (b, _) -> compare a b) values;
  }

let sample_fields s =
  [
    ("seq", Json.Num (float_of_int s.seq));
    ("at_s", Json.Num s.at_s);
    ("values", Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) s.values));
  ]

let sample_of_json j =
  match (Json.member "seq" j, Json.member "at_s" j, Json.member "values" j) with
  | Some sq, Some at, Some (Json.Obj vs) -> (
      match (Json.to_num sq, Json.to_num at) with
      | Some sq, Some at ->
          let values =
            List.filter_map
              (fun (k, v) ->
                match Json.to_num v with Some f -> Some (k, f) | None -> None)
              vs
          in
          Ok (sample ~seq:(int_of_float sq) ~at_s:at values)
      | _ -> Error "flight sample: seq/at_s not numeric")
  | _ -> Error "flight sample: missing seq, at_s or values"

let names samples =
  List.sort_uniq compare
    (List.concat_map (fun s -> List.map fst s.values) samples)

let series samples name =
  Array.of_list
    (List.filter_map (fun s -> List.assoc_opt name s.values) samples)

let times samples name =
  Array.of_list
    (List.filter_map
       (fun s ->
         match List.assoc_opt name s.values with
         | Some _ -> Some s.at_s
         | None -> None)
       samples)
