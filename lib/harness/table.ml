type t = {
  title : string;
  notes : string list;
  headers : string list;
  mutable rows : string list list; (* reversed *)
}

let make ~title ?(notes = []) headers =
  if headers = [] then invalid_arg "Table.make: no headers";
  { title; notes; headers; rows = [] }

let add_row t row =
  if List.length row <> List.length t.headers then
    invalid_arg
      (Printf.sprintf "Table.add_row (%s): %d cells, expected %d" t.title
         (List.length row) (List.length t.headers));
  t.rows <- row :: t.rows

let cells_of_string s = String.split_on_char '|' s |> List.map String.trim

let add_rowf t fmt = Printf.ksprintf (fun s -> add_row t (cells_of_string s)) fmt

let render t =
  let rows = List.rev t.rows in
  let ncols = List.length t.headers in
  let width col =
    List.fold_left
      (fun acc row -> max acc (String.length (List.nth row col)))
      (String.length (List.nth t.headers col))
      rows
  in
  let widths = List.init ncols width in
  let pad cell w =
    (* right-align numbers, left-align text *)
    let is_numeric =
      cell <> ""
      && String.for_all
           (fun c ->
             (c >= '0' && c <= '9')
             || c = '.' || c = '-' || c = '+' || c = '%' || c = 'e'
             || c = 'k' || c = 'M' || c = 'G' || c = 'x' || c = 's' || c = 'u')
           cell
    in
    if is_numeric then Printf.sprintf "%*s" w cell
    else Printf.sprintf "%-*s" w cell
  in
  let line row =
    "| "
    ^ String.concat " | " (List.map2 pad row widths)
    ^ " |"
  in
  let rule =
    "+" ^ String.concat "+" (List.map (fun w -> String.make (w + 2) '-') widths) ^ "+"
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "== %s ==\n" t.title);
  Buffer.add_string buf (rule ^ "\n");
  Buffer.add_string buf (line t.headers ^ "\n");
  Buffer.add_string buf (rule ^ "\n");
  List.iter (fun row -> Buffer.add_string buf (line row ^ "\n")) rows;
  Buffer.add_string buf (rule ^ "\n");
  List.iter (fun note -> Buffer.add_string buf ("  note: " ^ note ^ "\n")) t.notes;
  Buffer.contents buf

let csv_escape cell =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') cell then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' cell) ^ "\""
  else cell

let to_csv t =
  let buf = Buffer.create 1024 in
  let emit row =
    Buffer.add_string buf (String.concat "," (List.map csv_escape row));
    Buffer.add_char buf '\n'
  in
  emit t.headers;
  List.iter emit (List.rev t.rows);
  Buffer.contents buf

let format_si v =
  let magnitude = abs_float v in
  let scaled, suffix =
    if magnitude >= 1e9 then (v /. 1e9, "G")
    else if magnitude >= 1e6 then (v /. 1e6, "M")
    else if magnitude >= 1e3 then (v /. 1e3, "k")
    else (v, "")
  in
  if suffix = "" && abs_float (Float.round v -. v) < 1e-9 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.2f%s" scaled suffix
