let escape s =
  String.concat "\\n" (String.split_on_char '\n' (String.concat "\\\"" (String.split_on_char '"' s)))

let state_label sys s =
  let lay = System.layout sys in
  let p = System.program sys in
  let pcs =
    String.concat ","
      (List.init (System.nprocs sys) (fun i ->
           p.steps.(State.pc lay s i).step_name))
  in
  let mem =
    String.concat " "
      (List.init p.nvars (fun v ->
           let cells = Mxlang.Ast.cells_of ~nprocs:(System.nprocs sys) p v in
           Printf.sprintf "%s=[%s]" p.var_names.(v)
             (String.concat ";"
                (List.init cells (fun c ->
                     string_of_int (State.shared_cell lay s v c))))))
  in
  pcs ^ "\n" ^ mem

let any_critical sys s =
  let rec go i =
    i < System.nprocs sys && (System.in_critical sys s i || go (i + 1))
  in
  go 0

let of_system ?(max_states = 500) ?constraint_ sys =
  let graph, _stats = Explore.run_graph ?constraint_ ~max_states sys in
  let store = graph.store in
  let n = Store.length store in
  let buf = Buffer.create 4096 in
  let out fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  out "digraph %s {\n" (Mxlang.Tla.module_name (System.program sys));
  out "  rankdir=TB;\n  node [shape=box, fontsize=9];\n";
  for id = 0 to n - 1 do
    let s = Store.get store id in
    out "  s%d [label=\"%s\"%s];\n" id
      (escape (state_label sys s))
      (if any_critical sys s then ", style=filled, fillcolor=lightcoral"
       else if id = 0 then ", style=filled, fillcolor=lightblue"
       else "")
  done;
  for id = 0 to n - 1 do
    List.iter
      (fun (m : System.move) ->
        match Store.find_opt store m.dest with
        | Some dst ->
            out "  s%d -> s%d [label=\"p%d:%s\", fontsize=8];\n" id dst m.pid
              (System.program sys).steps.(m.from_pc).step_name
        | None -> ())
      (System.successors sys (Store.get store id))
  done;
  if not graph.complete then begin
    out "  cut [label=\"...\", shape=plaintext];\n";
    out "  s0 -> cut [style=dashed, label=\"truncated at %d states\"];\n" n
  end;
  out "}\n";
  Buffer.contents buf

let of_trace ?violation sys (t : Trace.t) =
  let buf = Buffer.create 1024 in
  let out fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  out "digraph trace {\n  rankdir=TB;\n  node [shape=box, fontsize=9];\n";
  let last = List.length t - 1 in
  List.iteri
    (fun i (e : Trace.entry) ->
      let style =
        if i = last && violation <> None then
          ", style=filled, fillcolor=red, penwidth=2"
        else if any_critical sys e.state then
          ", style=filled, fillcolor=lightcoral"
        else ""
      in
      out "  t%d [label=\"%s\"%s];\n" i (escape (state_label sys e.state)) style)
    t;
  List.iteri
    (fun i (e : Trace.entry) ->
      if i > 0 then
        if i = last && violation <> None then
          let failed = match violation with Some f -> f | None -> "" in
          out
            "  t%d -> t%d [label=\"p%d:%s\\nviolates: %s\", fontsize=8, \
             color=red, penwidth=2];\n"
            (i - 1) i e.pid e.step_name (escape failed)
        else
          out "  t%d -> t%d [label=\"p%d:%s\", fontsize=8];\n" (i - 1) i e.pid
            e.step_name)
    t;
  out "}\n";
  Buffer.contents buf
