type entry = {
  step_name : string;
  pc : int;
  kind : Mxlang.Ast.kind;
  fired : int;
}

type t = { entries : entry list; total_transitions : int; complete : bool }

let of_graph (g : Explore.graph) =
  let p = System.program g.sys in
  let counts = Array.make (Array.length p.steps) 0 in
  let total = ref 0 in
  (* Count every transition generated from a stored state (TLC's notion
     of action coverage), not just the BFS spanning-tree edges. *)
  for id = 0 to Store.length g.store - 1 do
    List.iter
      (fun (m : System.move) ->
        counts.(m.from_pc) <- counts.(m.from_pc) + 1;
        incr total)
      (System.successors g.sys (Store.get g.store id))
  done;
  let entries =
    List.init (Array.length p.steps) (fun pc ->
        {
          step_name = p.steps.(pc).step_name;
          pc;
          kind = p.steps.(pc).kind;
          fired = counts.(pc);
        })
  in
  { entries; total_transitions = !total; complete = g.complete }

let measure ?constraint_ ?max_states sys =
  let graph, _ = Explore.run_graph ?constraint_ ?max_states sys in
  of_graph graph

let uncovered t =
  List.filter_map
    (fun e -> if e.fired = 0 then Some e.step_name else None)
    t.entries

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun e ->
      Format.fprintf ppf "%-20s %-8s %8d%s@," e.step_name
        (Mxlang.Pretty.kind e.kind) e.fired
        (if e.fired > 0 then ""
         else if t.complete then "   <- never fired"
         else "   <- not fired (inconclusive)"))
    t.entries;
  Format.fprintf ppf "total stored transitions: %d" t.total_transitions;
  if not t.complete then
    Format.fprintf ppf
      "@,INCONCLUSIVE: the state budget ran out before the graph was \
       complete; an unfired label may fire beyond it.";
  Format.fprintf ppf "@]"
