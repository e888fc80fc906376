type witness = {
  prefix : Trace.t;
  cycle : Trace.t;
  victim_continuously_enabled : bool;
  cs_entries_in_cycle : int;
}

type result = { witness : witness option; complete : bool; stats : Explore.stats }

let stuck_at_kind kind (p : Mxlang.Ast.program) pc = p.steps.(pc).kind = kind
let stuck_at_label name (p : Mxlang.Ast.program) pc = p.steps.(pc).step_name = name

(* A move within the restricted graph: destination id plus enough
   bookkeeping to print the transition and recognize CS entries. *)
type redge = { dst : int; e_pid : int; e_pc : int; cs_entry : bool }

let find ?constraint_ ?(max_states = 2_000_000) ?(require_victim_disabled = false)
    ~victim ~stuck_at sys =
  if victim < 0 || victim >= System.nprocs sys then
    invalid_arg (Printf.sprintf "Lasso.find: no process %d" victim);
  let graph, stats = Explore.run_graph ?constraint_ ~max_states sys in
  let store = graph.store in
  let lay = System.layout sys in
  let prog = System.program sys in
  let n = Store.length store in
  let restricted i = stuck_at prog (State.pc lay (Store.get store i) victim) in
  (* Successor edges inside the restriction: non-victim moves between
     restricted states that stayed inside the explored graph. *)
  let edges_of i =
    let s = Store.get store i in
    List.filter_map
      (fun (m : System.move) ->
        if m.pid = victim then None
        else
          match Store.find_opt store m.dest with
          | Some j when restricted j ->
              let was_cs =
                System.kind_of_pc sys m.from_pc = Mxlang.Ast.Critical
              in
              let now_cs = System.in_critical sys m.dest m.pid in
              Some { dst = j; e_pid = m.pid; e_pc = m.from_pc; cs_entry = (now_cs && not was_cs) }
          | _ -> None)
      (System.successors sys s)
  in
  (* Iterative Tarjan over the restricted subgraph. *)
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let comp = Array.make n (-1) in
  let stack = ref [] in
  let counter = ref 0 in
  let ncomp = ref 0 in
  let visit root =
    (* Explicit DFS stack: (node, remaining successor list). *)
    let dfs = ref [ (root, edges_of root) ] in
    index.(root) <- !counter;
    lowlink.(root) <- !counter;
    incr counter;
    stack := root :: !stack;
    on_stack.(root) <- true;
    while !dfs <> [] do
      match !dfs with
      | [] -> ()
      | (v, succs) :: rest -> (
          match succs with
          | [] ->
              dfs := rest;
              (match rest with
              | (u, _) :: _ ->
                  if lowlink.(v) < lowlink.(u) then lowlink.(u) <- lowlink.(v)
              | [] -> ());
              if lowlink.(v) = index.(v) then begin
                let c = !ncomp in
                incr ncomp;
                let continue = ref true in
                while !continue do
                  match !stack with
                  | [] -> continue := false
                  | w :: tl ->
                      stack := tl;
                      on_stack.(w) <- false;
                      comp.(w) <- c;
                      if w = v then continue := false
                done
              end
          | e :: more ->
              dfs := (v, more) :: rest;
              let w = e.dst in
              if index.(w) < 0 then begin
                index.(w) <- !counter;
                lowlink.(w) <- !counter;
                incr counter;
                stack := w :: !stack;
                on_stack.(w) <- true;
                dfs := (w, edges_of w) :: !dfs
              end
              else if on_stack.(w) && index.(w) < lowlink.(v) then
                lowlink.(v) <- index.(w))
    done
  in
  for i = 0 to n - 1 do
    if restricted i && index.(i) < 0 then visit i
  done;
  (* Per SCC: one state (if any) in which the victim has no enabled
     action — needed for fairness-consistent lassos. *)
  let disabled_in = Hashtbl.create 64 in
  if require_victim_disabled then
    for i = 0 to n - 1 do
      if
        restricted i
        && comp.(i) >= 0
        && (not (Hashtbl.mem disabled_in comp.(i)))
        && not (System.enabled sys (Store.get store i) victim)
      then Hashtbl.add disabled_in comp.(i) i
    done;
  (* Look for an SCC-internal edge that is a CS entry; any such edge lies
     on a cycle witnessing the starvation. *)
  let found = ref None in
  let i = ref 0 in
  while !found = None && !i < n do
    let u = !i in
    if restricted u && comp.(u) >= 0 then
      List.iter
        (fun e ->
          if
            !found = None && e.cs_entry
            && comp.(e.dst) = comp.(u)
            && ((not require_victim_disabled) || Hashtbl.mem disabled_in comp.(u))
          then found := Some (u, e))
        (edges_of u);
    incr i
  done;
  match !found with
  | None -> { witness = None; complete = graph.complete; stats }
  | Some (u, e0) ->
      let c = comp.(u) in
      (* BFS within the SCC from [src] to [dst]; returns the edge path. *)
      let path_between src dst =
        if src = dst then []
        else begin
          let pred = Hashtbl.create 64 in
          let q = Queue.create () in
          Queue.add src q;
          Hashtbl.add pred src None;
          let reached = ref false in
          while (not !reached) && not (Queue.is_empty q) do
            let v = Queue.pop q in
            List.iter
              (fun e ->
                if comp.(e.dst) = c && not (Hashtbl.mem pred e.dst) then begin
                  Hashtbl.add pred e.dst (Some (v, e));
                  if e.dst = dst then reached := true else Queue.add e.dst q
                end)
              (edges_of v)
          done;
          let rec back id acc =
            match Hashtbl.find pred id with
            | None -> acc
            | Some (v, e) -> back v ((id, e) :: acc)
          in
          back dst []
        end
      in
      let entry_of id pid pc =
        {
          Trace.pid;
          step_name = (if pid < 0 then "<loop>" else prog.steps.(pc).step_name);
          state = Store.get store id;
        }
      in
      (* Cycle: u --e0--> e0.dst --...--> waypoint --...--> u, where the
         waypoint (if demanded) is a state with the victim disabled. *)
      let edge_path =
        match Hashtbl.find_opt disabled_in c with
        | Some d when require_victim_disabled ->
            path_between e0.dst d @ path_between d u
        | _ -> path_between e0.dst u
      in
      let cycle_tail =
        List.map (fun (id, e) -> entry_of id e.e_pid e.e_pc) edge_path
      in
      let cycle = entry_of e0.dst e0.e_pid e0.e_pc :: cycle_tail in
      let prefix = Explore.trace_to graph u in
      let cycle_states =
        Store.get store u :: List.map (fun (t : Trace.entry) -> t.state) cycle
      in
      let victim_continuously_enabled =
        List.for_all (fun s -> System.enabled sys s victim) cycle_states
      in
      let cs_entries_in_cycle =
        (if e0.cs_entry then 1 else 0)
        + List.length
            (List.filter
               (fun (t : Trace.entry) ->
                 t.pid >= 0 && System.in_critical sys t.state t.pid)
               cycle_tail)
      in
      {
        witness =
          Some { prefix; cycle; victim_continuously_enabled; cs_entries_in_cycle };
        complete = graph.complete;
        stats;
      }
