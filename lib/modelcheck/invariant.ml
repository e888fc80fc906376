type t = {
  name : string;
  law : string;
  holds : System.t -> State.packed -> bool;
  prepare : (System.t -> State.packed -> bool) option;
  describe : (System.t -> State.packed -> string option) option;
  subs : t list;
}

let pc_name sys s pid =
  let p = System.program sys in
  let lay = System.layout sys in
  p.Mxlang.Ast.steps.(State.pc lay s pid).step_name

let mutex =
  {
    name = "mutual-exclusion";
    law = "at most one process is at a Critical-kind label";
    holds =
      (fun sys s ->
        let n = System.nprocs sys in
        let rec count i acc =
          if acc > 1 then acc
          else if i >= n then acc
          else count (i + 1) (if System.in_critical sys s i then acc + 1 else acc)
        in
        count 0 0 <= 1);
    (* Staged form: resolve "is pc critical?" once per run into a table
       indexed by pc, so the per-state check is [nprocs] array loads.
       The counter is a local ref the compiler keeps in a register, so a
       call allocates nothing. *)
    prepare =
      Some
        (fun sys ->
          let p = System.program sys in
          let lay = System.layout sys in
          let critical =
            Array.map
              (fun (st : Mxlang.Ast.step) -> st.kind = Mxlang.Ast.Critical)
              p.steps
          in
          let first = lay.State.pcs_off in
          let last = first + System.nprocs sys - 1 in
          fun s ->
            let inside = ref 0 in
            for i = first to last do
              if Array.unsafe_get critical (Array.unsafe_get s i) then incr inside
            done;
            !inside <= 1);
    describe =
      Some
        (fun sys s ->
          let n = System.nprocs sys in
          let culprits =
            List.filter
              (fun i -> System.in_critical sys s i)
              (List.init n Fun.id)
          in
          if List.length culprits < 2 then None
          else
            Some
              (Printf.sprintf "processes %s are all inside the critical section (%s)"
                 (String.concat ", "
                    (List.map (fun i -> "p" ^ string_of_int i) culprits))
                 (String.concat ", "
                    (List.map
                       (fun i ->
                         Printf.sprintf "p%d@%s" i (pc_name sys s i))
                       culprits))));
    subs = [];
  }

let no_overflow =
  {
    name = "no-overflow";
    law = "every cell of every register-bounded shared variable is <= M";
    holds =
      (fun sys s ->
        let p = System.program sys in
        let lay = System.layout sys in
        let m = System.bound sys in
        let rec var_ok v =
          v >= p.nvars
          || ((not p.bounded.(v))
             ||
             let cells = Mxlang.Ast.cells_of ~nprocs:(System.nprocs sys) p v in
             let rec cell_ok i =
               i >= cells || (State.shared_cell lay s v i <= m && cell_ok (i + 1))
             in
             cell_ok 0)
             && var_ok (v + 1)
        in
        var_ok 0);
    (* Staged form: the register-bounded variables occupy a fixed set of
       shared cells; collect their offsets once, then scan those words
       directly, allocating nothing per call. *)
    prepare =
      Some
        (fun sys ->
          let p = System.program sys in
          let lay = System.layout sys in
          let m = System.bound sys in
          let nprocs = System.nprocs sys in
          let cells =
            Array.concat
              (List.init p.nvars (fun v ->
                   if not p.bounded.(v) then [||]
                   else
                     let o = Mxlang.Eval.offset lay.State.env v in
                     Array.init (Mxlang.Ast.cells_of ~nprocs p v) (fun i -> o + i)))
          in
          fun s ->
            let ok = ref true in
            for i = 0 to Array.length cells - 1 do
              if Array.unsafe_get s (Array.unsafe_get cells i) > m then ok := false
            done;
            !ok);
    describe =
      Some
        (fun sys s ->
          let p = System.program sys in
          let lay = System.layout sys in
          let m = System.bound sys in
          let offending = ref [] in
          for v = p.nvars - 1 downto 0 do
            if p.bounded.(v) then begin
              let cells = Mxlang.Ast.cells_of ~nprocs:(System.nprocs sys) p v in
              for i = cells - 1 downto 0 do
                let x = State.shared_cell lay s v i in
                if x > m then
                  offending :=
                    Printf.sprintf "%s[%d] = %d" p.var_names.(v) i x
                    :: !offending
              done
            end
          done;
          match !offending with
          | [] -> None
          | l ->
              Some
                (Printf.sprintf "%s exceed%s M = %d" (String.concat ", " l)
                   (if List.length l = 1 then "s" else "") m));
    subs = [];
  }

let bounded_by ~var ~limit =
  {
    name = Printf.sprintf "bounded(var %d <= %d)" var limit;
    law = Printf.sprintf "every cell of variable %d is <= %d" var limit;
    holds =
      (fun sys s ->
        let lay = System.layout sys in
        let cells =
          Mxlang.Ast.cells_of ~nprocs:(System.nprocs sys) (System.program sys) var
        in
        let rec ok i = i >= cells || (State.shared_cell lay s var i <= limit && ok (i + 1)) in
        ok 0);
    prepare = None;
    describe =
      Some
        (fun sys s ->
          let p = System.program sys in
          let lay = System.layout sys in
          let cells = Mxlang.Ast.cells_of ~nprocs:(System.nprocs sys) p var in
          let offending = ref [] in
          for i = cells - 1 downto 0 do
            let x = State.shared_cell lay s var i in
            if x > limit then
              offending :=
                Printf.sprintf "%s[%d] = %d" p.var_names.(var) i x :: !offending
          done;
          match !offending with
          | [] -> None
          | l ->
              Some
                (Printf.sprintf "%s exceed%s the limit %d" (String.concat ", " l)
                   (if List.length l = 1 then "s" else "") limit));
    subs = [];
  }

let custom name holds =
  { name; law = name; holds; prepare = None; describe = None; subs = [] }

let all invs =
  {
    name = String.concat " & " (List.map (fun i -> i.name) invs);
    law = String.concat " and " (List.map (fun i -> i.law) invs);
    holds = (fun sys s -> List.for_all (fun i -> i.holds sys s) invs);
    prepare = None;
    describe = None;
    subs = invs;
  }

let rec conjuncts inv =
  match inv.subs with [] -> [ inv ] | l -> List.concat_map conjuncts l

type failure = {
  f_name : string;  (* name of the failing conjunct *)
  f_law : string;  (* the conjunct as a human-readable law *)
  f_detail : string option;  (* register/pc values falsifying it *)
}

let explain_failure inv sys s =
  let rec find = function
    | [] -> None
    | c :: rest ->
        if c.holds sys s then find rest
        else
          Some
            {
              f_name = c.name;
              f_law = c.law;
              f_detail =
                (match c.describe with None -> None | Some d -> d sys s);
            }
  in
  find (conjuncts inv)

let check inv sys s = if inv.holds sys s then None else Some inv.name

(* Staged checker: specialize once per (invariant, system).  Falls back
   to the generic [holds] partially applied when no staged form exists;
   the two must agree on every state. *)
let stage inv sys =
  match inv.prepare with Some p -> p sys | None -> inv.holds sys
