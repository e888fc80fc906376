(* Shared-register read-set extraction.

   Causal trace analysis (lib/trace) needs to know which register cells
   an executed action *observed*, with the values it saw — that is the
   happens-before edge of Lamport's bakery argument ("the fatal read saw
   the wrapped write").  The reads are recorded by running the one
   evaluator, [Eval], with a watcher on its shared-cell accessor, so they
   follow its control flow exactly: short-circuit [And]/[Or], the taken
   branch of [Ite], and quantifier loops that stop at the deciding
   witness. *)

type read = { rd_var : Ast.var; rd_cell : int; rd_value : int }

(* Keep the first observation of each (var, cell): re-reads in the same
   atomic action necessarily see the same value (writes land after all
   evaluation), so duplicates carry no extra information. *)
let of_action env ~shared ~locals ~pid (a : Ast.action) =
  let acc = ref [] in
  Eval.observe env ~shared ~locals ~pid a ~watch:(fun v idx value ->
      if not (List.exists (fun r -> r.rd_var = v && r.rd_cell = idx) !acc)
      then acc := { rd_var = v; rd_cell = idx; rd_value = value } :: !acc);
  List.rev !acc

(* Static over-approximation of the cells an action may read, for the
   weak-register engine: the flicker enumerator must know every cell a
   guard or effect COULD observe under any candidate view, so unlike
   [of_action] this walk takes both [Ite] branches, unrolls quantifiers
   over every in-range index, and widens a dynamic array index to the
   whole array.  Constant folding (with [pid] and the unrolled [Qidx]
   known) keeps the common fixed-index reads exact. *)
let static_cells env ~pid (a : Ast.action) =
  let ncells v = Ast.cells_of ~nprocs:env.Eval.nprocs env.Eval.program v in
  let marked = Array.make env.Eval.shared_cells false in
  let mark_all v =
    let o = Eval.offset env v in
    for i = 0 to ncells v - 1 do
      marked.(o + i) <- true
    done
  in
  let rec const ~q (e : Ast.expr) =
    match e with
    | Ast.Int k -> Some k
    | N -> Some env.Eval.nprocs
    | M -> Some env.Eval.bound
    | Pid -> Some pid
    | Qidx -> q
    | Local _ | Rd _ | Max_arr _ -> None
    | Add (a, b) -> const2 ~q ( + ) a b
    | Sub (a, b) -> const2 ~q ( - ) a b
    | Mul (a, b) -> const2 ~q ( * ) a b
    | Mod (a, b) -> (
        match (const ~q a, const ~q b) with
        | Some x, Some d when d <> 0 -> Some (((x mod d) + d) mod d)
        | _ -> None)
    | Ite (_, a, b) -> (
        match (const ~q a, const ~q b) with
        | Some x, Some y when x = y -> Some x
        | _ -> None)
  and const2 ~q op a b =
    match (const ~q a, const ~q b) with
    | Some x, Some y -> Some (op x y)
    | _ -> None
  in
  let rec walk_e ~q (e : Ast.expr) =
    match e with
    | Ast.Int _ | N | M | Pid | Qidx | Local _ -> ()
    | Rd (v, ix) -> (
        walk_e ~q ix;
        match const ~q ix with
        | Some i when i >= 0 && i < ncells v -> marked.(Eval.offset env v + i) <- true
        | Some _ -> () (* out of range: raises at runtime, reads nothing *)
        | None -> mark_all v)
    | Add (a, b) | Sub (a, b) | Mul (a, b) | Mod (a, b) ->
        walk_e ~q a;
        walk_e ~q b
    | Max_arr v -> mark_all v
    | Ite (c, a, b) ->
        walk_b ~q c;
        walk_e ~q a;
        walk_e ~q b
  and walk_b ~q (b : Ast.bexpr) =
    match b with
    | Ast.True | False -> ()
    | Not x -> walk_b ~q x
    | And (x, y) | Or (x, y) ->
        walk_b ~q x;
        walk_b ~q y
    | Cmp (_, x, y) ->
        walk_e ~q x;
        walk_e ~q y
    | Lex_lt ((a, b1), (c, d)) -> List.iter (walk_e ~q) [ a; b1; c; d ]
    | Qexists (range, p) | Qall (range, p) ->
        for i = 0 to env.Eval.nprocs - 1 do
          if Eval.in_range ~pid range i then walk_b ~q:(Some i) p
        done
  in
  walk_b ~q:None a.guard;
  List.iter
    (fun (l, e) ->
      walk_e ~q:None e;
      match l with
      | Ast.Lo _ -> ()
      | Ast.Sh (_, ix) -> walk_e ~q:None ix)
    a.effects;
  let count = ref 0 in
  Array.iter (fun b -> if b then incr count) marked;
  let out = Array.make !count 0 and k = ref 0 in
  Array.iteri
    (fun cell b ->
      if b then begin
        out.(!k) <- cell;
        incr k
      end)
    marked;
  out
