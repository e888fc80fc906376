exception Error of string

type env = {
  program : Ast.program;
  nprocs : int;
  bound : int;
  offsets : int array;
  shared_cells : int;
}

let make_env (p : Ast.program) ~nprocs ~bound =
  if nprocs <= 0 then raise (Error "make_env: nprocs must be positive");
  if bound < 1 then raise (Error "make_env: bound must be at least 1");
  let offsets = Array.make p.nvars 0 in
  let total = ref 0 in
  for v = 0 to p.nvars - 1 do
    offsets.(v) <- !total;
    total := !total + Ast.cells_of ~nprocs p v
  done;
  { program = p; nprocs; bound; offsets; shared_cells = !total }

let offset env v = env.offsets.(v)

let cells env v = Ast.cells_of ~nprocs:env.nprocs env.program v

let in_bounds env v idx = idx >= 0 && idx < cells env v

let read_error env v idx =
  Printf.sprintf "read %s[%d]: index out of range 0..%d"
    env.program.var_names.(v) idx
    (cells env v - 1)

let write_error env v idx =
  Printf.sprintf "write %s[%d]: index out of range"
    env.program.var_names.(v) idx

let init_shared env =
  let a = Array.make env.shared_cells 0 in
  for v = 0 to env.program.nvars - 1 do
    let o = env.offsets.(v) and n = cells env v in
    Array.fill a o n env.program.init_shared.(v)
  done;
  a

let init_locals env = Array.copy env.program.init_locals

(* One evaluation: the state it reads, the executing process, and who
   watches its shared reads. *)
type frame = {
  env : env;
  shared : int array;
  locals : int array;
  pid : int;
  watch : (Ast.var -> int -> int -> unit) option;
}

(* The one shared-cell accessor: every read a guard or an effect makes
   is range-checked against its variable here and shown to the
   watcher, if any. *)
let read f v idx =
  if not (in_bounds f.env v idx) then raise (Error (read_error f.env v idx));
  let x = f.shared.(f.env.offsets.(v) + idx) in
  (match f.watch with Some w -> w v idx x | None -> ());
  x

(* [q] is the index bound by the innermost enclosing quantifier;
   [-1] when no quantifier is open. *)
let rec eval_q f ~q (e : Ast.expr) =
  match e with
  | Int k -> k
  | N -> f.env.nprocs
  | M -> f.env.bound
  | Pid -> f.pid
  | Qidx -> if q < 0 then raise (Error "Qidx used outside a quantifier") else q
  | Local l -> f.locals.(l)
  | Rd (v, ix) -> read f v (eval_q f ~q ix)
  | Add (a, b) -> eval_q f ~q a + eval_q f ~q b
  | Sub (a, b) -> eval_q f ~q a - eval_q f ~q b
  | Mul (a, b) -> eval_q f ~q a * eval_q f ~q b
  | Mod (a, b) ->
      let d = eval_q f ~q b in
      if d = 0 then raise (Error "modulo by zero");
      ((eval_q f ~q a mod d) + d) mod d
  | Max_arr v ->
      (* the max scan reads every cell of the array *)
      let best = ref (read f v 0) in
      for i = 1 to cells f.env v - 1 do
        let x = read f v i in
        if x > !best then best := x
      done;
      !best
  | Ite (c, a, b) -> if eval_bq f ~q c then eval_q f ~q a else eval_q f ~q b

and in_range ~pid range i =
  match range with
  | Ast.Rall -> true
  | Rothers -> i <> pid
  | Rbelow -> i < pid
  | Rabove -> i > pid

and eval_bq f ~q (b : Ast.bexpr) =
  match b with
  | True -> true
  | False -> false
  | Not x -> not (eval_bq f ~q x)
  | And (x, y) -> eval_bq f ~q x && eval_bq f ~q y
  | Or (x, y) -> eval_bq f ~q x || eval_bq f ~q y
  | Cmp (c, x, y) -> Ast.compare_with c (eval_q f ~q x) (eval_q f ~q y)
  | Lex_lt ((a, b1), (c, d)) ->
      let a = eval_q f ~q a
      and b1 = eval_q f ~q b1
      and c = eval_q f ~q c
      and d = eval_q f ~q d in
      a < c || (a = c && b1 < d)
  | Qexists (range, p) ->
      let rec loop i =
        i < f.env.nprocs
        && ((in_range ~pid:f.pid range i && eval_bq f ~q:i p) || loop (i + 1))
      in
      loop 0
  | Qall (range, p) ->
      let rec loop i =
        i >= f.env.nprocs
        || (((not (in_range ~pid:f.pid range i)) || eval_bq f ~q:i p)
           && loop (i + 1))
      in
      loop 0

let frame env ~shared ~locals ~pid = { env; shared; locals; pid; watch = None }

let eval env ~shared ~locals ~pid e =
  eval_q (frame env ~shared ~locals ~pid) ~q:(-1) e

let eval_b env ~shared ~locals ~pid b =
  eval_bq (frame env ~shared ~locals ~pid) ~q:(-1) b

let enabled_actions env ~shared ~locals ~pid ~pc =
  let f = frame env ~shared ~locals ~pid in
  List.filter
    (fun (a : Ast.action) -> eval_bq f ~q:(-1) a.guard)
    env.program.steps.(pc).actions

type write =
  | Local of { slot : int; value : int }
  | Shared of { var : Ast.var; cell : int; value : int }

(* Each effect in order: its right-hand side, then its destination
   index, range-checked against the destination variable. *)
let resolve f (a : Ast.action) =
  List.map
    (fun (l, e) ->
      let value = eval_q f ~q:(-1) e in
      match l with
      | Ast.Lo slot -> Local { slot; value }
      | Ast.Sh (var, ix) ->
          let cell = eval_q f ~q:(-1) ix in
          if not (in_bounds f.env var cell) then
            raise (Error (write_error f.env var cell));
          Shared { var; cell; value })
    a.effects

let writes env ~shared ~locals ~pid a =
  resolve (frame env ~shared ~locals ~pid) a

let observe env ~shared ~locals ~pid ~watch (a : Ast.action) =
  let f = { env; shared; locals; pid; watch = Some watch } in
  ignore (eval_bq f ~q:(-1) a.guard);
  ignore (resolve f a)

let apply_split env ~rshared ~shared ~locals ~pid a =
  List.iter
    (function
      | Local { slot; value } -> locals.(slot) <- value
      | Shared { var; cell; value } ->
          shared.(env.offsets.(var) + cell) <- value)
    (writes env ~shared:rshared ~locals ~pid a)

let apply env ~shared ~locals ~pid (a : Ast.action) =
  apply_split env ~rshared:shared ~shared ~locals ~pid a
