(* Staged compiler from the mxlang AST to closure-based native code.

   The interpreter ([Eval.eval_q]) re-walks the AST on every guard test
   and effect application — the model checker's hottest path.  This pass
   walks each expression ONCE per (step, action, pid) at [System.make]
   time and produces plain OCaml closures over a single flat memory
   image (the checker's packed state: shared cells first, then pcs, then
   per-process locals).  Three sources of speed:

   - the executing [pid] is a compile-time constant, so [Pid] and every
     quantifier range ([Rbelow], [Rabove], [Rothers]) resolve statically;
   - quantifiers unroll against the known [nprocs] into short-circuit
     chains whose bodies see [Qidx] as a constant, which in turn makes
     most shared reads constant-offset loads;
   - constant subexpressions fold away, so a typical Bakery guard
     compiles to a handful of array loads and comparisons.

   Dynamic-error behaviour is bit-compatible with the interpreter: the
   same [Eval.Error] messages are raised at the same evaluation points
   (never at compile time), including short-circuit evaluation order of
   [And]/[Or]/quantifiers and the value-then-index order of effects.

   Compiled closures use unchecked array accesses only where the offset
   is proven in range at compile time against the layout (constant
   local/shared offsets, unrolled array scans) or guarded by the
   interpreter-identical bounds check immediately before the access.
   Callers must evaluate against a full-layout image (see the mli). *)

exception Error = Eval.Error

(* A compiled integer expression, with constants kept symbolic so that
   enclosing expressions can fold them. *)
type cexpr = Const of int | Dyn of (int array -> int)

type cbexpr = Bconst of bool | Bdyn of (int array -> bool)

let force = function Const k -> fun _ -> k | Dyn f -> f
let bforce = function Bconst b -> fun _ -> b | Bdyn f -> f

(* Lift a dynamic error into a closure so it fires at evaluation time,
   exactly where the interpreter would raise it. *)
let raising msg = Dyn (fun _ -> raise (Error msg))

(* [lbase] is the offset of the executing process's locals inside the
   flat memory image; [q] is the constant bound by the innermost
   unrolled quantifier, or [None] outside any quantifier. *)
let rec cexpr_of env ~lbase ~pid ~q (e : Ast.expr) : cexpr =
  let open Eval in
  match e with
  | Ast.Int k -> Const k
  | N -> Const env.nprocs
  | M -> Const env.bound
  | Pid -> Const pid
  | Qidx -> (
      match q with
      | Some i -> Const i
      | None -> raising "Qidx used outside a quantifier")
  | Local l ->
      let off = lbase + l in
      Dyn (fun m -> Array.unsafe_get m off)
  | Rd (v, ix) -> (
      let o = env.offsets.(v) and n = Ast.cells_of ~nprocs:env.nprocs env.program v in
      match cexpr_of env ~lbase ~pid ~q ix with
      | Const i when i >= 0 && i < n ->
          let cell = o + i in
          Dyn (fun m -> Array.unsafe_get m cell)
      | Const i -> raising (Eval.read_error env v i)
      | Dyn f ->
          Dyn
            (fun m ->
              let i = f m in
              if i < 0 || i >= n then raise (Error (Eval.read_error env v i));
              Array.unsafe_get m (o + i)))
  | Add (a, b) -> arith env ~lbase ~pid ~q ( + ) a b
  | Sub (a, b) -> arith env ~lbase ~pid ~q ( - ) a b
  | Mul (a, b) -> arith env ~lbase ~pid ~q ( * ) a b
  | Mod (a, b) -> (
      let euclid x d =
        if d = 0 then raise (Error "modulo by zero");
        ((x mod d) + d) mod d
      in
      match
        (cexpr_of env ~lbase ~pid ~q a, cexpr_of env ~lbase ~pid ~q b)
      with
      | Const x, Const d when d <> 0 -> Const (euclid x d)
      | ca, cb ->
          let fa = force ca and fb = force cb in
          (* The interpreter evaluates the divisor first and rejects a
             zero divisor before touching the dividend. *)
          Dyn
            (fun m ->
              let d = fb m in
              if d = 0 then raise (Error "modulo by zero");
              ((fa m mod d) + d) mod d))
  | Max_arr v ->
      let o = env.offsets.(v) and n = Ast.cells_of ~nprocs:env.nprocs env.program v in
      Dyn
        (fun m ->
          let best = ref (Array.unsafe_get m o) in
          for i = 1 to n - 1 do
            let x = Array.unsafe_get m (o + i) in
            if x > !best then best := x
          done;
          !best)
  | Ite (c, a, b) -> (
      match cbexpr_of env ~lbase ~pid ~q c with
      | Bconst true -> cexpr_of env ~lbase ~pid ~q a
      | Bconst false -> cexpr_of env ~lbase ~pid ~q b
      | Bdyn fc -> (
          let ca = cexpr_of env ~lbase ~pid ~q a
          and cb = cexpr_of env ~lbase ~pid ~q b in
          match (ca, cb) with
          | Const x, Const y when x = y -> Dyn (fun m -> ignore (fc m); x)
          | _ ->
              let fa = force ca and fb = force cb in
              Dyn (fun m -> if fc m then fa m else fb m)))

and arith env ~lbase ~pid ~q op a b =
  match (cexpr_of env ~lbase ~pid ~q a, cexpr_of env ~lbase ~pid ~q b) with
  | Const x, Const y -> Const (op x y)
  | ca, cb ->
      let fa = force ca and fb = force cb in
      Dyn (fun m -> op (fa m) (fb m))

and cbexpr_of env ~lbase ~pid ~q (b : Ast.bexpr) : cbexpr =
  match b with
  | Ast.True -> Bconst true
  | False -> Bconst false
  | Not x -> (
      match cbexpr_of env ~lbase ~pid ~q x with
      | Bconst v -> Bconst (not v)
      | Bdyn f -> Bdyn (fun m -> not (f m)))
  | And (x, y) -> (
      match cbexpr_of env ~lbase ~pid ~q x with
      | Bconst false -> Bconst false
      | Bconst true -> cbexpr_of env ~lbase ~pid ~q y
      | Bdyn fx -> (
          match cbexpr_of env ~lbase ~pid ~q y with
          | Bconst false -> Bdyn (fun m -> fx m && false)
          | Bconst true -> Bdyn fx
          | Bdyn fy -> Bdyn (fun m -> fx m && fy m)))
  | Or (x, y) -> (
      match cbexpr_of env ~lbase ~pid ~q x with
      | Bconst true -> Bconst true
      | Bconst false -> cbexpr_of env ~lbase ~pid ~q y
      | Bdyn fx -> (
          match cbexpr_of env ~lbase ~pid ~q y with
          | Bconst true -> Bdyn (fun m -> fx m || true)
          | Bconst false -> Bdyn fx
          | Bdyn fy -> Bdyn (fun m -> fx m || fy m)))
  | Cmp (c, x, y) -> (
      match
        (cexpr_of env ~lbase ~pid ~q x, cexpr_of env ~lbase ~pid ~q y)
      with
      | Const a, Const b -> Bconst (Ast.compare_with c a b)
      | cx, cy -> (
          let fx = force cx and fy = force cy in
          match c with
          | Ast.Clt -> Bdyn (fun m -> fx m < fy m)
          | Cle -> Bdyn (fun m -> fx m <= fy m)
          | Ceq -> Bdyn (fun m -> fx m = fy m)
          | Cne -> Bdyn (fun m -> fx m <> fy m)
          | Cgt -> Bdyn (fun m -> fx m > fy m)
          | Cge -> Bdyn (fun m -> fx m >= fy m)))
  | Lex_lt ((a, b1), (c, d)) ->
      (* The interpreter evaluates all four components up front. *)
      let fa = force (cexpr_of env ~lbase ~pid ~q a)
      and fb = force (cexpr_of env ~lbase ~pid ~q b1)
      and fc = force (cexpr_of env ~lbase ~pid ~q c)
      and fd = force (cexpr_of env ~lbase ~pid ~q d) in
      Bdyn
        (fun m ->
          let a = fa m and b1 = fb m and c = fc m and d = fd m in
          a < c || (a = c && b1 < d))
  | Qexists (range, p) ->
      unroll env ~lbase ~pid ~q:() range p ~neutral:false ~join:(fun acc part ->
          match (acc, part) with
          | Bconst true, _ -> Bconst true
          | Bconst false, part -> part
          | acc, Bconst false -> acc
          | Bdyn fx, part ->
              let fy = bforce part in
              Bdyn (fun m -> fx m || fy m))
  | Qall (range, p) ->
      unroll env ~lbase ~pid ~q:() range p ~neutral:true ~join:(fun acc part ->
          match (acc, part) with
          | Bconst false, _ -> Bconst false
          | Bconst true, part -> part
          | acc, Bconst true -> acc
          | Bdyn fx, part ->
              let fy = bforce part in
              Bdyn (fun m -> fx m && fy m))

(* Unroll a quantifier body over the in-range process indices, joining
   the per-index instantiations left to right (preserving the
   interpreter's 0..N-1 short-circuit order). *)
and unroll env ~lbase ~pid ~q:() range p ~neutral ~join =
  let acc = ref (Bconst neutral) in
  for i = 0 to env.Eval.nprocs - 1 do
    if Eval.in_range ~pid range i then
      acc := join !acc (cbexpr_of env ~lbase ~pid ~q:(Some i) p)
  done;
  !acc

(* ------------------------------------------------------------ actions *)

type caction = {
  enabled : int array -> bool;  (** the guard, against the flat image *)
  perform : int array -> unit;
      (** apply all effects in place, simultaneous-assignment semantics *)
  perform_rw : read:int array -> write:int array -> unit;
      (** split-image variant: evaluate against [read], store into
          [write]; the two must not alias *)
  target : int;
}

(* One effect, staged: where to write and what to write. *)
let ceffect env ~lbase ~pid ((l, e) : Ast.lhs * Ast.expr) =
  let value = force (cexpr_of env ~lbase ~pid ~q:None e) in
  let dest =
    match l with
    | Ast.Lo l -> Const (lbase + l)
    | Ast.Sh (v, ix) -> (
        let o = env.Eval.offsets.(v)
        and n = Ast.cells_of ~nprocs:env.Eval.nprocs env.Eval.program v in
        match cexpr_of env ~lbase ~pid ~q:None ix with
        | Const i when i >= 0 && i < n -> Const (o + i)
        | Const i -> Dyn (fun _ -> raise (Error (Eval.write_error env v i)))
        | Dyn f ->
            Dyn
              (fun m ->
                let i = f m in
                if i < 0 || i >= n then
                  raise (Error (Eval.write_error env v i));
                o + i))
  in
  (dest, value)

let cperform env ~lbase ~pid (effects : (Ast.lhs * Ast.expr) list) =
  match List.map (ceffect env ~lbase ~pid) effects with
  | [] -> fun _ -> ()
  (* Every destination is either a compile-time-validated constant cell
     or range-checked by its [Dyn] closure, so the stores are unchecked. *)
  | [ (d, v) ] -> (
      match d with
      | Const d -> fun m -> Array.unsafe_set m d (v m)
      | Dyn fd ->
          fun m ->
            let value = v m in
            let d = fd m in
            Array.unsafe_set m d value)
  | [ (d1, v1); (d2, v2) ] ->
      let fd1 = force d1 and fd2 = force d2 in
      fun m ->
        let x1 = v1 m in
        let d1 = fd1 m in
        let x2 = v2 m in
        let d2 = fd2 m in
        Array.unsafe_set m d1 x1;
        Array.unsafe_set m d2 x2
  | [ (d1, v1); (d2, v2); (d3, v3) ] ->
      let fd1 = force d1 and fd2 = force d2 and fd3 = force d3 in
      fun m ->
        let x1 = v1 m in
        let d1 = fd1 m in
        let x2 = v2 m in
        let d2 = fd2 m in
        let x3 = v3 m in
        let d3 = fd3 m in
        Array.unsafe_set m d1 x1;
        Array.unsafe_set m d2 x2;
        Array.unsafe_set m d3 x3
  | many ->
      (* General case: evaluate every (value, destination) pair against
         the pre-state, then write in declaration order. *)
      let pairs =
        Array.of_list (List.map (fun (d, v) -> (force d, v)) many)
      in
      let k = Array.length pairs in
      fun m ->
        let staged = Array.make (2 * k) 0 in
        for j = 0 to k - 1 do
          let fd, fv = pairs.(j) in
          staged.(2 * j) <- fv m;
          staged.((2 * j) + 1) <- fd m
        done;
        for j = 0 to k - 1 do
          m.(staged.((2 * j) + 1)) <- staged.(2 * j)
        done

(* Split-image effect application: every right-hand side and every
   destination index is evaluated against [read], every store lands in
   [write].  Because the two images never alias (the weak engine passes
   a flickered view and a scratch successor), the stores can be direct
   — nothing staged here can observe them — and declaration order
   preserves the atomic last-write-wins outcome. *)
let cperform_rw env ~lbase ~pid (effects : (Ast.lhs * Ast.expr) list) =
  let pairs =
    Array.of_list
      (List.map
         (fun eff ->
           let d, v = ceffect env ~lbase ~pid eff in
           (force d, v))
         effects)
  in
  let k = Array.length pairs in
  fun ~read ~write ->
    for j = 0 to k - 1 do
      let fd, fv = Array.unsafe_get pairs j in
      let value = fv read in
      let d = fd read in
      Array.unsafe_set write d value
    done

let caction_of env ~lbase ~pid (a : Ast.action) =
  {
    enabled = bforce (cbexpr_of env ~lbase ~pid ~q:None a.guard);
    perform = cperform env ~lbase ~pid a.effects;
    perform_rw = cperform_rw env ~lbase ~pid a.effects;
    target = a.target;
  }

type t = {
  env : Eval.env;
  actions : caction array array array;
      (** [actions.(pc).(pid).(alt)], alternatives in declaration order *)
}

let compile (env : Eval.env) ~local_base =
  let p = env.program in
  let actions =
    Array.map
      (fun (step : Ast.step) ->
        Array.init env.nprocs (fun pid ->
            let lbase = local_base pid in
            Array.of_list
              (List.map (caction_of env ~lbase ~pid) step.actions)))
      p.steps
  in
  { env; actions }

let actions t ~pc ~pid = t.actions.(pc).(pid)

(* Standalone compilation of a single expression/boolean, used by the
   differential tests and by callers that evaluate against a flat image
   outside any quantifier. *)
let expr env ~local_base ~pid e =
  force (cexpr_of env ~lbase:(local_base pid) ~pid ~q:None e)

let bexpr env ~local_base ~pid b =
  bforce (cbexpr_of env ~lbase:(local_base pid) ~pid ~q:None b)
