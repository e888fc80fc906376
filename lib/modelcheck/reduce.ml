(* Pid-symmetry canonicalization and a conservative ample-set filter.
   See reduce.mli for the soundness argument; the short version:

   - Canonicalization only runs on programs that pass a static
     pid-symmetry certificate ([certify]).  The bakery id tie-break
     (Lex_lt over (ticket, pid)) fails it, by design: quotienting an
     asymmetric program can lose counterexamples.
   - The ample filter expands a single process exactly when every
     alternative of its current step reads no shared cell, writes no
     shared cell or pending slot, stays clear of Critical-kind steps,
     and strictly increases the pc (so ample-only paths cannot cycle:
     the pc sum strictly grows along every reduced-only edge). *)

type mode = Off | Sym | Sym_por

let mode_of_string = function
  | "none" -> Some Off
  | "sym" -> Some Sym
  | "sym+por" -> Some Sym_por
  | _ -> None

let mode_to_string = function
  | Off -> "none"
  | Sym -> "sym"
  | Sym_por -> "sym+por"

let mode_values = [ ("none", Off); ("sym", Sym); ("sym+por", Sym_por) ]

(* ------------------------------------------------------------------ *)
(* Static pid-symmetry certificate.                                    *)
(* ------------------------------------------------------------------ *)

exception Asym of string

(* Every expression is sorted as pid-valued or data-valued.  A program
   is certified symmetric when pids are never ordered, stored, mixed
   into arithmetic, or compared with data; per-process arrays are
   indexed only by the symmetric process designators Pid/Qidx (and only
   by Pid in effects, preserving the single-writer discipline the
   pending-slot rename relies on); quantifier ranges never order pids.
   Initial states are uniform across processes by construction
   (State.initial fills every block identically), so no separate check
   is needed there. *)
let certify (p : Mxlang.Ast.program) =
  let open Mxlang.Ast in
  let bad fmt = Printf.ksprintf (fun m -> raise (Asym m)) fmt in
  let vname v = p.var_names.(v) in
  let rec esort ~in_q (e : expr) =
    match e with
    | Int _ | N | M -> `Data
    | Pid | Qidx -> `Pid
    | Local _ -> `Data (* effects may only store data into locals *)
    | Rd (v, ix) ->
        index_ok ~in_q v ix;
        `Data
    | Add (a, b) | Sub (a, b) | Mul (a, b) | Mod (a, b) ->
        data ~in_q "arithmetic" a;
        data ~in_q "arithmetic" b;
        `Data
    | Max_arr _ -> `Data
    | Ite (c, a, b) ->
        bcheck ~in_q c;
        data ~in_q "a conditional branch" a;
        data ~in_q "a conditional branch" b;
        `Data
  and data ~in_q what e =
    match esort ~in_q e with
    | `Data -> ()
    | `Pid -> bad "a process id flows into %s" what
  and index_ok ~in_q v ix =
    if p.var_sizes.(v) = -1 then
      match ix with
      | Pid -> ()
      | Qidx when in_q -> ()
      | _ ->
          bad "per-process array %s indexed by a computed expression"
            (vname v)
    else data ~in_q (Printf.sprintf "an index into %s" (vname v)) ix
  and bcheck ~in_q (b : bexpr) =
    match b with
    | True | False -> ()
    | Not x -> bcheck ~in_q x
    | And (x, y) | Or (x, y) ->
        bcheck ~in_q x;
        bcheck ~in_q y
    | Cmp (c, x, y) -> (
        match (esort ~in_q x, esort ~in_q y) with
        | `Data, `Data -> ()
        | `Pid, `Pid -> (
            match c with
            | Ceq | Cne -> ()
            | _ -> bad "process ids are ordered (pid-order comparison)")
        | _ -> bad "a process id is compared with data")
    | Lex_lt ((a, b1), (c, d)) ->
        if List.exists (fun e -> esort ~in_q e = `Pid) [ a; b1; c; d ] then
          bad "id tie-break: Lex_lt orders process ids"
    | Qexists (r, q) | Qall (r, q) ->
        (match r with
        | Rall | Rothers -> ()
        | Rbelow | Rabove ->
            bad "pid-ordered quantifier range (below/above self)");
        bcheck ~in_q:true q
  in
  try
    Array.iter
      (fun (st : step) ->
        List.iter
          (fun (a : action) ->
            bcheck ~in_q:false a.guard;
            List.iter
              (fun (l, e) ->
                data ~in_q:false "a stored value" e;
                match l with
                | Lo _ -> ()
                | Sh (v, ix) -> index_ok ~in_q:false v ix)
              a.effects)
          st.actions)
      p.steps;
    Ok ()
  with Asym m -> Error m

(* ------------------------------------------------------------------ *)
(* Canonicalization.                                                   *)
(* ------------------------------------------------------------------ *)

(* Per-system geometry for the orbit-representative function.  A
   process's block is one cell in each key column: its pc, its cell of
   every per-process shared array, then each of its locals, in the sort
   key's order.  Column [c] holds process [i]'s cell at
   [s_cols.(2c) + i * s_cols.(2c+1)]: offsets and strides interleave so
   the sort reads one small array.  Some locals are two-phase pending
   write indices into per-process arrays: a live one equals the owning
   process's pid (certified programs write per-process arrays only at
   [Pid]), so it is keyed as 0 and renamed to the block's new slot
   afterwards. *)
type sym = {
  s_lay : State.layout;
  s_n : int; (* [s_lay]'s nprocs and words, kept here for the hot path *)
  s_words : int;
  s_cols : int array;
  s_pend : int array; (* block-relative pending-idx locals to rename *)
}

let make_sym sys =
  let lay = System.layout sys in
  let env = lay.State.env in
  let p = env.Mxlang.Eval.program in
  let lp = lay.State.locals_per in
  let pp = ref [] in
  for v = p.nvars - 1 downto 0 do
    if p.var_sizes.(v) = -1 then pp := env.Mxlang.Eval.offsets.(v) :: !pp
  done;
  let pend =
    match System.two_phase_meta sys with
    | None -> [||]
    | Some meta ->
        let acc = ref [] in
        Array.iteri
          (fun v slots ->
            if p.var_sizes.(v) = -1 then
              Array.iter (fun (il, _vl) -> acc := il :: !acc) slots)
          meta.Regsem.Two_phase.tp_pend;
        Array.of_list (List.sort compare !acc)
  in
  let cols =
    List.map (fun off -> [ off; 1 ]) (lay.State.pcs_off :: !pp)
    @ List.init lp (fun l -> [ lay.State.locals_off + l; lp ])
  in
  {
    s_lay = lay;
    s_n = lay.State.nprocs;
    s_words = lay.State.words;
    s_cols = Array.of_list (List.concat cols);
    s_pend = pend;
  }

(* One of the routines below runs once per generated successor, so
   they are first-order, top-level and typed [int array]: a local
   closure or a polymorphic compare here would allocate or slow every
   call.  [sort_blocks] and [reseat_block] check the state's length
   once; every key cell then lies inside it by construction of the
   layout, so the inner loops skip the per-access bounds checks. *)

(* Every live pending index := its block's slot when [rename], else 0. *)
let fix_pending sym (s : State.packed) ~rename =
  let lay = sym.s_lay in
  let lp = lay.State.locals_per in
  for k = 0 to Array.length sym.s_pend - 1 do
    let off = lay.State.locals_off + sym.s_pend.(k) in
    for j = 0 to sym.s_n - 1 do
      let a = off + (j * lp) in
      if s.(a) >= 0 then s.(a) <- (if rename then j else 0)
    done
  done

(* Strict lexicographic order on the keys of the blocks at slots [a]
   and [b], from the column at [cols.(c)] on. *)
let rec block_lt (cols : int array) (s : int array) a b c =
  c < Array.length cols
  &&
  let o = Array.unsafe_get cols c and w = Array.unsafe_get cols (c + 1) in
  let x = Array.unsafe_get s (o + (a * w))
  and y = Array.unsafe_get s (o + (b * w)) in
  x < y || (x = y && block_lt cols s a b (c + 2))

(* Are the blocks at slots [a] and [b] equal cell for cell, from the
   column at [cols.(c)] on? *)
let rec block_eq (cols : int array) (s : int array) a b c =
  c >= Array.length cols
  ||
  let o = Array.unsafe_get cols c and w = Array.unsafe_get cols (c + 1) in
  Array.unsafe_get s (o + (a * w)) = Array.unsafe_get s (o + (b * w))
  && block_eq cols s a b (c + 2)

(* Cell [off + i*stride] moves to [off + j*stride]; the cells between
   move one stride towards [i]. *)
let rotate (s : int array) off stride j i =
  let x = Array.unsafe_get s (off + (i * stride)) in
  if j <= i then
    for k = i downto j + 1 do
      Array.unsafe_set s (off + (k * stride))
        (Array.unsafe_get s (off + ((k - 1) * stride)))
    done
  else
    for k = i to j - 1 do
      Array.unsafe_set s (off + (k * stride))
        (Array.unsafe_get s (off + ((k + 1) * stride)))
    done;
  Array.unsafe_set s (off + (j * stride)) x

(* Orbit representative, in place: a stable insertion sort of the
   process blocks by a key that cannot see pids.  Unless [perm] is
   empty, it receives the slot map (length [nprocs]): canonical block
   [j] is source block [perm.(j)].  Stability makes both deterministic. *)
let sort_blocks sym (s : State.packed) (perm : int array) =
  let cols = sym.s_cols and n = sym.s_n in
  let track = Array.length perm > 0 in
  if Array.length s <> sym.s_words then
    invalid_arg "Reduce: state does not match the system's layout";
  if track then
    for j = 0 to n - 1 do
      perm.(j) <- j
    done;
  let pending = Array.length sym.s_pend > 0 in
  if pending then fix_pending sym s ~rename:false;
  for i = 1 to n - 1 do
    let j = ref i in
    while !j > 0 && block_lt cols s i (!j - 1) 0 do
      decr j
    done;
    if !j < i then begin
      for c = 0 to (Array.length cols / 2) - 1 do
        rotate s cols.(2 * c) cols.((2 * c) + 1) !j i
      done;
      if track then rotate perm 0 1 !j i
    end
  done;
  if pending then fix_pending sym s ~rename:true

(* [sort_blocks] of a successor of a canonical state in which only the
   process at slot [i] moved (certified programs write per-process
   state only at [Pid]), in one shift: the other blocks are still in
   order, so the moved block goes left past every block its key is
   below, or else right past every block whose key is below its own.
   Stopping at equal keys is what the stable sort does. *)
let reseat_block sym (s : State.packed) i =
  let cols = sym.s_cols and n = sym.s_n in
  if Array.length s <> sym.s_words then
    invalid_arg "Reduce: state does not match the system's layout";
  let pending = Array.length sym.s_pend > 0 in
  if pending then fix_pending sym s ~rename:false;
  let j = ref i in
  while !j > 0 && block_lt cols s i (!j - 1) 0 do
    decr j
  done;
  if !j = i then
    while !j < n - 1 && block_lt cols s (!j + 1) i 0 do
      incr j
    done;
  if !j <> i then
    for c = 0 to (Array.length cols / 2) - 1 do
      rotate s cols.(2 * c) cols.((2 * c) + 1) !j i
    done;
  if pending then fix_pending sym s ~rename:true

(* ------------------------------------------------------------------ *)
(* Ample-set tables.                                                   *)
(* ------------------------------------------------------------------ *)

(* amp.(pc).(pid): may pid alone be expanded when it stands at pc?
   Static per (pc, pid) because read sets are pid-dependent.  Under a
   weak model, writes to pending slots (locals >= tp_orig_locals) feed
   other processes' flicker views, so they disqualify too. *)
let make_amp sys =
  let lay = System.layout sys in
  let env = lay.State.env in
  let p = env.Mxlang.Eval.program in
  let n = lay.State.nprocs in
  let orig_locals =
    match System.two_phase_meta sys with
    | None -> p.Mxlang.Ast.nlocals
    | Some m -> m.Regsem.Two_phase.tp_orig_locals
  in
  Array.mapi
    (fun pc (step : Mxlang.Ast.step) ->
      Array.init n (fun pid ->
          step.actions <> []
          && step.kind <> Mxlang.Ast.Critical
          && List.for_all
               (fun (a : Mxlang.Ast.action) ->
                 a.target > pc
                 && p.steps.(a.target).kind <> Mxlang.Ast.Critical
                 && Array.length (Mxlang.Reads.static_cells env ~pid a) = 0
                 && List.for_all
                      (fun (l, _) ->
                        match l with
                        | Mxlang.Ast.Sh _ -> false
                        | Mxlang.Ast.Lo l -> l < orig_locals)
                      a.effects)
               step.actions))
    p.Mxlang.Ast.steps

(* ------------------------------------------------------------------ *)
(* The reduction context.                                              *)
(* ------------------------------------------------------------------ *)

type t = {
  rmode : mode;
  reason : string option; (* why canonicalization is off under Sym* *)
  active : bool; (* mode wants symmetry and the program certified *)
  sym : sym;
  amp : bool array array option; (* Some iff rmode = Sym_por *)
  sys : System.t;
}

let make rmode sys =
  let reason =
    match rmode with
    | Off -> None
    | Sym | Sym_por -> (
        match certify (System.source_program sys) with
        | Ok () -> None
        | Error r -> Some r)
  in
  let active = rmode <> Off && reason = None in
  {
    rmode;
    reason;
    active;
    sym = make_sym sys;
    amp = (if rmode = Sym_por then Some (make_amp sys) else None);
    sys;
  }

let mode t = t.rmode
let symmetry_active t = t.active
let asymmetry_reason t = t.reason

let describe t =
  match t.rmode with
  | Off -> "none"
  | m ->
      let por = if m = Sym_por then "; ample-set POR on" else "" in
      let sym_part =
        match t.reason with
        | None -> "pid-symmetry certified, canonicalizing"
        | Some r -> Printf.sprintf "canonicalization off — %s" r
      in
      Printf.sprintf "%s: %s%s" (mode_to_string m) sym_part por

let canonizer t =
  if not t.active then fun _ -> ()
  else
    let sym = t.sym in
    fun s -> sort_blocks sym s [||]

let reseat t s pid = if t.active then reseat_block t.sym s pid

let canon t s =
  let c = Array.copy s in
  let perm = Array.init t.sym.s_n (fun i -> i) in
  if t.active then sort_blocks t.sym c perm;
  (c, perm)

let permute t ~perm s =
  let sym = t.sym in
  let out = Array.copy s in
  for c = 0 to (Array.length sym.s_cols / 2) - 1 do
    let off = sym.s_cols.(2 * c) and w = sym.s_cols.((2 * c) + 1) in
    Array.iteri (fun j i -> out.(off + (j * w)) <- s.(off + (i * w))) perm
  done;
  fix_pending sym out ~rename:true;
  out

let invert p =
  let inv = Array.make (Array.length p) 0 in
  Array.iteri (fun j i -> inv.(i) <- j) p;
  inv

let invariants_reducible invs =
  let ok (c : Invariant.t) =
    c.Invariant.name = "mutual-exclusion"
    || c.Invariant.name = "no-overflow"
    || String.starts_with ~prefix:"bounded(" c.Invariant.name
  in
  List.for_all (fun i -> List.for_all ok (Invariant.conjuncts i)) invs

let ample t s =
  match t.amp with
  | None -> -1
  | Some amp ->
      let lay = t.sym.s_lay in
      let n = lay.State.nprocs in
      let rec go pid =
        if pid >= n then -1
        else
          let pc = s.(lay.State.pcs_off + pid) in
          if amp.(pc).(pid) && System.enabled t.sys s pid then pid
          else go (pid + 1)
      in
      go 0

(* ------------------------------------------------------------------ *)
(* Expansion.                                                          *)
(* ------------------------------------------------------------------ *)

(* One search domain's expansion of stored states.  The expanded state
   is canonical whenever symmetry is active, which gives two shortcuts
   that change no count, rank or representative:

   - a successor moved one process, so [reseat] canonicalizes it in
     place of the full sort;
   - a process whose block equals its left neighbour's ({e twin}) is
     swapped with it by a symmetry that fixes the state, so its moves
     reach exactly the neighbour's canonical successors, one for one.
     They are counted and ranked without being built.

   Twins are skipped only when every process is expanded.  [x_last_pid]
   and [x_last_count] count the moves of the last process expanded, for
   a twin that follows it. *)
type expander = {
  x_red : t;
  x_iter :
    State.packed ->
    lo:int ->
    hi:int ->
    scratch:State.packed ->
    (pid:int -> from_pc:int -> alt:int -> flick:int -> unit) ->
    unit;
  x_scratch : State.packed;
  x_emit : int -> unit;
  x_on_move : pid:int -> from_pc:int -> alt:int -> flick:int -> unit;
  mutable x_generated : int;
  mutable x_twins : int;
  mutable x_rank : int;
  mutable x_last_pid : int;
  mutable x_last_count : int;
}

let on_move x ~pid ~from_pc:_ ~alt:_ ~flick:_ =
  if x.x_red.active then begin
    if pid <> x.x_last_pid then begin
      x.x_last_pid <- pid;
      x.x_last_count <- 0
    end;
    x.x_last_count <- x.x_last_count + 1;
    reseat_block x.x_red.sym x.x_scratch pid
  end;
  x.x_generated <- x.x_generated + 1;
  let rank = x.x_rank in
  x.x_rank <- rank + 1;
  x.x_emit rank

let expander t ~iter ~scratch emit =
  let rec x =
    {
      x_red = t;
      x_iter = iter;
      x_scratch = scratch;
      x_emit = emit;
      x_on_move =
        (fun ~pid ~from_pc ~alt ~flick -> on_move x ~pid ~from_pc ~alt ~flick);
      x_generated = 0;
      x_twins = 0;
      x_rank = 0;
      x_last_pid = -1;
      x_last_count = 0;
    }
  in
  x

let generated x = x.x_generated
let twin_moves x = x.x_twins

let expand x (s : State.packed) =
  let t = x.x_red in
  let n = t.sym.s_n and cols = t.sym.s_cols in
  let g0 = x.x_generated in
  x.x_rank <- 0;
  x.x_last_pid <- -1;
  let only = ample t s in
  if only >= 0 then
    x.x_iter s ~lo:only ~hi:only ~scratch:x.x_scratch x.x_on_move
  else if not t.active then
    x.x_iter s ~lo:0 ~hi:(n - 1) ~scratch:x.x_scratch x.x_on_move
  else begin
    (* [lo]: the first process not yet expanded or skipped. *)
    let lo = ref 0 in
    for pid = 1 to n - 1 do
      if block_eq cols s (pid - 1) pid 0 then begin
        if !lo < pid then
          x.x_iter s ~lo:!lo ~hi:(pid - 1) ~scratch:x.x_scratch x.x_on_move;
        let c = if x.x_last_pid = pid - 1 then x.x_last_count else 0 in
        x.x_generated <- x.x_generated + c;
        x.x_twins <- x.x_twins + c;
        x.x_rank <- x.x_rank + c;
        x.x_last_pid <- pid;
        x.x_last_count <- c;
        lo := pid + 1
      end
    done;
    if !lo < n then
      x.x_iter s ~lo:!lo ~hi:(n - 1) ~scratch:x.x_scratch x.x_on_move
  end;
  x.x_generated - g0

(* ------------------------------------------------------------------ *)
(* Counterexample coordinates.                                         *)
(* ------------------------------------------------------------------ *)

(* Forward replay: walk the canonical trace alongside a genuine run,
   maintaining ren : canonical slot -> real pid.  At each canonical edge
   (slot p, step, canonical dest) the real move is whichever move of
   process ren.(p) canonicalizes to that dest (equivariance guarantees
   one exists); the next renaming is exactly the slot map its dest
   canonicalizes with. *)
let decanonicalize t (tr : Trace.t) =
  if not t.active then tr
  else
    match tr with
    | [] -> []
    | first :: rest ->
        let sys = t.sys in
        let steps = (System.program sys).Mxlang.Ast.steps in
        let cur = ref (System.initial sys) in
        let ren = ref (Array.init (System.nprocs sys) (fun i -> i)) in
        let out = ref [ { first with Trace.state = !cur } ] in
        List.iter
          (fun (e : Trace.entry) ->
            let real = !ren.(e.Trace.pid) in
            let moves = System.successors_of_pid sys !cur real in
            let matches (m : System.move) =
              steps.(m.System.from_pc).Mxlang.Ast.step_name
              = e.Trace.step_name
              && State.equal (fst (canon t m.System.dest)) e.Trace.state
            in
            match List.find_opt matches moves with
            | None ->
                invalid_arg
                  "Reduce.decanonicalize: canonical trace does not replay \
                   (quotient search reached a state the full system cannot)"
            | Some m ->
                let _, perm = canon t m.System.dest in
                ren := perm;
                cur := m.System.dest;
                out :=
                  {
                    Trace.pid = real;
                    step_name = e.Trace.step_name;
                    state = m.System.dest;
                  }
                  :: !out)
          rest;
        List.rev !out
