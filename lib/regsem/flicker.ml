type ctx = {
  fl_model : Model.t;
  fl_nprocs : int;
  fl_nvars : int;
  fl_locals_off : int;
  fl_locals_per : int;
  fl_var_off : int array;
  fl_cell_ceil : int array;
  fl_pend : (int * int) array array;
  fl_live_max : int;  (* pending slots over all processes *)
}

let max_total = 1 lsl 26

let make ~model ~nprocs ~locals_off ~locals_per ~var_off ~cell_ceil ~pend =
  {
    fl_model = model;
    fl_nprocs = nprocs;
    fl_nvars = Array.length var_off;
    fl_locals_off = locals_off;
    fl_locals_per = locals_per;
    fl_var_off = var_off;
    fl_cell_ceil = cell_ceil;
    fl_pend = pend;
    fl_live_max =
      nprocs * Array.fold_left (fun acc slots -> acc + Array.length slots) 0 pend;
  }

let model ctx = ctx.fl_model

let mem_sorted (a : int array) x =
  let lo = ref 0 and hi = ref (Array.length a - 1) and found = ref false in
  while (not !found) && !lo <= !hi do
    let mid = (!lo + !hi) lsr 1 in
    let v = Array.unsafe_get a mid in
    if v = x then found := true else if v < x then lo := mid + 1 else hi := mid - 1
  done;
  !found

let too_many_views () =
  Mxlang.Eval.Error
    (Printf.sprintf
       "flicker: more than %d candidate views for one action (raise the model \
        or shrink the ranges)"
       max_total)

(* ---- The reference enumeration ------------------------------------- *)

(* Overlapped cells for action reads [cells] of process [pid] in state
   [s], with their candidate values.  Deterministic: discovery order is
   (writer asc, var asc, slot asc), grouping is by cell, and candidate 0
   is always the unperturbed value.  Built from lists, independently of
   the frame enumerator below, so the interpreter's successors (which
   use this) and the compiled ones (which use the frames) compare two
   enumerations. *)
let collect ctx ~s ~pid ~cells =
  let dirty = ref [] in
  for q = ctx.fl_nprocs - 1 downto 0 do
    if q <> pid then begin
      let base = ctx.fl_locals_off + (q * ctx.fl_locals_per) in
      for v = ctx.fl_nvars - 1 downto 0 do
        let slots = ctx.fl_pend.(v) in
        for j = Array.length slots - 1 downto 0 do
          let il, vl = slots.(j) in
          let idx = s.(base + il) in
          if idx >= 0 then begin
            let cell = ctx.fl_var_off.(v) + idx in
            if mem_sorted cells cell then dirty := (cell, s.(base + vl)) :: !dirty
          end
        done
      done
    end
  done;
  (* [!dirty] is now in (q asc, v asc, slot asc) discovery order. *)
  let sorted = List.stable_sort (fun (c1, _) (c2, _) -> compare c1 c2) !dirty in
  let groups = ref [] in
  List.iter
    (fun (cell, pv) ->
      match !groups with
      | (c, pvs) :: tl when c = cell -> groups := (c, pv :: pvs) :: tl
      | _ -> groups := (cell, [ pv ]) :: !groups)
    sorted;
  (* [!groups] is in descending cell order; [rev_map] makes it
     ascending and puts each group's values back in discovery order. *)
  let groups =
    List.rev_map (fun (cell, pvs_rev) -> (cell, List.rev pvs_rev)) !groups
  in
  let candidates cell pvs =
    let cur = s.(cell) in
    match ctx.fl_model with
    | Model.Atomic -> [| cur |]
    | Model.Regular ->
        let seen = ref [ cur ] in
        List.iter (fun v -> if not (List.mem v !seen) then seen := v :: !seen) pvs;
        Array.of_list (List.rev !seen)
    | Model.Safe ->
        let ceil = ctx.fl_cell_ceil.(cell) in
        let extra = ref [] in
        for v = ceil downto 0 do
          if v <> cur then extra := v :: !extra
        done;
        Array.of_list (cur :: !extra)
  in
  (* Ranked in descending cell order: digit 0 of a rank is the highest
     overlapped cell. *)
  let kept =
    List.filter_map
      (fun (cell, pvs) ->
        let c = candidates cell pvs in
        if Array.length c >= 2 then Some (cell, c) else None)
      (List.rev groups)
  in
  (Array.of_list (List.map fst kept), Array.of_list (List.map snd kept))

let total_views kcands =
  let total = ref 1 in
  Array.iter
    (fun c ->
      let n = Array.length c in
      if !total > max_total / n then raise (too_many_views ());
      total := !total * n)
    kcands;
  !total

let iter_views ctx ~s ~view ~pid ~cells f =
  match ctx.fl_model with
  | Model.Atomic -> f ~flick:0
  | Model.Regular | Model.Safe ->
      let kcells, kcands = collect ctx ~s ~pid ~cells in
      let k = Array.length kcells in
      if k = 0 then f ~flick:0
      else begin
        let total = total_views kcands in
        for flick = 0 to total - 1 do
          let r = ref flick in
          for i = 0 to k - 1 do
            let c = kcands.(i) in
            let n = Array.length c in
            view.(kcells.(i)) <- c.(!r mod n);
            r := !r / n
          done;
          f ~flick
        done;
        for i = 0 to k - 1 do
          view.(kcells.(i)) <- s.(kcells.(i))
        done
      end

(* ---- Allocation-free enumeration ----------------------------------- *)

(* One enumeration frame.  [enter] records the state's live pending
   writes once; [start] then picks, per action, the overlapped cells and
   their candidates out of them, and [next] steps an odometer over the
   candidates, writing each view into [view] in place.  Every buffer is
   kept between uses and only grows. *)
type views = {
  mutable ctx : ctx;
  mutable src : int array;
  mutable view : int array;  (* a copy of [src], perturbed at the kept cells *)
  (* live pending writes of [src]: writer, flat cell, latched value, in
     (writer asc, var asc, slot asc) order *)
  mutable nlive : int;
  mutable live_q : int array;
  mutable live_cell : int array;
  mutable live_val : int array;
  (* the current action's overlapped writes, by descending cell (stable) *)
  mutable sel_cell : int array;
  mutable sel_val : int array;
  (* the current action's kept cells, descending: candidate [digit.(i)]
     of cell [kcell.(i)] is [cands.(koff.(i) + digit.(i))], one of
     [klen.(i)] *)
  mutable k : int;
  mutable kcell : int array;
  mutable koff : int array;
  mutable klen : int array;
  mutable digit : int array;
  mutable cands : int array;
  owner : stack;
  level : int;
}

(* A domain's frames.  A callback of one enumeration may start another
   (a successor callback that asks whether a process is enabled, say),
   so frames nest: [enter] takes the frame at [depth] and [leave] gives
   it and every frame above it back. *)
and stack = { mutable frames : views array; mutable depth : int }

let dummy_ctx =
  make ~model:Model.Atomic ~nprocs:0 ~locals_off:0 ~locals_per:0 ~var_off:[||]
    ~cell_ceil:[||] ~pend:[||]

let frame owner level =
  {
    ctx = dummy_ctx;
    src = [||];
    view = [||];
    nlive = 0;
    live_q = [||];
    live_cell = [||];
    live_val = [||];
    sel_cell = [||];
    sel_val = [||];
    k = 0;
    kcell = [||];
    koff = [||];
    klen = [||];
    digit = [||];
    cands = Array.make 64 0;
    owner;
    level;
  }

let stacks = Stdlib.Domain.DLS.new_key (fun () -> { frames = [||]; depth = 0 })

(* Size a frame for [ctx] and a state of [words] words; a no-op once the
   frame has served a context at least this large. *)
let fit fr ctx words =
  if Array.length fr.view < words then fr.view <- Array.make words 0;
  let n = ctx.fl_live_max in
  if Array.length fr.live_q < n then begin
    fr.live_q <- Array.make n 0;
    fr.live_cell <- Array.make n 0;
    fr.live_val <- Array.make n 0;
    fr.sel_cell <- Array.make n 0;
    fr.sel_val <- Array.make n 0;
    fr.kcell <- Array.make n 0;
    fr.koff <- Array.make n 0;
    fr.klen <- Array.make n 0;
    fr.digit <- Array.make n 0
  end

let enter ctx (s : int array) =
  let st = Stdlib.Domain.DLS.get stacks in
  let d = st.depth in
  if d = Array.length st.frames then
    st.frames <-
      Array.init (max 4 (2 * d)) (fun i ->
          if i < d then st.frames.(i) else frame st i);
  let fr = st.frames.(d) in
  st.depth <- d + 1;
  let words = Array.length s in
  fit fr ctx words;
  fr.ctx <- ctx;
  fr.src <- s;
  fr.k <- 0;
  let view = fr.view in
  for i = 0 to words - 1 do
    Array.unsafe_set view i (Array.unsafe_get s i)
  done;
  let n = ref 0 in
  for q = 0 to ctx.fl_nprocs - 1 do
    let base = ctx.fl_locals_off + (q * ctx.fl_locals_per) in
    for v = 0 to ctx.fl_nvars - 1 do
      let slots = ctx.fl_pend.(v) in
      for j = 0 to Array.length slots - 1 do
        let il, vl = slots.(j) in
        let idx = s.(base + il) in
        if idx >= 0 then begin
          fr.live_q.(!n) <- q;
          fr.live_cell.(!n) <- ctx.fl_var_off.(v) + idx;
          fr.live_val.(!n) <- s.(base + vl);
          incr n
        end
      done
    done
  done;
  fr.nlive <- !n;
  fr

let leave fr = fr.owner.depth <- fr.level
let view fr = fr.view

(* Keep the overlapped cell [c], whose writes are [sel_*.(lo .. hi-1)],
   if it has two candidates or more; returns the cell's candidate count
   (1 when dropped). *)
let keep fr c lo hi =
  let ctx = fr.ctx in
  let need =
    match ctx.fl_model with
    | Model.Atomic -> 1
    | Model.Regular -> 1 + hi - lo
    | Model.Safe -> ctx.fl_cell_ceil.(c) + 2
  in
  let off = if fr.k = 0 then 0 else fr.koff.(fr.k - 1) + fr.klen.(fr.k - 1) in
  if off + need > Array.length fr.cands then begin
    let cands = Array.make (2 * (off + need)) 0 in
    Array.blit fr.cands 0 cands 0 off;
    fr.cands <- cands
  end;
  let cands = fr.cands in
  let cur = fr.src.(c) in
  cands.(off) <- cur;
  let n = ref 1 in
  (match ctx.fl_model with
  | Model.Atomic -> ()
  | Model.Regular ->
      for g = lo to hi - 1 do
        let x = fr.sel_val.(g) in
        let fresh = ref true in
        for h = 0 to !n - 1 do
          if cands.(off + h) = x then fresh := false
        done;
        if !fresh then begin
          cands.(off + !n) <- x;
          incr n
        end
      done
  | Model.Safe ->
      for x = 0 to ctx.fl_cell_ceil.(c) do
        if x <> cur then begin
          cands.(off + !n) <- x;
          incr n
        end
      done);
  if !n >= 2 then begin
    let k = fr.k in
    fr.kcell.(k) <- c;
    fr.koff.(k) <- off;
    fr.klen.(k) <- !n;
    fr.digit.(k) <- 0;
    fr.k <- k + 1
  end;
  !n

let start fr ~pid ~cells =
  let view = fr.view and src = fr.src in
  for i = 0 to fr.k - 1 do
    let c = fr.kcell.(i) in
    view.(c) <- src.(c)
  done;
  fr.k <- 0;
  (* Overlapped writes, insertion-sorted by descending cell; equal
     cells keep discovery order. *)
  let m = ref 0 in
  for e = 0 to fr.nlive - 1 do
    let c = fr.live_cell.(e) in
    if fr.live_q.(e) <> pid && mem_sorted cells c then begin
      let j = ref !m in
      while !j > 0 && fr.sel_cell.(!j - 1) < c do
        fr.sel_cell.(!j) <- fr.sel_cell.(!j - 1);
        fr.sel_val.(!j) <- fr.sel_val.(!j - 1);
        decr j
      done;
      fr.sel_cell.(!j) <- c;
      fr.sel_val.(!j) <- fr.live_val.(e);
      incr m
    end
  done;
  let total = ref 1 and lo = ref 0 in
  while !lo < !m do
    let c = fr.sel_cell.(!lo) in
    let hi = ref (!lo + 1) in
    while !hi < !m && fr.sel_cell.(!hi) = c do
      incr hi
    done;
    let n = keep fr c !lo !hi in
    if !total > max_total / n then raise (too_many_views ());
    total := !total * n;
    lo := !hi
  done;
  !total

(* Advance the odometer by one rank: digit 0 is least significant, as
   in the mixed-radix rank. *)
let next fr =
  let view = fr.view and cands = fr.cands in
  let i = ref 0 in
  while
    let d = fr.digit.(!i) + 1 in
    if d = fr.klen.(!i) then begin
      fr.digit.(!i) <- 0;
      view.(fr.kcell.(!i)) <- cands.(fr.koff.(!i));
      incr i;
      true
    end
    else begin
      fr.digit.(!i) <- d;
      view.(fr.kcell.(!i)) <- cands.(fr.koff.(!i) + d);
      false
    end
  do
    ()
  done

let seek fr flick =
  let r = ref flick in
  for i = 0 to fr.k - 1 do
    let n = fr.klen.(i) in
    let d = !r mod n in
    fr.digit.(i) <- d;
    fr.view.(fr.kcell.(i)) <- fr.cands.(fr.koff.(i) + d);
    r := !r / n
  done

let assignment ctx ~s ~pid ~cells ~flick =
  let fr = enter ctx s in
  Fun.protect
    ~finally:(fun () -> leave fr)
    (fun () ->
      ignore (start fr ~pid ~cells);
      seek fr flick;
      List.init fr.k (fun i ->
          let c = fr.kcell.(i) in
          (c, fr.view.(c))))
