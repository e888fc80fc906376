type obs = int array

type failure = { impl_trace : Trace.t; bad_obs : obs }

type result = {
  included : bool;
  failure : failure option;
  complete : bool;
  impl_pairs : int;
  spec_states : int;
}

let phase_of_kind = function
  | Mxlang.Ast.Noncritical -> 0
  | Entry | Doorway | Waiting | Plain -> 1
  | Critical -> 2
  | Exit -> 3

let phase_obs sys s =
  let lay = System.layout sys in
  Array.init (System.nprocs sys) (fun i ->
      phase_of_kind (System.kind_of_pc sys (State.pc lay s i)))

let obs_equal (a : obs) (b : obs) = a = b

(* Interned specification states: stable ids so that sets of spec states
   can be canonicalized as sorted id lists. *)
type spec_store = {
  sys : System.t;
  store : Store.t;
  expandable : State.packed -> bool;
}

let intern store s =
  let id = Store.probe store s in
  if id >= 0 then id else Store.add_probed store s

(* All spec states reachable from [seeds] through transitions that keep
   the observation equal to [o] (stutter closure), as a sorted id list. *)
let closure st ~obs_fn ~o seeds =
  let seen = Hashtbl.create 64 in
  let acc = ref [] in
  let rec visit id =
    if not (Hashtbl.mem seen id) then begin
      Hashtbl.add seen id ();
      acc := id :: !acc;
      let s = Store.get st.store id in
      if st.expandable s then
        List.iter
          (fun (m : System.move) ->
            if obs_equal (obs_fn st.sys m.dest) o then visit (intern st.store m.dest))
          (System.successors st.sys s)
    end
  in
  List.iter visit seeds;
  List.sort_uniq compare !acc

(* One visible move: spec states reachable from the set by a single
   transition whose destination observation is [next_o], then
   stutter-closed. *)
let visible_step st ~obs_fn ~next_o set =
  let seeds = ref [] in
  List.iter
    (fun id ->
      let s = Store.get st.store id in
      if st.expandable s then
        List.iter
          (fun (m : System.move) ->
            if obs_equal (obs_fn st.sys m.dest) next_o then
              seeds := intern st.store m.dest :: !seeds)
          (System.successors st.sys s))
    set;
  closure st ~obs_fn ~o:next_o (List.sort_uniq compare !seeds)

let check ~impl ~spec ?(obs_impl = phase_obs) ?(obs_spec = phase_obs)
    ?spec_constraint ?(max_pairs = 2_000_000) () =
  let spec_store =
    {
      sys = spec;
      store = Store.create ();
      expandable =
        (match spec_constraint with
        | None -> fun _ -> true
        | Some c -> fun s -> c spec s);
    }
  in
  (* Implementation store and search log: each state's first parent and
     the rank of the move from it, which [Explore.trace_of] replays into
     a counterexample. *)
  let impl_store = Store.create () in
  let log = Vec.create () in
  let intern_impl ~parent ~rank s =
    let id = Store.probe impl_store s in
    if id >= 0 then id
    else begin
      ignore (Vec.push log (Explore.log_word ~parent ~rank));
      Store.add_probed impl_store s
    end
  in
  let impl_trace =
    Explore.trace_of impl (Reduce.make Reduce.Off impl) ~log:(Vec.get log)
      ~stored:(Store.get impl_store)
  in
  (* Pairs (impl id, spec set) already visited. *)
  let pair_seen = Hashtbl.create 4096 in
  let pairs = ref 0 in
  let wave = Wave.create () in
  let exception Fail of failure in
  let exception Out_of_budget in
  let enqueue impl_id set o =
    let key = (impl_id, set) in
    if not (Hashtbl.mem pair_seen key) then begin
      Hashtbl.add pair_seen key ();
      incr pairs;
      if !pairs > max_pairs then raise Out_of_budget;
      Wave.push wave (impl_id, set, o)
    end
  in
  let included, failure, complete =
    try
      let i0 = System.initial impl in
      let i0_id = intern_impl ~parent:(-1) ~rank:0 i0 in
      let o0 = obs_impl impl i0 in
      let s0 = System.initial spec in
      if not (obs_equal (obs_spec spec s0) o0) then
        raise (Fail { impl_trace = impl_trace i0_id; bad_obs = o0 });
      let set0 = closure spec_store ~obs_fn:obs_spec ~o:o0 [ intern spec_store.store s0 ] in
      enqueue i0_id set0 o0;
      Wave.drive wave (fun (impl_id, set, o) ->
          List.iteri
            (fun rank (m : System.move) ->
              let o' = obs_impl impl m.dest in
              let id' = intern_impl ~parent:impl_id ~rank m.dest in
              if obs_equal o' o then enqueue id' set o
              else begin
                let set' =
                  visible_step spec_store ~obs_fn:obs_spec ~next_o:o' set
                in
                if set' = [] then
                  raise (Fail { impl_trace = impl_trace id'; bad_obs = o' });
                enqueue id' set' o'
              end)
            (System.successors impl (Store.get impl_store impl_id)));
      (true, None, true)
    with
    | Fail f -> (false, Some f, true)
    | Out_of_budget -> (true, None, false)
  in
  {
    included;
    failure;
    complete;
    impl_pairs = !pairs;
    spec_states = Store.length spec_store.store;
  }
