module MC = Modelcheck

let system ?granularity ~nprocs ~bound () =
  MC.System.make (Bakery_pp_model.program ?granularity ()) ~nprocs ~bound

let bakery_system ?granularity ~nprocs ~bound () =
  MC.System.make (Algorithms.Bakery.program ?granularity ()) ~nprocs ~bound

let check_bakery_pp ?granularity ?max_states ~nprocs ~bound () =
  MC.Explore.run
    ~invariants:[ MC.Invariant.mutex; MC.Invariant.no_overflow ]
    ?max_states
    (system ?granularity ~nprocs ~bound ())

let check_bakery_overflows ?granularity ?max_states ~nprocs ~bound () =
  MC.Explore.run
    ~invariants:[ MC.Invariant.no_overflow ]
    ?max_states
    (bakery_system ?granularity ~nprocs ~bound ())

let ticket_var = "number"

let has_tickets (program : Mxlang.Ast.program) =
  Array.mem ticket_var program.var_names

let ticket_cap_constraint ~cap sys state =
  let program = MC.System.program sys in
  let lay = MC.System.layout sys in
  let number = Mxlang.Ast.var_by_name program ticket_var in
  let cells = Mxlang.Ast.cells_of ~nprocs:(MC.System.nprocs sys) program number in
  let rec ok i =
    i >= cells || (MC.State.shared_cell lay state number i <= cap && ok (i + 1))
  in
  ok 0

let check_bakery_mutex ?granularity ?max_states ?ticket_cap ~nprocs ~bound () =
  let cap = match ticket_cap with Some c -> c | None -> bound + nprocs in
  MC.Explore.run
    ~invariants:[ MC.Invariant.mutex ]
    ~constraint_:(ticket_cap_constraint ~cap)
    ?max_states
    (bakery_system ?granularity ~nprocs ~bound ())

let refines_bakery ?granularity ?ticket_cap ?max_pairs ~nprocs ~bound () =
  let cap = match ticket_cap with Some c -> c | None -> bound + nprocs in
  MC.Refine.check
    ~impl:(system ?granularity ~nprocs ~bound ())
    ~spec:(bakery_system ?granularity ~nprocs ~bound ())
    ~spec_constraint:(ticket_cap_constraint ~cap)
    ?max_pairs ()

let starvation_lasso ?granularity ?max_states ?require_victim_disabled
    ?(victim = 0) ~nprocs ~bound () =
  MC.Lasso.find ?max_states ?require_victim_disabled ~victim
    ~stuck_at:(MC.Lasso.stuck_at_label Bakery_pp_model.gate_label)
    (system ?granularity ~nprocs ~bound ())

type battery = {
  invariants_hold : bool;
  bakery_overflows : bool;
  refinement_holds : bool;
  gate_lasso_exists : bool;
  waiting_room_lasso_free : bool;
  report : string;
}

let verify_all ?granularity ~nprocs ~bound () =
  let buf = Buffer.create 1024 in
  let out fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  out "Bakery++ verification battery (N=%d, M=%d)" nprocs bound;
  let inv = check_bakery_pp ?granularity ~nprocs ~bound () in
  let invariants_hold = inv.outcome = MC.Explore.Pass in
  out "  [%s] mutual exclusion and no-overflow (paper 6.1-6.2): %d states"
    (if invariants_hold then "ok" else "FAIL")
    inv.stats.distinct;
  let bak = check_bakery_overflows ?granularity ~nprocs ~bound () in
  let bakery_overflows =
    match bak.outcome with MC.Explore.Violation _ -> true | _ -> false
  in
  out "  [%s] original Bakery overflows the same registers (paper 3)"
    (if bakery_overflows then "ok" else "FAIL");
  let refinement_holds =
    if nprocs <= 2 then begin
      let r = refines_bakery ?granularity ~nprocs ~bound () in
      out "  [%s] every Bakery++ execution is a Bakery execution (paper 6.2): %d pairs"
        (if r.included then "ok" else "FAIL")
        r.impl_pairs;
      r.included
    end
    else begin
      let r = refines_bakery ?granularity ~nprocs:2 ~bound () in
      out
        "  [%s] refinement (paper 6.2), checked at N=2 (subset construction \
         is exponential in N)"
        (if r.included then "ok" else "FAIL");
      r.included
    end
  in
  let lasso =
    starvation_lasso ?granularity ~require_victim_disabled:true ~nprocs ~bound ()
  in
  let gate_lasso_exists = lasso.witness <> None in
  out "  [%s] L1-gate starvation lasso (paper 6.3)%s"
    (if gate_lasso_exists then "found"
     else if lasso.complete then "none"
     else "inconclusive")
    (if nprocs < 3 then " — needs N >= 3, absence expected here" else "");
  let room =
    MC.Lasso.find ~victim:0
      ~stuck_at:(MC.Lasso.stuck_at_kind Mxlang.Ast.Waiting)
      (system ?granularity ~nprocs ~bound ())
  in
  let waiting_room_lasso_free = room.witness = None && room.complete in
  out "  [%s] ticket-ordered waiting room is starvation-free (FCFS)"
    (if waiting_room_lasso_free then "ok"
     else if room.witness = None then "INCONCLUSIVE"
     else "FAIL");
  {
    invariants_hold;
    bakery_overflows;
    refinement_holds;
    gate_lasso_exists;
    waiting_room_lasso_free;
    report = Buffer.contents buf;
  }
