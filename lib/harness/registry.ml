module LI = Locks.Lock_intf

let ticket_mod_family =
  {
    LI.family_name = "ticket_mod";
    needs_bound = true;
    two_process_only = false;
    make =
      (fun ~nprocs ~bound ->
        LI.instance_of
          (module Locks.Ticket_lock)
          (Locks.Ticket_lock.create_mod ~nprocs ~bound));
  }

let lock_families =
  [
    LI.family_of (module Locks.Bakery_lock) ();
    LI.family_of (module Locks.Bakery_bounded_lock) ~needs_bound:true ();
    LI.family_of (module Core.Bakery_pp_lock) ~needs_bound:true ();
    LI.family_of (module Locks.Blackwhite_lock) ();
    LI.family_of (module Locks.Filter_lock_rt) ();
    LI.family_of (module Locks.Tournament_lock) ();
    LI.family_of (module Locks.Szymanski_lock) ();
    LI.family_of (module Locks.Ticket_lock) ();
    ticket_mod_family;
    LI.family_of (module Locks.Tas_lock) ();
    LI.family_of (module Locks.Ttas_lock) ();
    LI.family_of (module Locks.Fast_mutex_lock) ();
    LI.family_of (module Locks.Burns_lynch_lock) ();
    LI.family_of (module Locks.Anderson_lock) ();
    LI.family_of (module Locks.Clh_lock) ();
    LI.family_of (module Locks.Mcs_lock) ();
    LI.family_of (module Locks.Eisenberg_lock) ();
    LI.family_of (module Locks.Knuth_lock) ();
  ]

let find_family name =
  List.find (fun f -> f.LI.family_name = name) lock_families

let model_builders : (string * (unit -> Mxlang.Ast.program)) list =
  [
    ("bakery", fun () -> Algorithms.Bakery.program ());
    ( "bakery_fine",
      fun () -> Algorithms.Bakery.program ~granularity:Algorithms.Common.Fine () );
    ("bakery_pp", fun () -> Core.Bakery_pp_model.program ());
    ( "bakery_pp_fine",
      fun () ->
        Core.Bakery_pp_model.program ~granularity:Algorithms.Common.Fine () );
    ("bakery_mod_naive", fun () -> Algorithms.Bakery_mod.program ());
    ("black_white_bakery", fun () -> Algorithms.Blackwhite.program ());
    ("peterson2", fun () -> Algorithms.Peterson2.program ());
    ("dekker", fun () -> Algorithms.Dekker.program ());
    ("filter", fun () -> Algorithms.Filter_lock.program ());
    ("szymanski", fun () -> Algorithms.Szymanski.program ());
    ("ticket", fun () -> Algorithms.Ticket_model.program ());
    ("ticket_mod", fun () -> Algorithms.Ticket_model.program_mod ());
    ("tas", fun () -> Algorithms.Tas_model.program ());
    ("fast_mutex", fun () -> Algorithms.Fast_mutex.program ());
    ("eisenberg_mcguire", fun () -> Algorithms.Eisenberg.program ());
    ("knuth", fun () -> Algorithms.Knuth.program ());
    ("burns_lynch", fun () -> Algorithms.Burns_lynch.program ());
    ("no_lock", fun () -> Algorithms.No_lock.program ());
  ]

let model_names = List.map fst model_builders

(* The two-process algorithms index their partner as [1 - pid], so any
   other process count reads outside their arrays. *)
let fixed_process_counts = [ ("peterson2", 2); ("dekker", 2) ]

let fixed_nprocs name = List.assoc_opt name fixed_process_counts

let find_model name = (List.assoc name model_builders) ()

let models = List.map (fun (name, build) -> (name, build ())) model_builders
