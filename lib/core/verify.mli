(** One-call verification entry points — the paper's §6 results as
    functions.

    Each reproduces a specific claim:
    - {!check_bakery_pp}: the TLC result (mutex and no-overflow hold);
    - {!check_bakery_overflows}: the §3 problem (original Bakery violates
      no-overflow on bounded registers);
    - {!check_bakery_mutex}: Bakery still satisfies mutex (under a ticket
      cap closing the infinite state space);
    - {!refines_bakery}: §6.2's "every execution of Bakery++ is a valid
      execution of Bakery", as stutter-closed trace inclusion over
      protocol phases;
    - {!starvation_lasso}: §6.3's theoretical starvation at L1, found as
      a concrete cycle. *)

val system :
  ?granularity:Algorithms.Common.granularity ->
  nprocs:int ->
  bound:int ->
  unit ->
  Modelcheck.System.t
(** The Bakery++ transition system. *)

val check_bakery_pp :
  ?granularity:Algorithms.Common.granularity ->
  ?max_states:int ->
  nprocs:int ->
  bound:int ->
  unit ->
  Modelcheck.Explore.result
(** Exhaustively check mutual exclusion and overflow-freedom of
    Bakery++.  Expected outcome: [Pass]. *)

val check_bakery_overflows :
  ?granularity:Algorithms.Common.granularity ->
  ?max_states:int ->
  nprocs:int ->
  bound:int ->
  unit ->
  Modelcheck.Explore.result
(** Check the original Bakery against the no-overflow invariant.
    Expected outcome: [Violation] with a shortest trace driving a ticket
    past M. *)

val check_bakery_mutex :
  ?granularity:Algorithms.Common.granularity ->
  ?max_states:int ->
  ?ticket_cap:int ->
  nprocs:int ->
  bound:int ->
  unit ->
  Modelcheck.Explore.result
(** Check mutual exclusion of the original Bakery under a state
    constraint capping tickets at [ticket_cap] (default [bound + nprocs]),
    TLC's standard way to close the unbounded space. *)

val ticket_cap_constraint :
  cap:int -> Modelcheck.System.t -> Modelcheck.State.packed -> bool
(** The state constraint used above: all [number] cells [<= cap].
    Raises [Not_found] on a system whose program fails
    {!has_tickets}. *)

val has_tickets : Mxlang.Ast.program -> bool
(** Whether the program has the [number] variable that
    {!ticket_cap_constraint} caps. *)

val refines_bakery :
  ?granularity:Algorithms.Common.granularity ->
  ?ticket_cap:int ->
  ?max_pairs:int ->
  nprocs:int ->
  bound:int ->
  unit ->
  Modelcheck.Refine.result
(** Trace-inclusion check of Bakery++ against Bakery over the phase
    observation.  Expected: [included = true]. *)

(** Result of the full §6 battery (see {!verify_all}). *)
type battery = {
  invariants_hold : bool;  (** E1: mutex + no-overflow of Bakery++ *)
  bakery_overflows : bool;  (** E2: plain Bakery violates no-overflow *)
  refinement_holds : bool;  (** E3: Bakery++ ⊑ Bakery *)
  gate_lasso_exists : bool;  (** E9: §6.3 starvation cycle at L1 *)
  waiting_room_lasso_free : bool;
      (** E9 control: FCFS room starvation-free — no lasso, and the
          search covered the whole graph *)
  report : string;  (** human-readable summary of all five *)
}

val verify_all :
  ?granularity:Algorithms.Common.granularity ->
  nprocs:int ->
  bound:int ->
  unit ->
  battery
(** Run the paper's entire §6 argument at one configuration.  All five
    fields are expected [true] for 2 <= N <= 3 and small M (the lasso
    needs N >= 3; at N = 2 [gate_lasso_exists] is reported but not
    required and the battery's [report] says so). *)

val starvation_lasso :
  ?granularity:Algorithms.Common.granularity ->
  ?max_states:int ->
  ?require_victim_disabled:bool ->
  ?victim:int ->
  nprocs:int ->
  bound:int ->
  unit ->
  Modelcheck.Lasso.result
(** Search for the §6.3 scenario: [victim] (default 0) parked at the L1
    gate while the others keep entering their critical sections.
    With [require_victim_disabled:true] the cycle must pass through a
    state where the gate is closed for the victim, making the starvation
    consistent with weak fairness.  Expected for small M and
    nprocs >= 3: a witness is found. *)
