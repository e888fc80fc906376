(** Breadth-first exhaustive exploration with invariant checking —
    the core of the TLC-replacement checker.

    BFS guarantees that a reported invariant violation comes with a
    shortest-possible counterexample trace, matching TLC's behaviour. *)

type stats = {
  generated : int;  (** successor states generated (with duplicates) *)
  distinct : int;  (** distinct states stored *)
  depth : int;  (** BFS depth reached *)
  runtime : float;  (** seconds on {!Telemetry.Clock.now_s} *)
}

type outcome =
  | Pass
  | Violation of { invariant : string; trace : Trace.t }
  | Deadlock of { trace : Trace.t }
      (** a reachable state has no successor for any process *)
  | Capacity
      (** the [max_states] budget was exhausted before the frontier emptied *)

type result = { outcome : outcome; stats : stats }

(** The search's own store and log, reusable by the SCC/lasso analyses
    through {!Store.get}, {!Store.find_opt} and {!Store.length}. *)
type graph = {
  sys : System.t;
  store : Store.t;  (** every stored state, by id in BFS order *)
  log : int Vec.t;  (** by state id, its {!log_word} *)
  complete : bool;
      (** [false] if [max_states] stopped the search before the frontier
          emptied: the graph is then a BFS prefix of the reachable one,
          and an absence found in it (no lasso, a label never fired) is
          no proof *)
}

val run :
  ?invariants:Invariant.t list ->
  ?constraint_:(System.t -> State.packed -> bool) ->
  ?max_states:int ->
  ?check_deadlock:bool ->
  ?interpreted:bool ->
  ?reduce:Reduce.mode ->
  ?progress:Telemetry.Progress.t ->
  ?metrics:Telemetry.Metrics.t ->
  System.t ->
  result
(** Explore all states reachable from the initial state.

    [invariants] default to [[Invariant.mutex; Invariant.no_overflow]].
    [constraint_] is TLC's state constraint: states violating it are
    still checked against the invariants but not expanded, closing
    otherwise-infinite state spaces (needed for the original, unbounded
    Bakery).  [max_states] (default 5_000_000) bounds memory.
    [interpreted] (default [false]) swaps only successor generation: the
    AST interpreter's moves replace the compiled closures', and the same
    loop, store, staged invariants and trace code run on them — the
    reference for differential tests and the evaluator-layer baseline
    of the throughput experiment; outcome, traces, and state counts are
    identical either way ({!trace_of} checks every trace state).

    [reduce] (default [Off]) enables state-space reduction ({!Reduce}):
    [Sym] canonicalizes states under pid permutation when the program
    passes the static symmetry certificate (silently runs unreduced —
    with the reason available via {!Reduce.asymmetry_reason} — when it
    does not), [Sym_por] additionally expands only an ample process
    where one exists.  Verdicts agree with the unreduced search;
    [generated]/[distinct] counts are of the quotient.  Counterexample
    traces are always returned in original process coordinates.  If any
    invariant is not one of the built-in pc/shared-cell family, the
    reduction disables itself entirely.

    [progress] enables TLC-style rate-limited reporting (wave depth,
    states generated/distinct, queue length, kstates/s, store load
    factor, arena bytes) plus one forced summary line when the search
    ends; [metrics] accumulates the final stats, a wave-duration
    histogram and the store's final size ([explore.table_mb],
    {!Store.arena_bytes}) into a registry ([explore.*]).  Both default
    to off, in which case the hot loop runs exactly one static no-op
    closure call per dequeued state — the search itself is unchanged
    either way. *)

val run_graph :
  ?constraint_:(System.t -> State.packed -> bool) ->
  ?max_states:int ->
  System.t ->
  graph * stats
(** The same search with no invariants, no deadlock check and no
    reduction, keeping the graph it stored; used by {!Lasso},
    {!Coverage} and {!Dot}.  At [max_states] the search stops and the
    graph says so ([complete = false]). *)

val trace_to : graph -> int -> Trace.t
(** The BFS path from the root to a stored state id: {!trace_of} over
    the graph's log, checked against its store. *)

val outcome_tag : outcome -> string
(** Short machine tag: ["pass"], ["violation:<invariant>"],
    ["deadlock"], ["capacity"]. *)

val record_finish :
  ?progress:Telemetry.Progress.t ->
  ?metrics:Telemetry.Metrics.t ->
  prefix:string ->
  twin_moves:int ->
  outcome ->
  stats ->
  unit
(** Final telemetry for a finished search: one forced progress line and
    [<prefix>.*] registry entries, among them [<prefix>.twin_moves], the
    moves counted in [generated] without being built
    ({!Reduce.twin_moves}).  Shared with {!Par_explore}. *)

val log_word : parent:int -> rank:int -> int
(** One state's search-log entry: its parent's id ([-1] for the root,
    at most 2^32 - 2) and the rank of the move that reached it, its
    index in {!System.iter_successors_scratch} order under the search's
    ample set (below 2^31; [0] for the root).
    @raise Invalid_argument if either is out of range. *)

val log_parent : int -> int
val log_rank : int -> int

val trace_of :
  System.t -> Reduce.t -> log:(int -> int) -> stored:(int -> State.packed) ->
  int -> Trace.t
(** The path from the root to state [id] of any search that logged a
    {!log_word} per state: from the initial state, each step
    regenerates the previous state's successors under [red]'s ample set,
    takes the logged rank and canonicalizes as the search did; the run
    comes back in original process ids.  [stored] looks up the search's
    states by id, and every rebuilt state is checked against it.
    @raise Failure on a mismatch, or if a state has no move of the
    logged rank. *)
