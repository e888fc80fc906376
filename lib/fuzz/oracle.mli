(** Differential oracles: executable equivalence claims between the
    repo's independent engines.

    Each oracle takes a {!case} and returns a {!verdict}.  A [Fail]
    carries a short stable [tag] (compared when replaying a corpus
    entry — it must not embed volatile data like timings or addresses)
    and a human [detail].

    - [Compile]: {!Modelcheck.Explore.run} with the AST interpreter vs
      the staged compiler must produce the same outcome, state counts,
      depth and counterexample trace (guards claims C1/C2: the engine
      that certifies them is exercised against its reference semantics).
    - [Parallel]: sequential vs level-synchronized parallel BFS.  On a
      [Pass] both engines explored the whole reachable set, so outcome,
      distinct-state count, generated count and depth must agree
      exactly; on a counterexample the engines stop at
      engine-specific points (mid-level vs end of wave), so the claim
      checked is that both find {e some} bug — one engine passing
      while the other reports a violation or deadlock is a failure.
      Each case runs over atomic registers and then over safe ones
      (a mismatch there is tagged [..._safe]), so the hand-off also
      carries flicker-view successors.  Guards the same claims under
      the parallel engine.
    - [Sharded]: the same claim against the sharded engine's stress
      configuration — 3 domains (non-power-of-two shard routing) in
      fingerprint-only mode, where the visited set keeps 63-bit
      fingerprints and counterexamples are rebuilt by replaying
      recorded moves.  Catches routing, hand-off, quiescence and
      replay bugs that the 2-domain exact-table oracle cannot see.
      Also run under atomic and then safe registers.
    - [Regsem]: the weak-register engine against the baseline.  An
      explicitly-[Atomic] {!Modelcheck.System} must be bit-identical to
      the default build (outcome, state counts, counterexample trace);
      under [Safe] the AST interpreter and the compiled closures must
      agree exactly; and every atomic-reachable state must embed into
      the [Safe]-reachable set (weak semantics only add behaviours).
      The subset leg is skipped when either exploration hits its state
      budget.
    - [Replay]: a schedule executed by the simulator must (a) replay
      bit-identically, (b) agree with the model checker's compiled
      transition system walked along the same pid sequence, and (c) on
      clean plans (no crash/flicker injection) never violate mutual
      exclusion — the property that catches the naive-modulo exemplar
      and wrapped-register Bakery (claims C2/C4).
    - [Reduced]: the reduced search ({!Modelcheck.Reduce}) against the
      full search, per mode in {!reduced_modes}.  Verdict classes must
      agree (a state-budget [Capacity] on either side decides nothing);
      on a bug the de-canonicalized counterexample must replay as a
      genuine run of the full system; on a Pass the quotient must store
      at most as many states as the full search, and — for [Sym] on a
      program the static certificate accepts, within an enumeration
      budget — exactly one representative per orbit of the full
      reachable set.  Half the generated cases come from
      {!Gen.program_symmetric} so the symmetry legs actually engage. *)

type verdict = Pass | Fail of { tag : string; detail : string }

type case =
  | Prog_case of {
      program : Mxlang.Ast.program;
      nprocs : int;
      bound : int;
      max_states : int;
    }
  | Sched_case of Gen.plan

type t = Compile | Parallel | Sharded | Regsem | Replay | Reduced

val all : t list
val name : t -> string
val of_name : string -> (t, string) result

val reduced_modes : Modelcheck.Reduce.mode list ref
(** Reduction legs the [Reduced] oracle runs, [[Sym; Sym_por]] by
    default so corpus repros are self-contained.  The CLI's
    [fuzz --reduce] narrows it ([none] empties it, turning the oracle
    into a no-op) for targeted sessions; replaying a corpus entry
    should leave the default in place. *)

val generate : t -> Prng.Rng.t -> Driver_params.t -> case
(** Draw a case of the shape this oracle consumes. *)

val run : t -> case -> verdict

val shrink : t -> case -> max_evals:int -> case * int
(** Minimize a failing case, preserving its failure tag.  Schedule
    cases shrink the pid sequence (ddmin); program cases shrink the
    AST.  Returns the evaluation count actually spent. *)

val case_size : case -> int
(** Schedule length or program AST size — what shrinking reduces. *)

val sim_config : Gen.plan -> Schedsim.Runner.config
(** The exact simulator configuration the replay oracle runs a plan
    under (Replay strategy, seed, wrap policy, crash/flicker setup).
    Exposed so the CLI explainer can re-execute a [.repro] schedule
    with event recording switched on and get the same run. *)
