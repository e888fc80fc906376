(** State-space reduction: pid-symmetry canonicalization and a
    conservative ample-set partial-order filter.

    {2 Symmetry}

    A program is {e pid-symmetric} when renaming process ids maps runs
    to runs: for every permutation [π] of [0..N-1], applying [π] to a
    reachable state (permute the pc vector, the per-process local
    blocks, and every per-process shared array, all by the same [π])
    yields a reachable state, and the checked invariants cannot tell the
    two apart.  For such programs the explorer may keep one canonical
    representative per orbit, cutting the reachable set by up to [N!].

    Bakery-style id tie-breaks ([Lex_lt] over [(ticket, pid)] pairs)
    break this symmetry — a quotient search over such a program can
    lose counterexamples — so canonicalization is gated on a {e static
    certificate}: {!certify} sorts every expression as pid-valued or
    data-valued and accepts only programs where pids are never ordered,
    stored, or mixed into arithmetic, and per-process arrays are indexed
    only by [Pid]/[Qidx].  Programs that fail the certificate (all
    bakery variants — the tie-break) run with the identity
    canonicalizer and an honest {!asymmetry_reason}.

    The certificate is judged on {!System.source_program}: symmetry is a
    property of the algorithm, and the two-phase weak-register transform
    preserves it (pending slots latch data values and a per-process
    write index that canonicalization renames along with the block).

    {2 Counterexample coordinates}

    The quotient search stores canonical states, so a raw trace walks
    canonical coordinates where the acting pid is a slot name, not a
    process.  {!decanonicalize} replays the trace forward, maintaining
    the slot→process renaming at every step, and returns a genuine run
    of the unreduced system in original coordinates — {!Rewalk} and the
    [explain] forensics consume it unchanged.

    {2 Partial order}

    {!ample} implements a conservative ample-set filter: in states where
    some process's next step is invisible and commutes with every other
    process's moves, only that process is expanded.  A step qualifies
    only if every alternative (a) reads no shared cell (statically, per
    {!Mxlang.Reads.static_cells}) and writes no shared cell or pending
    slot, (b) is not at and does not enter a [Critical]-kind step, and
    (c) strictly increases the pc — which rules out ignoring-problem
    cycles, since an ample-only path strictly increases the acting
    process's pc and touches no other.  POR needs no symmetry
    certificate, but it does require every checked invariant to be
    insensitive to local variables ({!invariants_reducible}). *)

type mode = Off | Sym | Sym_por

val mode_of_string : string -> mode option
(** ["none"], ["sym"], ["sym+por"]. *)

val mode_to_string : mode -> string

val mode_values : (string * mode) list
(** CLI enumeration for [--reduce], in display order. *)

val certify : Mxlang.Ast.program -> (unit, string) result
(** Static pid-symmetry certificate.  [Error reason] names the first
    symmetry-breaking construct (e.g. the bakery id tie-break). *)

type t

val make : mode -> System.t -> t
(** Judge the certificate and precompute the ample tables for [sys].
    Cheap; read-only (and thus domain-shareable) afterwards. *)

val mode : t -> mode

val symmetry_active : t -> bool
(** True iff the mode requests symmetry and the program is certified. *)

val asymmetry_reason : t -> string option
(** Why canonicalization is inactive under [Sym]/[Sym_por]; [None] when
    certified (or when the mode is [Off]). *)

val describe : t -> string
(** One human-readable status line, e.g.
    ["sym: pid-symmetry certified; ample-set POR on"]. *)

val canonizer : t -> State.packed -> unit
(** The canonicalization function: rewrites the state in place to its
    orbit representative; the identity when symmetry is inactive.  It
    keeps no state of its own, so domains may share it.

    The representative is the state with its process blocks (pc, the
    process's cells of per-process shared arrays, then its locals, live
    pending write indices read as 0) in stable lexicographic order.  The
    blocks are sorted where they sit by an insertion sort, then each
    live pending index is renamed to its block's final slot.  A call
    allocates nothing.  It takes any state; the searches canonicalize
    the successors of canonical states through {!expand}, which finds
    the same representative with one shift. *)

val reseat : t -> State.packed -> int -> unit
(** [reseat t s pid] is {!canonizer} for a successor [s] of a canonical
    state in which only process [pid] moved: the other blocks are still
    in order, so it shifts [pid]'s block alone, left past every block
    its key is below or right past every block whose key is below its
    own, and renames live pending indices as the sort does.  Allocates
    nothing; the identity when symmetry is inactive. *)

val canon : t -> State.packed -> State.packed * int array
(** Copying variant of {!canonizer}, by the same sort: the canonical
    representative plus the slot map [perm], where canonical block [j]
    is original process [perm.(j)]'s block.  [perm] is the identity when
    symmetry is inactive. *)

val permute : t -> perm:int array -> State.packed -> State.packed
(** Apply a slot map: result block [j] := source block [perm.(j)], with
    per-process shared arrays and live pending-slot indices renamed
    consistently.  [permute t ~perm:(snd (canon t s))] applied to [s]
    reproduces [fst (canon t s)]; with {!invert} it undoes it. *)

val invert : int array -> int array
(** Inverse permutation: [(invert p).(p.(j)) = j]. *)

val invariants_reducible : Invariant.t list -> bool
(** Every atomic conjunct reads only pcs and shared cells (the built-in
    mutex / no-overflow / bounded family) — the visibility condition for
    both reductions.  Custom invariants are conservatively refused. *)

val ample : t -> State.packed -> int
(** The ample process for this state, or [-1] to expand all processes.
    Only ever [>= 0] when the mode is [Sym_por]. *)

(** {2 Expansion} *)

type expander
(** One search domain's expansion of its stored states under the
    reduction, with its own counters.  Every search expands through
    one. *)

val expander :
  t ->
  iter:
    (State.packed ->
    lo:int ->
    hi:int ->
    scratch:State.packed ->
    (pid:int -> from_pc:int -> alt:int -> flick:int -> unit) ->
    unit) ->
  scratch:State.packed ->
  (int -> unit) ->
  expander
(** [expander t ~iter ~scratch emit]: [iter] enumerates the moves of a
    range of processes into [scratch], in
    {!System.iter_successors_between}'s order (which it is, unless a
    search swaps in the interpreter); [emit rank] is called once per
    successor built, with the successor in [scratch] (canonical when
    symmetry is active) and [rank] its index among the state's moves
    under the ample set, the rank a {!Explore.log_word} records. *)

val expand : expander -> State.packed -> int
(** Expand a stored state, which must be canonical when symmetry is
    active, and return how many moves it has under the ample set.

    When symmetry is active, each successor moved one process, so
    {!reseat} canonicalizes it.  When, in addition, every process is
    expanded, a {e twin} — a process whose block (pc, cells of
    per-process arrays, locals) equals its left neighbour's — is not
    expanded: swapping the two fixes the state, so the twin's moves
    reach the neighbour's canonical successors, one for one.  They
    count in {!generated} and in the ranks as if built, so counts,
    ranks and traces are those of expanding every move. *)

val generated : expander -> int
(** Moves counted by every {!expand} so far, twins included. *)

val twin_moves : expander -> int
(** The part of {!generated} that twins contributed without being
    built. *)

val decanonicalize : t -> Trace.t -> Trace.t
(** Rewrite a trace of the quotient search into a genuine run of the
    unreduced system in original process coordinates (see above).  The
    identity when symmetry is inactive.

    @raise Invalid_argument if the trace cannot be replayed — which
    would mean the quotient search reached a state the full system
    cannot, i.e. an unsoundness bug worth crashing on. *)
