(** Candidate-value enumeration for reads overlapping in-flight writes.

    Given a packed checker state whose program went through
    {!Two_phase.transform}, a cell is {e dirty} for a reader [pid] when
    some {e other} process has a live pending write to it (its pending
    index local is >= 0).  For an action whose static read set
    intersects the dirty cells, the enumerators below visit every
    assignment of candidate values to the overlapped cells — the
    {e flicker views} — each with a dense rank [flick] identifying it:

    - [Regular]: each overlapped cell reads its current value or one of
      the pending values latched for it (several, if distinct writers
      overlap a multi-writer register);
    - [Safe]: each overlapped cell reads any value in its register's
      range, [0 .. ceiling] (from {!Domain.ceilings}), plus the current
      value if that lies outside;
    - [Atomic]: no enumeration; the single rank-0 view is the state
      itself.

    Rank 0 is always the unperturbed view.  Ranks are a mixed-radix
    encoding over the overlapped cells in {e descending} cell order —
    digit 0, the least significant, is the highest overlapped cell — so
    a rank recorded in a counterexample trace decodes deterministically
    back to the values each read saw ([assignment]).  The order is part
    of every recorded rank; changing it would renumber them.

    A read is modelled as returning one consistent candidate per cell
    for the whole action (all reads of a cell within one action see the
    same value); reads spanning several successive writes are covered
    by the union over interleavings of the commit steps.

    There are two enumerators with the same ranks.  The frame
    enumerator ({!enter} .. {!leave}) allocates nothing once warm and
    serves every compiled path of the checker; {!iter_views} builds
    lists and is kept as the independent reference the AST-interpreted
    successors use, so the differential tests compare two
    enumerations. *)

type ctx

val max_total : int
(** Hard cap on views per (state, action): 2^26.  Both enumerators
    raise [Mxlang.Eval.Error] beyond it — reachable only with
    degenerate ranges, not with the zoo algorithms at checkable
    sizes. *)

val make :
  model:Model.t ->
  nprocs:int ->
  locals_off:int ->
  locals_per:int ->
  var_off:int array ->
  cell_ceil:int array ->
  pend:(int * int) array array ->
  ctx
(** [locals_off]/[locals_per] describe where per-process locals live in
    the packed state; [var_off.(v)] is variable [v]'s first flat shared
    cell; [cell_ceil] maps every flat shared cell to its [Safe] ceiling;
    [pend] is {!Two_phase.meta.tp_pend}. *)

val model : ctx -> Model.t

(** {2 Frame enumerator} *)

type views
(** A frame: a view buffer plus the state's live pending writes and the
    current action's candidates.  Frames live in a per-domain stack and
    keep their buffers between uses, so a warm enumeration allocates
    nothing. *)

val enter : ctx -> int array -> views
(** [enter ctx s] takes the calling domain's next free frame for the
    packed state [s]: the view buffer becomes a copy of [s] and the live
    pending writes of [s] are recorded.  Frames nest — code running
    between [enter] and {!leave} may enter again and gets a frame of its
    own — so every [enter] must be paired with a [leave], also when an
    exception escapes. *)

val leave : views -> unit
(** Give the frame (and any frame entered after it and not left) back
    to the domain. *)

val view : views -> int array
(** The view buffer: at least as long as the state, equal to it except
    at the current action's overlapped cells, which hold the current
    view's candidates.  Valid until the next {!start}, {!next} or
    {!leave}. *)

val start : views -> pid:int -> cells:int array -> int
(** [start fr ~pid ~cells] begins the views of one action of [pid]
    whose static read set is [cells] (sorted flat shared offsets,
    {!Mxlang.Reads.static_cells}; dirty cells outside it are ignored):
    it restores the previous action's cells in the view buffer, which
    then holds rank 0, and returns the number of views (>= 1). *)

val next : views -> unit
(** Step the view buffer from rank [r] to rank [r + 1]; only valid
    below the count {!start} returned. *)

val assignment :
  ctx -> s:int array -> pid:int -> cells:int array -> flick:int -> (int * int) list
(** Decode a rank of the action [(s, pid, cells)] into
    [(flat_cell, seen_value)] pairs for every overlapped cell, in rank
    digit order, i.e. descending cell order (including cells whose digit
    decodes to the unperturbed value — compare against [s] to isolate
    actual flickers).  Runs on a frame. *)

(** {2 Reference enumerator} *)

val iter_views :
  ctx ->
  s:int array ->
  view:int array ->
  pid:int ->
  cells:int array ->
  (flick:int -> unit) ->
  unit
(** [iter_views ctx ~s ~view ~pid ~cells f] calls [f ~flick] once per
    candidate view, in rank order.  [view] must be a copy of the packed
    state [s]; the overlapped cells are mutated in place before each
    call and restored to [s]'s values before returning.  Builds its
    candidate lists afresh on every call: this is the reference the
    interpreted successors use, not a hot path. *)
