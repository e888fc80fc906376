(* An open-addressing index from key to insertion-order id, plus, in
   [Exact] mode, the states themselves, bit-packed in a chunked int
   arena:

   - probing allocates nothing and touches one word per step: each
     index entry packs a 31-bit key tag with the id, and the entry's
     home slot is the tag's low bits, so table growth re-places entries
     from the old table alone, without rehashing any state or keeping
     its key.  [Fp_only] keeps each full key in an id-indexed vector,
     since the key is all it knows of the state;
   - a field (one word of the unpacked state) is stored as its value
     minus an offset, in as many bits as the values stored so far
     need; fields are laid into 63-bit words in order and never
     straddle two.  A probe encodes its candidate once into a buffer
     the store owns and compares packed words; storing it blits that
     buffer, and [get]/[read_into] decode;
   - the ranges are learned, not declared: the first state fixes them,
     and a candidate with a value outside its field's range widens that
     field and re-encodes every stored state before the probe goes on.
     Ranges grow geometrically — the offset is 0 or -2^k, the width is
     what the values need — so a field widens at most about 63 times.
     A field that would need more than 62 bits gets a raw word of its
     own, so every int round-trips;
   - packed states live contiguously inside fixed-size arena chunks:
     storing one is a blit, not an allocation, and the GC never traces
     millions of small arrays.  Chunks are never copied as the store
     grows — it allocates a fresh chunk instead — so insertion cost
     stays flat into the millions of states; only a widening rebuilds
     them, one chunk at a time. *)

type mode = Exact | Fp_only

(* How states are packed: field [f] holds the values [lo.(f) ..
   hi.(f)], stored as [v - lo.(f)] from bit [shift.(f)] of word
   [word.(f)] of a packed state.  [hi - lo] is the field's bit mask.  A
   raw field has [lo = min_int], [hi = max_int] and all 63 bits of its
   own word; its subtraction wraps, and the mask is all ones. *)
type layout = {
  lo : int array;
  hi : int array;
  word : int array;
  shift : int array;
  pwords : int;  (* packed words per state *)
}

type t = {
  mode : mode;
  mutable table : int array;
      (* slot -> 0 when empty, else (key lsr 31) lsl 32 lor (id + 1) *)
  mutable mask : int;
  keys : int Vec.t;  (* [Fp_only]: id -> full key *)
  mutable lay : layout;
  mutable buf : int array;  (* the last probed candidate, packed *)
  mutable chunks : int array array;
      (* [Exact]: state [id] at [(id land chunk_mask) * lay.pwords] in
         [chunks.(id lsr chunk_bits)] *)
  mutable count : int;
  mutable collisions : int;
  (* Where the last missed probe ended, for [add_probed]. *)
  mutable last_slot : int;
  mutable last_key : int;
  mutable last_collided : bool;
}

let initial_slots = 4096
let chunk_bits = 13
let chunk_states = 1 lsl chunk_bits
let chunk_mask = chunk_states - 1
let tag_of key = (key lsr 31) lsl 32
let entry_tag e = e land lnot 0xffff_ffff
let home tag mask = (tag lsr 32) land mask
let id_of_entry e = (e land 0xffff_ffff) - 1

(* Bits needed to write [x >= 0] in binary; 0 for 0. *)
let rec bits x = if x = 0 then 0 else 1 + bits (x lsr 1)

(* The width of a field's range: 63 for a raw one, whose span wraps. *)
let width lo hi = if hi - lo < 0 then 63 else bits (hi - lo)

(* The range a field needs to hold [lo .. hi]: offset 0 when no value
   is negative, else the power of two -2^k at or below [lo]; then the
   width the span needs, or a raw word when the span overflows. *)
let range lo hi =
  let lo = if lo >= 0 then 0 else (-1) lsl bits (lnot lo) in
  if hi - lo < 0 then (min_int, max_int)
  else (lo, lo + ((1 lsl bits (hi - lo)) - 1))

let lay_out lo hi =
  let n = Array.length lo in
  let word = Array.make n 0 and shift = Array.make n 0 in
  let w = ref 0 and pos = ref 0 in
  for f = 0 to n - 1 do
    let b = width lo.(f) hi.(f) in
    if !pos + b > 63 then begin
      incr w;
      pos := 0
    end;
    word.(f) <- !w;
    shift.(f) <- !pos;
    pos := !pos + b
  done;
  { lo; hi; word; shift; pwords = !w + 1 }

(* [n] fields with empty ranges, so that the first state encoded widens
   every field to exactly its own values. *)
let unfixed n =
  {
    lo = Array.make n max_int;
    hi = Array.make n min_int;
    word = Array.make n 0;
    shift = Array.make n 0;
    pwords = 1;
  }

(* Pack fields [f..] of [s] into the zeroed words of [dst] from [base]:
   [false] as soon as one is out of its range.  [s] has one value per
   field of [l]. *)
let rec encode_from l (s : State.packed) dst base f =
  f = Array.length s
  ||
  let v = Array.unsafe_get s f and lo = Array.unsafe_get l.lo f in
  v >= lo
  && v <= Array.unsafe_get l.hi f
  &&
  let i = base + Array.unsafe_get l.word f in
  Array.unsafe_set dst i
    (Array.unsafe_get dst i lor ((v - lo) lsl Array.unsafe_get l.shift f));
  encode_from l s dst base (f + 1)

let encode l s dst base =
  for i = base to base + l.pwords - 1 do
    Array.unsafe_set dst i 0
  done;
  encode_from l s dst base 0

(* Unpack the state at [base] of [src] into [dst], one value per field
   of [l]. *)
let decode l src base (dst : State.packed) =
  for f = 0 to Array.length dst - 1 do
    let lo = Array.unsafe_get l.lo f in
    let w = Array.unsafe_get src (base + Array.unsafe_get l.word f) in
    Array.unsafe_set dst f
      (((w lsr Array.unsafe_get l.shift f) land (Array.unsafe_get l.hi f - lo))
      + lo)
  done

let create ?(mode = Exact) () =
  {
    mode;
    table = Array.make initial_slots 0;
    mask = initial_slots - 1;
    keys = Vec.create ();
    lay = unfixed 0;
    buf = [| 0 |];
    chunks = [||];
    count = 0;
    collisions = 0;
    last_slot = 0;
    last_key = 0;
    last_collided = false;
  }

let length t = t.count
let collisions t = t.collisions

(* Widen every field whose range misses its value in [s], then rebuild
   the arena under the new layout one chunk at a time, so the old and
   new forms of only one chunk are live at once. *)
let widen t (s : State.packed) =
  let old = t.lay in
  let lo = Array.copy old.lo and hi = Array.copy old.hi in
  Array.iteri
    (fun f v ->
      if v < lo.(f) || v > hi.(f) then begin
        let a, b = range (Int.min v lo.(f)) (Int.max v hi.(f)) in
        lo.(f) <- a;
        hi.(f) <- b
      end)
    s;
  let l = lay_out lo hi in
  let tmp = Array.make (Array.length s) 0 in
  Array.iteri
    (fun c chunk ->
      if Array.length chunk > 0 then begin
        let fresh = Array.make (chunk_states * l.pwords) 0 in
        let n = Int.min chunk_states (t.count - (c * chunk_states)) in
        for k = 0 to n - 1 do
          decode old chunk (k * old.pwords) tmp;
          ignore (encode l tmp fresh (k * l.pwords))
        done;
        t.chunks.(c) <- fresh
      end)
    t.chunks;
  t.lay <- l;
  t.buf <- Array.make l.pwords 0

(* Encode a candidate into [t.buf], widening the layout first if it
   does not fit. *)
let pack t (s : State.packed) =
  if Array.length s <> Array.length t.lay.lo then begin
    if t.count > 0 then invalid_arg "Store: states differ in length";
    t.lay <- unfixed (Array.length s)
  end;
  if not (encode t.lay s t.buf 0) then begin
    widen t s;
    ignore (encode t.lay s t.buf 0)
  end

let read_into t id (dst : State.packed) =
  if t.mode = Fp_only then invalid_arg "Store: an Fp_only store keeps no states";
  if id < 0 || id >= t.count then invalid_arg "Store: no such id";
  if Array.length dst <> Array.length t.lay.lo then
    invalid_arg "Store.read_into: buffer length differs from the states'";
  decode t.lay t.chunks.(id lsr chunk_bits)
    ((id land chunk_mask) * t.lay.pwords)
    dst

let get t id =
  let dst = Array.make (Array.length t.lay.lo) 0 in
  read_into t id dst;
  dst

let rec same_words chunk base (buf : int array) i words =
  i >= words
  || Array.unsafe_get chunk (base + i) = Array.unsafe_get buf i
     && same_words chunk base buf (i + 1) words

(* Whether the stored state [id] is the packed candidate in [t.buf].
   Packing is canonical (unused bits stay zero), so equal words are
   equal states.  [id < count] by construction, so the scan reads
   unsafely. *)
let equal_at t id =
  let words = t.lay.pwords in
  same_words
    (Array.unsafe_get t.chunks (id lsr chunk_bits))
    ((id land chunk_mask) * words)
    t.buf 0 words

(* Look for the candidate under [key] from slot [i]: the id of its
   entry, or -1 after remembering the free slot that ends its probe
   sequence, and whether a collision (a distinct state under the same
   tag) was passed on the way.  [Exact] compares packed contents on a
   tag match, so a hit costs one miss into the arena; [Fp_only] takes
   an equal key as the state itself. *)
let rec probe_from t key tag i collided =
  let e = Array.unsafe_get t.table i in
  if e = 0 then begin
    t.last_slot <- i;
    t.last_key <- key;
    t.last_collided <- collided;
    -1
  end
  else if entry_tag e <> tag then
    probe_from t key tag ((i + 1) land t.mask) collided
  else
    let id = id_of_entry e in
    match t.mode with
    | Exact ->
        if equal_at t id then id
        else probe_from t key tag ((i + 1) land t.mask) true
    | Fp_only ->
        if Vec.get t.keys id = key then id
        else probe_from t key tag ((i + 1) land t.mask) collided

let probe_key t key s =
  (match t.mode with Exact -> pack t s | Fp_only -> ());
  let tag = tag_of key in
  probe_from t key tag (home tag t.mask) false

let probe t s = probe_key t (State.hash s) s
let find_opt t s = match probe t s with -1 -> None | id -> Some id

let grow_table t =
  let old = t.table in
  (* Large tables quadruple instead of doubling: re-placing an entry is
     a random write, so halving the number of growth rounds matters more
     than the transiently lower load factor. *)
  let n = (if Array.length old >= 1 lsl 18 then 4 else 2) * Array.length old in
  let table = Array.make n 0 in
  let mask = n - 1 in
  for k = 0 to Array.length old - 1 do
    let e = Array.unsafe_get old k in
    if e <> 0 then begin
      let i = ref (home e mask) in
      while Array.unsafe_get table !i <> 0 do
        i := (!i + 1) land mask
      done;
      Array.unsafe_set table !i e
    end
  done;
  t.table <- table;
  t.mask <- mask

let store_state t id =
  let words = t.lay.pwords in
  let cid = id lsr chunk_bits in
  if cid >= Array.length t.chunks then begin
    let n = Array.length t.chunks in
    let chunks = Array.make (max 8 (2 * n)) [||] in
    Array.blit t.chunks 0 chunks 0 n;
    t.chunks <- chunks
  end;
  if Array.length t.chunks.(cid) = 0 then
    t.chunks.(cid) <- Array.make (chunk_states * words) 0;
  Array.blit t.buf 0 t.chunks.(cid) ((id land chunk_mask) * words) words

let add_probed t (_ : State.packed) =
  let id = t.count in
  (match t.mode with
  | Exact -> store_state t id
  | Fp_only -> ignore (Vec.push t.keys t.last_key));
  if t.last_collided then t.collisions <- t.collisions + 1;
  t.table.(t.last_slot) <- tag_of t.last_key lor (id + 1);
  t.count <- id + 1;
  (* Keep the load factor at or below 2/3: linear probing's sequential
     cache lines tolerate it well, and the smaller table keeps more of
     the index in cache than a half-full one twice the size. *)
  if 3 * (id + 1) > 2 * (t.mask + 1) then grow_table t;
  id

let add t s =
  match probe t s with
  | -1 -> Some (add_probed t s)
  | _ -> None

let load_factor t =
  if t.count = 0 then 0.0
  else float_of_int t.count /. float_of_int (t.mask + 1)

let word_bytes = Sys.word_size / 8

let arena_bytes t =
  let chunk_words =
    Array.fold_left (fun acc c -> acc + Array.length c) 0 t.chunks
  in
  (chunk_words + t.mask + 1 + Vec.length t.keys) * word_bytes
