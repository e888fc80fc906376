(* An open-addressing index from key to insertion-order id, plus the
   states themselves, bit-packed in a chunked int arena:

   - an index entry is 32 bits in a [Bytes] buffer: the id plus one in
     the low log2(slots) bits, and the top bits of the state's key in
     the rest as a tag.  Probing allocates nothing and touches four
     bytes per step;
   - the key is computed from the packed words, so the store needs no
     caller's hash, and keeps no keys: growing the table and widening
     the layout both rebuild the index from the arena in id order
     ([reindex]), rehashing every stored state;
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
     A field widens together with its siblings, the fields the caller
     grouped with it (one shared array, the pcs, or one local across
     processes), which tend to need the same range at about the same
     time, so that one rebuild serves them all.  A field that would
     need more than 62 bits gets a raw word of its own, so every int
     round-trips;
   - packed states live contiguously inside fixed-size arena chunks:
     storing one is a blit, not an allocation, and the GC never traces
     millions of small arrays.  Chunks are never copied as the store
     grows — it allocates a fresh chunk instead — so insertion cost
     stays flat into the millions of states; only a widening rebuilds
     them, one chunk at a time. *)

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
  mutable index : Bytes.t;
      (* slot [i] at bytes [4i .. 4i + 3]: 0 when empty, else
         [tag lsl bits lor (id + 1)] *)
  mutable bits : int;  (* log2 of the slot count *)
  mutable mask : int;
  mutable lay : layout;
  mutable siblings : int array;
      (* by field, its group: fields of one group widen together;
         empty when every field is its own group *)
  mutable buf : int array;  (* the last probed candidate, packed *)
  mutable chunks : int array array;
      (* state [id] at [(id land chunk_mask) * lay.pwords] in
         [chunks.(id lsr chunk_bits)] *)
  mutable count : int;
  mutable collisions : int;
  (* Where the last missed probe ended, for [add_probed]. *)
  mutable last_slot : int;
  mutable last_tag : int;
  mutable last_collided : bool;
}

let initial_bits = 12
let chunk_bits = 13
let chunk_states = 1 lsl chunk_bits
let chunk_mask = chunk_states - 1

(* One 32-bit entry in native byte order, read and written without a
   bounds check or a boxed [int32]: slots are masked, so always in
   range. *)
external get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"

let entry index i = Int32.to_int (get32 index (4 * i)) land 0xffff_ffff
let set_entry index i e = set32 index (4 * i) (Int32.of_int e)

(* The tag is the key's top [32 - bits] bits, so an entry fills 32. *)
let tag_of key bits = key lsr (31 + bits)

(* A key from packed words: the splitmix finalizer alone for one word,
   an FNV-1a fold of whole words first for more. *)
let key_of (words : int array) base n =
  if n = 1 then Fingerprint.mix (Array.unsafe_get words base)
  else begin
    let h = ref 0x3bf29ce484222325 in
    for i = base to base + n - 1 do
      h := (!h lxor Array.unsafe_get words i) * 0x100000001b3
    done;
    Fingerprint.mix !h
  end

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

let create () =
  {
    index = Bytes.make (4 lsl initial_bits) '\000';
    bits = initial_bits;
    mask = (1 lsl initial_bits) - 1;
    lay = unfixed 0;
    siblings = [||];
    buf = [| 0 |];
    chunks = [||];
    count = 0;
    collisions = 0;
    last_slot = 0;
    last_tag = 0;
    last_collided = false;
  }

let length t = t.count
let collisions t = t.collisions

let set_siblings t siblings =
  if t.count > 0 then invalid_arg "Store.set_siblings: states are stored";
  t.siblings <- siblings

(* The one index builder: a table of 2^[bits] slots, filled from the
   arena in id order, each state rehashed from its packed words.  A
   rebuild at the same size (a widening) clears and refills the table
   it has, since a fresh one would pace the major GC like any large
   allocation; a growth drops the old table before it allocates the new
   one, so only the new one is live while it fills. *)
let reindex t bits =
  if bits > 32 then failwith "Store: more than 2^32 index slots";
  let index =
    if bits = t.bits then begin
      Bytes.fill t.index 0 (Bytes.length t.index) '\000';
      t.index
    end
    else begin
      t.index <- Bytes.empty;
      Bytes.make (4 lsl bits) '\000'
    end
  in
  let mask = (1 lsl bits) - 1 and words = t.lay.pwords in
  for id = 0 to t.count - 1 do
    let chunk = Array.unsafe_get t.chunks (id lsr chunk_bits) in
    let key = key_of chunk ((id land chunk_mask) * words) words in
    let i = ref (key land mask) in
    while entry index !i <> 0 do
      i := (!i + 1) land mask
    done;
    set_entry index !i ((tag_of key bits lsl bits) lor (id + 1))
  done;
  t.index <- index;
  t.bits <- bits;
  t.mask <- mask

(* Widen every field whose range misses its value in [s], and its
   siblings to the same range, rebuild the arena under the new layout
   one chunk at a time, so the old and new forms of only one chunk are
   live at once, then the index, whose keys the new packing changed. *)
let widen t (s : State.packed) =
  let old = t.lay in
  let lo = Array.copy old.lo and hi = Array.copy old.hi in
  for f = 0 to Array.length s - 1 do
    if s.(f) < lo.(f) || s.(f) > hi.(f) then begin
      let a, b = range (Int.min s.(f) lo.(f)) (Int.max s.(f) hi.(f)) in
      lo.(f) <- a;
      hi.(f) <- b;
      for g = 0 to Array.length t.siblings - 1 do
        if t.siblings.(g) = t.siblings.(f) then begin
          let a, b = range (Int.min a lo.(g)) (Int.max b hi.(g)) in
          lo.(g) <- a;
          hi.(g) <- b
        end
      done
    end
  done;
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
  t.buf <- Array.make l.pwords 0;
  if t.count > 0 then reindex t t.bits

(* Encode a candidate into [t.buf], widening the layout first if it
   does not fit. *)
let pack t (s : State.packed) =
  if Array.length s <> Array.length t.lay.lo then begin
    if t.count > 0 then invalid_arg "Store: states differ in length";
    if Array.length t.siblings > 0 && Array.length t.siblings <> Array.length s
    then invalid_arg "Store: siblings and states differ in length";
    t.lay <- unfixed (Array.length s)
  end;
  if not (encode t.lay s t.buf 0) then begin
    widen t s;
    ignore (encode t.lay s t.buf 0)
  end

let read_into t id (dst : State.packed) =
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

(* Look for the candidate under key tag [tag] from slot [i]: the id of
   its entry, or -1 after remembering the free slot that ends its probe
   sequence, and whether a collision (a distinct state under the same
   tag) was passed on the way.  A tag match compares packed contents,
   so a hit costs one miss into the arena. *)
let rec probe_from t tag i collided =
  let e = entry t.index i in
  if e = 0 then begin
    t.last_slot <- i;
    t.last_tag <- tag;
    t.last_collided <- collided;
    -1
  end
  else if e lsr t.bits <> tag then
    probe_from t tag ((i + 1) land t.mask) collided
  else
    let id = (e land t.mask) - 1 in
    if equal_at t id then id else probe_from t tag ((i + 1) land t.mask) true

let probe t s =
  pack t s;
  let key = key_of t.buf 0 t.lay.pwords in
  probe_from t (tag_of key t.bits) (key land t.mask) false

let find_opt t s = match probe t s with -1 -> None | id -> Some id

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
  store_state t id;
  if t.last_collided then t.collisions <- t.collisions + 1;
  set_entry t.index t.last_slot ((t.last_tag lsl t.bits) lor (id + 1));
  t.count <- id + 1;
  (* Keep the load factor at or below 2/3: linear probing's sequential
     cache lines tolerate it well, and the smaller table keeps more of
     the index in cache than a half-full one twice the size.  Large
     tables quadruple instead of doubling: a rebuild rehashes every
     state, so halving the number of rounds matters more than the
     transiently lower load factor. *)
  if 3 * (id + 1) > 2 * (t.mask + 1) then
    reindex t (t.bits + if t.bits >= 18 then 2 else 1);
  id

let add t s =
  match probe t s with
  | -1 -> Some (add_probed t s)
  | _ -> None

let load_factor t =
  if t.count = 0 then 0.0
  else float_of_int t.count /. float_of_int (t.mask + 1)

let arena_bytes t =
  let chunk_words =
    Array.fold_left (fun acc c -> acc + Array.length c) 0 t.chunks
  in
  (chunk_words * (Sys.word_size / 8)) + Bytes.length t.index
