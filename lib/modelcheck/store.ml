(* An open-addressing index from key to insertion-order id, plus, in
   [Exact] mode, the states themselves in a chunked int arena:

   - probing allocates nothing and touches one word per step: each
     index entry packs a 31-bit key tag with the id;
   - each entry's full key is kept in an id-indexed side vector, so
     table growth re-places entries without rehashing any state, and
     [Fp_only] compares keys there instead of states;
   - states live contiguously inside fixed-size arena chunks: storing
     one is a blit, not an allocation, equality on a probe hit reads
     sequential words, and the GC never traces millions of small
     arrays.  Chunks are never moved or copied once allocated — growing
     the store allocates a fresh chunk instead of re-blitting a doubled
     arena, so insertion cost stays flat into the millions of states. *)

type mode = Exact | Fp_only

type t = {
  mode : mode;
  mutable table : int array;
      (* slot -> 0 when empty, else (key high bits lsl 32) lor (id + 1) *)
  mutable mask : int;
  keys : int Vec.t;  (* id -> full key *)
  mutable chunks : int array array;
      (* [Exact]: state [id] at [(id land chunk_mask) * words] in
         [chunks.(id lsr chunk_bits)] *)
  mutable words : int;  (* per-state size; fixed by the first stored state *)
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
let id_of_entry e = (e land 0xffff_ffff) - 1

let create ?(mode = Exact) () =
  {
    mode;
    table = Array.make initial_slots 0;
    mask = initial_slots - 1;
    keys = Vec.create ();
    chunks = [||];
    words = -1;
    count = 0;
    collisions = 0;
    last_slot = 0;
    last_key = 0;
    last_collided = false;
  }

let length t = t.count
let collisions t = t.collisions

let read_into t id (dst : State.packed) =
  Array.blit t.chunks.(id lsr chunk_bits) ((id land chunk_mask) * t.words) dst
    0 t.words

let get t id =
  Array.sub t.chunks.(id lsr chunk_bits) ((id land chunk_mask) * t.words) t.words

let rec same_words chunk base (s : State.packed) i words =
  i >= words
  || Array.unsafe_get chunk (base + i) = Array.unsafe_get s i
     && same_words chunk base s (i + 1) words

(* [State.equal] on the arena-resident state, without materializing it.
   Indices are in range by construction (id < count, length s = words
   checked first), so the scan uses unsafe reads. *)
let equal_at t id (s : State.packed) =
  Array.length s = t.words
  && same_words
       (Array.unsafe_get t.chunks (id lsr chunk_bits))
       ((id land chunk_mask) * t.words)
       s 0 t.words

(* Look for [s] under [key] from slot [i]: the id of its entry, or -1
   after remembering the free slot that ends its probe sequence, and
   whether a genuine collision (a distinct state under the same key)
   was passed on the way.  [Exact] compares contents on a tag match
   before it reads the key vector, so a hit costs one miss into the
   arena and the key is read only to notice a collision; [Fp_only]
   takes an equal key as the state itself. *)
let rec probe_from t key tag (s : State.packed) i collided =
  let e = Array.unsafe_get t.table i in
  if e = 0 then begin
    t.last_slot <- i;
    t.last_key <- key;
    t.last_collided <- collided;
    -1
  end
  else if entry_tag e <> tag then
    probe_from t key tag s ((i + 1) land t.mask) collided
  else
    let id = id_of_entry e in
    match t.mode with
    | Exact ->
        if equal_at t id s then id
        else
          probe_from t key tag s ((i + 1) land t.mask)
            (collided || Vec.get t.keys id = key)
    | Fp_only ->
        if Vec.get t.keys id = key then id
        else probe_from t key tag s ((i + 1) land t.mask) collided

let probe_key t key s = probe_from t key (tag_of key) s (key land t.mask) false
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
      let i = ref (Vec.get t.keys (id_of_entry e) land mask) in
      while Array.unsafe_get table !i <> 0 do
        i := (!i + 1) land mask
      done;
      Array.unsafe_set table !i e
    end
  done;
  t.table <- table;
  t.mask <- mask

let store_state t id (s : State.packed) =
  if t.words < 0 then t.words <- Array.length s;
  let words = t.words in
  let cid = id lsr chunk_bits in
  if cid >= Array.length t.chunks then begin
    let n = Array.length t.chunks in
    let chunks = Array.make (max 8 (2 * n)) [||] in
    Array.blit t.chunks 0 chunks 0 n;
    t.chunks <- chunks
  end;
  if Array.length t.chunks.(cid) = 0 then
    t.chunks.(cid) <- Array.make (chunk_states * words) 0;
  Array.blit s 0 t.chunks.(cid) ((id land chunk_mask) * words) words

let add_probed t (s : State.packed) =
  let id = t.count in
  (match t.mode with Exact -> store_state t id s | Fp_only -> ());
  if t.last_collided then t.collisions <- t.collisions + 1;
  ignore (Vec.push t.keys t.last_key);
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
