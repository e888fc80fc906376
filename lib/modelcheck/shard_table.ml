(* Sharded visited set for the parallel explorer.

   A state's fingerprint picks its owning shard ([fp mod nshards]); each
   shard is an independent open-addressing table plus (in [Exact] mode)
   its own chunked state arena, so concurrent insertions never touch
   another shard's memory.  The single shared [Store] this replaces made
   every insertion serialize through one table — the measured reason
   pool4 ran slower than pool1.

   Two key representations:

   - [Exact] keeps the full packed state per entry.  Equal fingerprints
     with different contents are genuine collisions: both states are
     stored, the collision is counted, and the checker's answer is
     bit-identical to the sequential engine's.  This is the default and
     the "debug" mode that measures the fingerprint's collision rate.
   - [Fp_only] keeps nothing but the fingerprint (TLC's trick): an
     order of magnitude less memory per state, at the cost of treating
     fingerprint-equal states as identical.  With the splitmix
     fingerprint the expected loss at 10^8 states is ~3e-3 collisions
     per run; with a bad hash the answer degrades (see the
     collision-injection test).

   Concurrency contract: shard [k] accepts insertions from one domain
   at a time (the engine makes domain [k] the only writer); reads of
   other shards' counters are only done at wave barriers. *)

type mode = Exact | Fp_only

type shard = {
  mutable table : int array;
      (* slot -> 0 when empty, else (key high bits lsl 32) lor (local + 1) *)
  mutable mask : int;
  keys : int Vec.t;  (* local id -> full slot key, for growth + Fp_only probes *)
  mutable chunks : int array array;  (* Exact: state [local] in its chunk *)
  mutable count : int;
  mutable collisions : int;
}

type t = {
  mode : mode;
  nshards : int;
  words : int;
  hash : State.packed -> int;
  shards : shard array;
}

let initial_slots = 1024
let chunk_bits = 13
let chunk_states = 1 lsl chunk_bits
let chunk_mask = chunk_states - 1
let tag_of k = (k lsr 31) lsl 32
let entry_tag e = e land lnot 0xffff_ffff

let create ?(hash = Fingerprint.hash) ~mode ~nshards ~words () =
  if nshards < 1 then invalid_arg "Shard_table.create: nshards must be >= 1";
  {
    mode;
    nshards;
    words;
    hash;
    shards =
      Array.init nshards (fun _ ->
          {
            table = Array.make initial_slots 0;
            mask = initial_slots - 1;
            keys = Vec.create ();
            chunks = [||];
            count = 0;
            collisions = 0;
          });
  }

let mode t = t.mode
let nshards t = t.nshards
let fingerprint t s = t.hash s
let owner t fp = fp mod t.nshards

(* Global ids interleave shards so that parent links survive any mix of
   shard growth rates: gid = local * nshards + shard. *)
let gid t ~shard ~local = (local * t.nshards) + shard
let shard_of_gid t gid = gid mod t.nshards
let local_of_gid t gid = gid / t.nshards

let count t ~shard = t.shards.(shard).count
let total t = Array.fold_left (fun acc sh -> acc + sh.count) 0 t.shards
let collisions t = Array.fold_left (fun acc sh -> acc + sh.collisions) 0 t.shards

let rec same_words chunk base (s : State.packed) i words =
  i >= words
  || Array.unsafe_get chunk (base + i) = Array.unsafe_get s i
     && same_words chunk base s (i + 1) words

let equal_at t sh local (s : State.packed) =
  same_words
    (Array.unsafe_get sh.chunks (local lsr chunk_bits))
    ((local land chunk_mask) * t.words)
    s 0 t.words

let read_into t ~shard local (dst : State.packed) =
  let sh = t.shards.(shard) in
  Array.blit sh.chunks.(local lsr chunk_bits)
    ((local land chunk_mask) * t.words)
    dst 0 t.words

let get t ~shard local =
  let sh = t.shards.(shard) in
  Array.sub sh.chunks.(local lsr chunk_bits)
    ((local land chunk_mask) * t.words)
    t.words

let grow_table sh =
  let old = sh.table in
  let n = (if Array.length old >= 1 lsl 18 then 4 else 2) * Array.length old in
  let table = Array.make n 0 in
  let mask = n - 1 in
  for i = 0 to Array.length old - 1 do
    let e = Array.unsafe_get old i in
    if e <> 0 then begin
      let k = Vec.get sh.keys ((e land 0xffff_ffff) - 1) in
      let j = ref (k land mask) in
      while Array.unsafe_get table !j <> 0 do
        j := (!j + 1) land mask
      done;
      Array.unsafe_set table !j e
    end
  done;
  sh.table <- table;
  sh.mask <- mask

let store_state t sh (s : State.packed) =
  let words = t.words in
  let local = sh.count in
  let cid = local lsr chunk_bits in
  if cid >= Array.length sh.chunks then begin
    let n = Array.length sh.chunks in
    let chunks = Array.make (max 4 (2 * n)) [||] in
    Array.blit sh.chunks 0 chunks 0 n;
    sh.chunks <- chunks
  end;
  if Array.length sh.chunks.(cid) = 0 then
    sh.chunks.(cid) <- Array.make (chunk_states * words) 0;
  Array.blit s 0 sh.chunks.(cid) ((local land chunk_mask) * words) words

(* Probe for [s] from slot [i]: -1 when it is present, else the free
   slot that ends its probe sequence, shifted left once, with the low
   bit set when a genuine fingerprint collision (two distinct states,
   one key) was passed on the way.  [Exact] compares contents on a tag
   match before it reads the key vector, so a hit costs one miss into
   the arena and the key is read only to count a collision. *)
let rec probe t sh key tag (s : State.packed) i collided =
  let e = Array.unsafe_get sh.table i in
  if e = 0 then (i lsl 1) lor collided
  else if entry_tag e <> tag then
    probe t sh key tag s ((i + 1) land sh.mask) collided
  else
    let local = (e land 0xffff_ffff) - 1 in
    match t.mode with
    | Exact ->
        if equal_at t sh local s then -1
        else
          let collided = if Vec.get sh.keys local = key then 1 else collided in
          probe t sh key tag s ((i + 1) land sh.mask) collided
    | Fp_only ->
        (* the fingerprint says: seen *)
        if Vec.get sh.keys local = key then -1
        else probe t sh key tag s ((i + 1) land sh.mask) collided

(* Insert [s] (whose fingerprint is [fp], owned by [shard]) if absent.
   Returns the state's local id if it was inserted, -1 if it was
   already present.  The slot key strips the shard selector so shards
   never index on bits that are constant within the shard. *)
let insert t ~shard ~fp (s : State.packed) =
  let sh = t.shards.(shard) in
  let key = fp / t.nshards in
  match probe t sh key (tag_of key) s (key land sh.mask) 0 with
  | -1 -> -1
  | r ->
      if r land 1 = 1 then sh.collisions <- sh.collisions + 1;
      let local = sh.count in
      (match t.mode with Exact -> store_state t sh s | Fp_only -> ());
      ignore (Vec.push sh.keys key);
      sh.table.(r lsr 1) <- tag_of key lor (local + 1);
      sh.count <- local + 1;
      if 3 * (local + 1) > 2 * (sh.mask + 1) then grow_table sh;
      local

let word_bytes = Sys.word_size / 8

let memory_bytes t =
  Array.fold_left
    (fun acc sh ->
      let chunk_words =
        Array.fold_left (fun a c -> a + Array.length c) 0 sh.chunks
      in
      acc + ((chunk_words + sh.mask + 1 + Vec.length sh.keys) * word_bytes))
    0 t.shards

let occupancy t =
  if t.nshards = 0 then (0, 0)
  else
    Array.fold_left
      (fun (mn, mx) sh -> (min mn sh.count, max mx sh.count))
      (max_int, 0) t.shards
