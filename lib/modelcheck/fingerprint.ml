(* 63-bit state fingerprints for the sharded explorer.

   A fingerprint picks the owning shard, its residue mod the shard
   count, and nothing else: each shard's [Store] keys its states itself
   from their packed words, with [mix] below.  So the residue's low
   bits must depend on every word of the state: one flipped word
   anywhere must flip each of them with probability ~1/2.

   The words are accumulated as [State.hash] does it, one xor-multiply
   per word (FNV-1a over whole words).  Where two states differ in one
   word, the lowest bit in which those words differ survives every
   later step, so the two never share an accumulator; but a product
   only carries bits upward, so the accumulator's low bits see only the
   words' low bits.  One splitmix64 finalizer per state then spreads
   every bit over the whole word, which meets the requirement above at
   a fraction of the cost of a finalizer per word. *)

(* The 64-bit splitmix constants don't fit an OCaml int literal (63
   bits); assembling them from halves keeps their low 63 bits, which is
   all the wrapping multiplication ever sees. *)
let c1 = (0xbf58476d lsl 32) lor 0x1ce4e5b9
let c2 = (0x94d049bb lsl 32) lor 0x133111eb

let mix z =
  let z = (z lxor (z lsr 30)) * c1 in
  let z = (z lxor (z lsr 27)) * c2 in
  z lxor (z lsr 31)

let hash (s : State.packed) = mix (State.hash s) land max_int
