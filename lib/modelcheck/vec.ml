(* An append-only log in chunks: the first chunk doubles up to
   [chunk] entries, every later chunk is allocated at full size and
   never copied.  A log of n entries then holds about n slots, where a
   doubling array can end half empty with the copy from its last
   doubling still to be collected.  Entry [i] lives in chunk
   [i lsr chunk_bits]; only chunk 0 is ever smaller than [chunk]. *)

type 'a t = {
  mutable chunks : 'a array array;
  mutable cap : int;  (* slots allocated across all chunks *)
  mutable len : int;
}

let chunk_bits = 13
let chunk = 1 lsl chunk_bits
let chunk_mask = chunk - 1

let create ?capacity:_ () = { chunks = [||]; cap = 0; len = 0 }

let length v = v.len

(* The new slots are filled with [x], so no unsafe placeholder value is
   ever observable. *)
let grow v x =
  if v.cap < chunk then begin
    let first = Array.make (max 16 (2 * v.cap)) x in
    if v.cap > 0 then Array.blit v.chunks.(0) 0 first 0 v.len;
    v.chunks <- [| first |];
    v.cap <- Array.length first
  end
  else begin
    let k = v.cap lsr chunk_bits in
    if k = Array.length v.chunks then begin
      let chunks = Array.make (2 * k) [||] in
      Array.blit v.chunks 0 chunks 0 k;
      v.chunks <- chunks
    end;
    v.chunks.(k) <- Array.make chunk x;
    v.cap <- v.cap + chunk
  end

(* Callers check [i] against [len]; chunk [i lsr chunk_bits] then
   exists and holds slot [i land chunk_mask]. *)
let chunk_of v i = Array.unsafe_get v.chunks (i lsr chunk_bits)

let push v x =
  if v.len = v.cap then grow v x;
  let i = v.len in
  Array.unsafe_set (chunk_of v i) (i land chunk_mask) x;
  v.len <- i + 1;
  i

let check v i = if i < 0 || i >= v.len then invalid_arg "Vec: index out of bounds"

let get v i =
  check v i;
  Array.unsafe_get (chunk_of v i) (i land chunk_mask)

let set v i x =
  check v i;
  Array.unsafe_set (chunk_of v i) (i land chunk_mask) x

(* Capacity is retained so a cleared vector can be refilled without
   reallocating. *)
let clear v = v.len <- 0

let iteri f v =
  for i = 0 to v.len - 1 do
    f i (get v i)
  done

let iter f v = iteri (fun _ x -> f x) v
let to_list v = List.init v.len (get v)
