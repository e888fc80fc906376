(* Per-domain work deque for the sharded explorer.

   The owner pushes and pops at the tail (LIFO keeps its cache warm
   within a wave — order inside a BFS level is semantically free);
   thieves steal a batch from the head, taking the oldest work.  A
   plain per-deque mutex guards both ends: the owner's lock is
   uncontended except while a thief is actually stealing, and stealing
   moves a batch per lock acquisition, not an item.

   Entries are (global id, packed state) pairs stored unboxed, one after
   the other, in a flat int ring: a push copies the state in, a pop or
   steal copies it out into the caller's buffer.  The ring keeps its
   capacity across waves, so once grown no operation allocates. *)

type t = {
  mutex : Mutex.t;
  stride : int;  (* 1 + words: the gid, then the state *)
  mutable ring : int array;  (* entry [i] at [(i land (cap - 1)) * stride] *)
  mutable cap : int;  (* entries; a power of two *)
  mutable head : int;  (* entry index of the first occupied slot *)
  mutable len : int;
}

let initial_cap = 256

let create ~words =
  let stride = words + 1 in
  {
    mutex = Mutex.create ();
    stride;
    ring = Array.make (initial_cap * stride) 0;
    cap = initial_cap;
    head = 0;
    len = 0;
  }

let length t = t.len

let grow t =
  let cap = 2 * t.cap in
  let ring = Array.make (cap * t.stride) 0 in
  let first = min t.len (t.cap - t.head) in
  Array.blit t.ring (t.head * t.stride) ring 0 (first * t.stride);
  Array.blit t.ring 0 ring (first * t.stride) ((t.len - first) * t.stride);
  t.ring <- ring;
  t.cap <- cap;
  t.head <- 0

let push t gid (s : State.packed) =
  Mutex.lock t.mutex;
  if t.len = t.cap then grow t;
  let o = ((t.head + t.len) land (t.cap - 1)) * t.stride in
  let ring = t.ring in
  ring.(o) <- gid;
  Array.blit s 0 ring (o + 1) (t.stride - 1);
  t.len <- t.len + 1;
  Mutex.unlock t.mutex

let pop t (dst : State.packed) =
  Mutex.lock t.mutex;
  if t.len = 0 then begin
    Mutex.unlock t.mutex;
    -1
  end
  else begin
    let o = ((t.head + t.len - 1) land (t.cap - 1)) * t.stride in
    let gid = t.ring.(o) in
    Array.blit t.ring (o + 1) dst 0 (t.stride - 1);
    t.len <- t.len - 1;
    Mutex.unlock t.mutex;
    gid
  end

(* Steal up to [max] entries (at most half the victim's load, at least
   one) from the head into the thief's flat buffer, each as its gid
   followed by its state.  Returns the number taken; 0 when the victim
   is empty. *)
let steal t ~into ~max =
  Mutex.lock t.mutex;
  let stride = t.stride in
  let n = min max (min ((t.len + 1) / 2) (Array.length into / stride)) in
  for k = 0 to n - 1 do
    let o = ((t.head + k) land (t.cap - 1)) * stride in
    Array.blit t.ring o into (k * stride) stride
  done;
  if n > 0 then begin
    t.head <- (t.head + n) land (t.cap - 1);
    t.len <- t.len - n
  end;
  Mutex.unlock t.mutex;
  n
