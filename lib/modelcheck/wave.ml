(* The BFS wave driver shared by the sequential searches.

   [Explore]'s search (behind both [Explore.run] and
   [Explore.run_graph]) and [Refine.check]'s product BFS drive the same
   loop: a FIFO of work items, a boundary marking where the current BFS
   level ends, and a depth counter bumped when the cursor crosses it.
   One parameterized driver keeps the wave accounting (and the
   per-wave telemetry hook) in one place.

   Item [p] (in push order) sits in slot [p land (capacity - 1)] of a
   power-of-two ring that doubles only when the pending items fill it,
   so the ring holds the largest frontier, not every item pushed.
   Items enter in discovery order, so the boundary invariant holds by
   construction: every item before it is at depth <= d, every item at
   or after it was discovered while processing depth d. *)

type 'a t = {
  mutable ring : 'a array;
  mutable head : int;  (* items handed out *)
  mutable tail : int;  (* items pushed *)
  mutable depth : int;
}

let create () = { ring = [||]; head = 0; tail = 0; depth = 0 }

(* A grown ring's new slots hold [x], so no placeholder is observable. *)
let push t x =
  let cap = Array.length t.ring in
  if t.tail - t.head = cap then begin
    let ring = Array.make (max 16 (2 * cap)) x in
    for p = t.head to t.tail - 1 do
      ring.(p land (Array.length ring - 1)) <- t.ring.(p land (cap - 1))
    done;
    t.ring <- ring
  end;
  t.ring.(t.tail land (Array.length t.ring - 1)) <- x;
  t.tail <- t.tail + 1

let depth t = t.depth
let pending t = t.tail - t.head

let drive ?on_wave t f =
  let boundary = ref t.tail in
  while t.head < t.tail do
    if t.head = !boundary then begin
      t.depth <- t.depth + 1;
      boundary := t.tail;
      match on_wave with
      | None -> ()
      | Some g -> g ~depth:t.depth ~frontier:(!boundary - t.head)
    end;
    let x = t.ring.(t.head land (Array.length t.ring - 1)) in
    t.head <- t.head + 1;
    f x
  done
