(* The BFS wave driver shared by the sequential searches.

   [Explore]'s search (behind both [Explore.run] and
   [Explore.run_graph]) and [Refine.check]'s product BFS drive the same
   loop: a FIFO of work items, a boundary index marking where the
   current BFS level ends, and a depth counter bumped when the cursor
   crosses it.  One parameterized driver keeps the wave accounting (and
   the per-wave telemetry hook) in one place.

   Items enter in discovery order, so the boundary invariant holds by
   construction: everything before it is at depth <= d, everything at
   or after it was discovered while processing depth d. *)

type 'a t = {
  items : 'a Vec.t;
  mutable head : int;
  mutable depth : int;
}

let create () = { items = Vec.create (); head = 0; depth = 0 }
let push t x = ignore (Vec.push t.items x)
let depth t = t.depth
let pending t = Vec.length t.items - t.head

let drive ?on_wave t f =
  let boundary = ref (Vec.length t.items) in
  while t.head < Vec.length t.items do
    if t.head = !boundary then begin
      t.depth <- t.depth + 1;
      boundary := Vec.length t.items;
      match on_wave with
      | None -> ()
      | Some g -> g ~depth:t.depth ~frontier:(!boundary - t.head)
    end;
    let x = Vec.get t.items t.head in
    t.head <- t.head + 1;
    f x
  done
