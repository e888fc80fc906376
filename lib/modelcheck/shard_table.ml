(* Sharded visited set for the parallel explorer: routing over one
   [Store] per shard.

   A state's fingerprint picks its owning shard ([fp mod nshards]), and
   nothing else: the shard's store keys the state itself, from its
   packed words, so no shard indexes on bits that are constant within
   it.  Each shard is written and read by one domain at a time, so
   concurrent insertions never touch another shard's memory; reads of
   other shards' counters are only done at wave barriers. *)

type mode = Exact

type t = { nshards : int; hash : State.packed -> int; shards : Store.t array }

let create ?(hash = Fingerprint.hash) ~mode:Exact ~nshards ~words:_ () =
  if nshards < 1 then invalid_arg "Shard_table.create: nshards must be >= 1";
  let shards = Array.init nshards (fun _ -> Store.create ()) in
  { nshards; hash; shards }

let set_siblings t siblings =
  Array.iter (fun st -> Store.set_siblings st siblings) t.shards

let fingerprint t s = t.hash s
let owner t fp = fp mod t.nshards

(* Global ids interleave shards so that parent links survive any mix of
   shard growth rates: gid = local * nshards + shard. *)
let gid t ~shard ~local = (local * t.nshards) + shard
let shard_of_gid t gid = gid mod t.nshards
let local_of_gid t gid = gid / t.nshards

let insert t ~shard ~fp:_ (s : State.packed) =
  let st = t.shards.(shard) in
  if Store.probe st s >= 0 then -1 else Store.add_probed st s

let get t ~shard local = Store.get t.shards.(shard) local
let read_into t ~shard local dst = Store.read_into t.shards.(shard) local dst

(* Closed folds: [insert]'s callers read [total] every 256 inserts, and
   a fold over a passed-in function would allocate its closure there. *)
let total t = Array.fold_left (fun n st -> n + Store.length st) 0 t.shards

let length t ~shard = Store.length t.shards.(shard)

let collisions t =
  Array.fold_left (fun n st -> n + Store.collisions st) 0 t.shards

let memory_bytes t =
  Array.fold_left (fun n st -> n + Store.arena_bytes st) 0 t.shards

let occupancy t =
  Array.fold_left
    (fun (mn, mx) st -> (min mn (Store.length st), max mx (Store.length st)))
    (max_int, 0) t.shards
