(* Per-domain event rings for runtime lock forensics.

   The lock zoo runs on real OCaml 5 domains, so tracing must not
   serialise the contenders it is observing: each participant records
   into its own preallocated int ring (two array stores and an
   increment, no allocation, no synchronisation), and the rings are
   merged into one time-sorted log only after the run.  Stamps are
   CLOCK_MONOTONIC nanoseconds: one system-wide clock every domain
   reads without touching shared memory, and fine enough that a lock
   hand-over (release stamp, releasing store, the successor seeing it,
   acquired stamp) spans many ticks instead of landing on one.  When a
   ring overflows, the oldest entries are overwritten — forensics
   favours the end of the run, where the interesting contention usually
   is. *)

type op = Acquire_start | Acquired | Released

let op_code = function Acquire_start -> 0 | Acquired -> 1 | Released -> 2
let op_of_code = function 0 -> Acquire_start | 1 -> Acquired | _ -> Released

type entry = { e_t_ns : int; e_pid : int; e_op : op }

type t = {
  nprocs : int;
  capacity : int;
  ops : int array array;  (* per pid: op codes *)
  ts : int array array;  (* per pid: CLOCK_MONOTONIC ns stamps *)
  count : int array;  (* per pid: total records (may exceed capacity) *)
}

let create ?(capacity = 4096) ~nprocs () =
  if capacity <= 0 then invalid_arg "Ring.create: capacity must be positive";
  {
    nprocs;
    capacity;
    ops = Array.init nprocs (fun _ -> Array.make capacity 0);
    ts = Array.init nprocs (fun _ -> Array.make capacity 0);
    count = Array.make nprocs 0;
  }

let record t ~pid op =
  let i = t.count.(pid) mod t.capacity in
  t.ops.(pid).(i) <- op_code op;
  t.ts.(pid).(i) <- Int64.to_int (Monotonic_clock.now ());
  t.count.(pid) <- t.count.(pid) + 1

let dropped t =
  Array.fold_left
    (fun acc c -> acc + max 0 (c - t.capacity))
    0 t.count

let flush t =
  let per_pid pid =
    let n = min t.count.(pid) t.capacity in
    let first = t.count.(pid) - n in
    List.init n (fun k ->
        let i = (first + k) mod t.capacity in
        {
          e_t_ns = t.ts.(pid).(i);
          e_pid = pid;
          e_op = op_of_code t.ops.(pid).(i);
        })
  in
  let all = List.concat (List.init t.nprocs per_pid) in
  (* Stable sort on timestamps: records of one pid stay in program
     order even if two stamps tie. *)
  List.stable_sort
    (fun a b ->
      if a.e_t_ns <> b.e_t_ns then compare a.e_t_ns b.e_t_ns
      else compare a.e_pid b.e_pid)
    all

(* Wrap an instance so every acquire/release leaves ring records.
   [Released] is stamped *before* the release call: the successor's
   [Acquired] stamp is taken after its acquire returns, so a
   released-then-acquired pair is ordered released < acquired whenever
   the lock actually changed hands. *)
let wrap t (inst : Lock_intf.instance) =
  {
    inst with
    acquire =
      (fun pid ->
        record t ~pid Acquire_start;
        inst.acquire pid;
        record t ~pid Acquired);
    release =
      (fun pid ->
        record t ~pid Released;
        inst.release pid);
  }
