module Shape = Workload.Shape

type result = {
  nprocs : int;
  elapsed : float;
  per_domain : int array;
  total : int;
  ops_per_sec : float;
  lock_stats : (string * int) list;
  space_words : int;
}

(* Spin-barrier so all domains start the measured section together. *)
let wait_barrier barrier =
  Atomic.decr barrier;
  while Atomic.get barrier > 0 do
    Registers.Spin.relax ()
  done

(* Seconds on the monotonic clock, as [Explore.now] reads it: an NTP or
   VM-migration step of the wall clock cannot distort a rate. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let run ?(workload = Shape.contended) ?(duration = 0.3) ?(seed = 7)
    ?(instrument = false) (lock : Locks.Lock_intf.instance) ~nprocs =
  if nprocs < 1 then invalid_arg "Throughput.run: nprocs must be >= 1";
  let lock = if instrument then Locks.Latency.instrument lock else lock in
  let stop = Atomic.make false in
  let barrier = Atomic.make (nprocs + 1) in
  let worker i =
    let rng = Prng.Rng.create (seed + i) in
    let sink = ref 0 in
    let count = ref 0 in
    wait_barrier barrier;
    while not (Atomic.get stop) do
      lock.acquire i;
      sink := !sink + Shape.spin (Shape.draw rng workload.Shape.cs);
      lock.release i;
      incr count;
      sink := !sink + Shape.spin (Shape.draw rng workload.Shape.think)
    done;
    (!count, !sink)
  in
  let domains = Array.init nprocs (fun i -> Domain.spawn (fun () -> worker i)) in
  wait_barrier barrier;
  let t0 = now () in
  Unix.sleepf duration;
  Atomic.set stop true;
  let counts = Array.map (fun d -> fst (Domain.join d)) domains in
  let elapsed = now () -. t0 in
  let total = Array.fold_left ( + ) 0 counts in
  {
    nprocs;
    elapsed;
    per_domain = counts;
    total;
    ops_per_sec = float_of_int total /. elapsed;
    lock_stats = lock.stats ();
    space_words = lock.space_words;
  }

type overflow_result = {
  acquires_before : int;
  seconds_before : float;
  overflowed : bool;
}

let run_until_overflow ?(workload = Shape.contended) ?(max_seconds = 20.0)
    ~make ~recover ~nprocs () =
  if nprocs < 1 then invalid_arg "Throughput.run_until_overflow: nprocs >= 1";
  let lock : Locks.Lock_intf.instance = make () in
  let stop = Atomic.make false in
  let tripped = Atomic.make false in
  let barrier = Atomic.make (nprocs + 1) in
  let deadline_guard t0 = now () -. t0 > max_seconds in
  let worker i =
    let rng = Prng.Rng.create (100 + i) in
    let sink = ref 0 in
    let count = ref 0 in
    wait_barrier barrier;
    let t0 = now () in
    (try
       while not (Atomic.get stop) do
         lock.acquire i;
         sink := !sink + Shape.spin (Shape.draw rng workload.Shape.cs);
         lock.release i;
         incr count;
         if !count land 0xff = 0 && deadline_guard t0 then Atomic.set stop true
       done
     with Registers.Bounded.Overflow _ ->
       Atomic.set tripped true;
       Atomic.set stop true;
       (* Crash semantics: reset own registers so nobody waits on us. *)
       recover i);
    !count
  in
  let domains = Array.init nprocs (fun i -> Domain.spawn (fun () -> worker i)) in
  wait_barrier barrier;
  let t0 = now () in
  let counts = Array.map Domain.join domains in
  let elapsed = now () -. t0 in
  {
    acquires_before = Array.fold_left ( + ) 0 counts;
    seconds_before = elapsed;
    overflowed = Atomic.get tripped;
  }
