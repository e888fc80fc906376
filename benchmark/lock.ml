(* The runtime-lock workload: Core.Bakery_pp_lock driven the two ways
   its callers use it.

   Phase A is uncontended: one domain, a lock sized for N=8 with
   M=4096, acquire + critical section + release in rounds of fixed
   size — the doorway and release cost with nobody waiting.  Its round
   time is the end-to-end verdict_s.

   Phase B is contended and closed loop: two domains, M=4096, each
   thinks for a seeded Uniform(0,100)-iteration spin, acquires, spins
   50 iterations in the critical section and releases, for fixed-length
   rounds.  Callers of a lock are threads that each wait for [acquire]
   to return, so a closed loop is the honest model; an open loop at a
   fixed rate measured the host scheduler's lateness instead.  Here the
   hand-off and [Registers.Spin] dominate.

   Phase C (traced runs only) is phase B with M=2, so the L1 gate is
   hot: the overflow-pressure regime of the paper's §7.

   Every critical section increments a plain shared counter; a lost
   update would mean two domains were inside at once, so each round
   checks it against the operations completed, and checks that no
   [Overflow_bug] was raised and the peak ticket stayed within M. *)

module Pp = Core.Bakery_pp_lock
module Shape = Workload.Shape

let big_m = 4096
let think = Shape.Uniform (0, 100)
let cs_spin = 50

(* ---- Phase A ------------------------------------------------------- *)

let round_pairs ~tiny = if tiny then 2_000 else 50_000

(* [pairs] uncontended acquire/release pairs; the counter check. *)
let uncontended_round r lock pairs =
  let cs = ref 0 in
  let ok =
    match
      for _ = 1 to pairs do
        Pp.acquire lock 0;
        incr cs;
        Pp.release lock 0
      done
    with
    | () -> !cs = pairs && (Pp.snapshot lock).peak_ticket <= big_m
    | exception Pp.Overflow_bug _ -> false
  in
  Sheet.check r ~units:pairs ok (Printf.sprintf "uncontended round: %d of %d entries" !cs pairs)

let new_uncontended () = Pp.create_lock ~nprocs:8 ~bound:big_m

(* Set-up is creating the lock.  One creation is sub-microsecond, so a
   sample is the mean over a batch of 100. *)
let setup_sample () =
  let t0 = Util.now_ns () in
  for _ = 1 to 100 do
    ignore (Sys.opaque_identity (new_uncontended ()))
  done;
  Util.seconds_since t0 /. 100.0

(* ---- Phases B and C ------------------------------------------------ *)

type contended = {
  lat : int array array;  (* per domain: acquire latencies, ns *)
  ops : int array;  (* per domain, all rounds *)
  mutable round_rates : float list;  (* ops/s of each round *)
  mutable gate_spins : int;
  mutable resets : int;
  mutable peak : int;
}

let lat_cap = 1 lsl 21

let contended () =
  {
    lat = Array.init 2 (fun _ -> Array.make lat_cap 0);
    ops = Array.make 2 0;
    round_rates = [];
    gate_spins = 0;
    resets = 0;
    peak = 0;
  }

(* One closed-loop round of [round_s] seconds on two domains (this one
   and one spawned). *)
let contended_round r c ~m ~round_s rngs =
  let lock = Pp.create_lock ~nprocs:2 ~bound:m in
  let counter = ref 0 in
  let ready = Atomic.make 0 and broken = Atomic.make false in
  let work i () =
    let buf = c.lat.(i) and rng = rngs.(i) in
    let n = ref c.ops.(i) in
    Atomic.incr ready;
    while Atomic.get ready < 2 do
      Domain.cpu_relax ()
    done;
    let deadline = Util.now_ns () + int_of_float (round_s *. 1e9) in
    (try
       let t0 = ref (Util.now_ns ()) in
       while !t0 < deadline && !n < lat_cap && not (Atomic.get broken) do
         ignore (Sys.opaque_identity (Shape.spin (Shape.draw rng think)));
         let start = Util.now_ns () in
         Pp.acquire lock i;
         t0 := Util.now_ns ();
         buf.(!n) <- !t0 - start;
         incr counter;
         ignore (Sys.opaque_identity (Shape.spin cs_spin));
         Pp.release lock i;
         incr n
       done
     with Pp.Overflow_bug _ -> Atomic.set broken true);
    !n - c.ops.(i)
  in
  let t0 = Util.now_ns () in
  let other = Domain.spawn (work 1) in
  let mine = work 0 () in
  let theirs = Domain.join other in
  let dt = Util.seconds_since t0 in
  let done_ = mine + theirs in
  let s = Pp.snapshot lock in
  Sheet.check r ~units:(max 1 done_)
    ((not (Atomic.get broken)) && !counter = done_ && s.peak_ticket <= m)
    (Printf.sprintf "contended round M=%d: counter %d for %d entries, peak %d" m !counter done_
       s.peak_ticket);
  c.ops.(0) <- c.ops.(0) + mine;
  c.ops.(1) <- c.ops.(1) + theirs;
  c.round_rates <- (float_of_int done_ /. dt) :: c.round_rates;
  c.gate_spins <- c.gate_spins + s.gate_spins;
  c.resets <- c.resets + s.resets;
  c.peak <- max c.peak s.peak_ticket

let contended_phase r ~m ~round_s ~budget ~seed =
  let c = contended () in
  let root = Prng.Rng.create seed in
  let rngs = Array.init 2 (fun _ -> Prng.Rng.split root) in
  let rounds = max 1 (int_of_float (budget /. round_s)) in
  for _ = 1 to rounds do
    contended_round r c ~m ~round_s rngs
  done;
  c

let total_ops c = c.ops.(0) + c.ops.(1)

let latencies c = Array.concat [ Array.sub c.lat.(0) 0 c.ops.(0); Array.sub c.lat.(1) 0 c.ops.(1) ]

let round_s ~tiny = if tiny then 0.01 else 1.0

(* ---- End to end ---------------------------------------------------- *)

(* Phase A rounds for half of [seconds], with a set-up sample before each
   so the set-up samples span the phase; then phase B for the other half.

   setup_s is the 10th percentile of the samples, not their median.  On
   a shared host a microsecond-scale operation runs in a fast and a
   ~30% slower state that each last seconds, so a run's median lands in
   whichever state held most of its samples and flips between runs; the
   10th percentile finds the fast state whenever the run saw it. *)
let run r ~tiny ~seconds ~seed =
  let lock = new_uncontended () in
  let pairs = round_pairs ~tiny in
  uncontended_round r lock pairs;
  let rec phase_a times setups total =
    if times <> [] && total >= seconds /. 2.0 then (Array.of_list times, Array.of_list setups)
    else
      let setup = setup_sample () in
      let (), dt = Util.time (fun () -> uncontended_round r lock pairs) in
      phase_a (dt :: times) (setup :: setups) (total +. dt)
  in
  let times, setups = phase_a [] [] 0.0 in
  Sheet.set r "verdict_s" (Util.median times);
  Sheet.set r "setup_s" (Util.quantile 0.1 setups);
  let c = contended_phase r ~m:big_m ~round_s:(round_s ~tiny) ~budget:(seconds /. 2.0) ~seed in
  Sheet.set r "peak_rss_mb" (Util.peak_rss_mb ());
  let lat = latencies c in
  Sheet.note r "uncontended: %d rounds of %d pairs, %.1f ns/pair" (Array.length times) pairs
    (Util.median times /. float_of_int pairs *. 1e9);
  if Array.length lat > 0 then
    Sheet.note r "contended: %d ops, median %.0f ops/s, acquire p99 %.1f us" (total_ops c)
      (Util.median (Array.of_list c.round_rates))
      (float_of_int (Util.quantile 0.99 lat) /. 1e3)

(* ---- Per layer ----------------------------------------------------- *)

let names = [| "pair"; "lock.acquire"; "lock.release" |]
let sample_every = 64

(* Phase A with every [sample_every]-th pair spanned: a root per pair,
   the acquire and the release as its children.  With an empty recorder
   it is the same loop untraced. *)
let traced_round r sp lock pairs ~base =
  let cs = ref 0 in
  for k = 0 to pairs - 1 do
    let on = k land (sample_every - 1) = 0 && Spans.has_room sp 3 and trace = base + k in
    let root = Spans.enter sp ~on ~name:0 ~parent:(-1) ~trace in
    let s = Spans.enter sp ~on ~name:1 ~parent:root ~trace in
    Pp.acquire lock 0;
    Spans.leave sp s;
    incr cs;
    let s = Spans.enter sp ~on ~name:2 ~parent:root ~trace in
    Pp.release lock 0;
    Spans.leave sp s;
    Spans.leave sp root
  done;
  Sheet.check r ~units:pairs (!cs = pairs) "traced uncontended round"

(* Uncontended pair cost of Bakery++ over Bakery at N=8: batches of the
   two interleaved so drift hits both alike; p10 of each. *)
let pp_over_bakery ~pairs ~batches =
  let pp = new_uncontended () and b = Locks.Bakery_lock.create ~nprocs:8 ~bound:big_m in
  let batch acquire release =
    snd
      (Util.time (fun () ->
           for _ = 1 to pairs do
             acquire 0;
             release 0
           done))
  in
  let tp = Array.make batches 0.0 and tb = Array.make batches 0.0 in
  for i = 0 to batches - 1 do
    tp.(i) <- batch (Pp.acquire pp) (Pp.release pp);
    tb.(i) <- batch (Locks.Bakery_lock.acquire b) (Locks.Bakery_lock.release b)
  done;
  Util.quantile 0.1 tp /. Util.quantile 0.1 tb

let run_traced r ~tiny ~seconds ~seed ~trace_out ~workload =
  Sheet.set r "host.calib_s" (Util.host_calib_s ~tiny);
  let pairs = round_pairs ~tiny and rounds = 40 in
  let lock = new_uncontended () in
  let plain = Spans.create ~cap:0 names and sp = Spans.create ~cap:(1 lsl 18) names in
  Spans.calibrate sp;
  traced_round r plain lock pairs ~base:0;
  (* Untraced and traced rounds alternate, so host drift hits both. *)
  let t_plain = ref 0.0 and t_traced = ref 0.0 in
  for i = 0 to rounds - 1 do
    let time sp = snd (Util.time (fun () -> traced_round r sp lock pairs ~base:(i * pairs))) in
    t_plain := !t_plain +. time plain;
    t_traced := !t_traced +. time sp
  done;
  let t_plain = !t_plain and t_traced = !t_traced in
  let a = Spans.analyse sp in
  Sheet.set r "lock.acquire_ns" (Spans.ns_per_call a "lock.acquire");
  Sheet.set r "lock.release_ns" (Spans.ns_per_call a "lock.release");
  Sheet.set r "lock.pp_over_bakery" (pp_over_bakery ~pairs ~batches:rounds);
  let estimate_s = a.root_ns *. float_of_int (rounds * pairs) /. float_of_int (max 1 a.roots) *. 1e-9 in
  Sheet.set r "trace.span_cost_ns" sp.outer_ns;
  Sheet.set r "trace.attributed_share" (Util.ratio a.attributed_ns a.root_ns);
  Sheet.set r "trace.replay_ratio" (estimate_s /. t_plain);
  Sheet.set r "trace.overhead" ((t_traced /. t_plain) -. 1.0);
  let round_s = round_s ~tiny in
  let c = contended_phase r ~m:big_m ~round_s ~budget:(seconds *. 0.6) ~seed in
  let ops = total_ops c in
  let lat = latencies c in
  let us q = float_of_int (Util.quantile q lat) /. 1e3 in
  Sheet.set r "lock.acquire_p50_us" (us 0.5);
  Sheet.set r "lock.acquire_p99_us" (us 0.99);
  Sheet.set r "lock.acquire_p999_us" (us 0.999);
  Sheet.set r "lock.acquire_max_us" (us 1.0);
  Sheet.set r "lock.jain" (Workload.Fairness.jain c.ops);
  Sheet.set r "lock.gate_spins_per_op" (Util.per (float_of_int c.gate_spins) ops);
  Sheet.set r "lock.resets_per_op" (Util.per (float_of_int c.resets) ops);
  Sheet.set r "lock.peak_ticket" (float_of_int c.peak);
  Sheet.set r "lock.contended_ops_per_s" (Util.median (Array.of_list c.round_rates));
  let p = contended_phase r ~m:2 ~round_s:(round_s /. 4.0) ~budget:(seconds *. 0.15) ~seed in
  let pops = total_ops p in
  Sheet.set r "lock.pressure_ops_per_s" (Util.median (Array.of_list p.round_rates));
  Sheet.set r "lock.pressure_gate_spins_per_op" (Util.per (float_of_int p.gate_spins) pops);
  Sheet.set r "lock.pressure_resets_per_op" (Util.per (float_of_int p.resets) pops);
  Sheet.note r "pairs %.3f s untraced, %.3f s traced, %.3f s estimated from spans; %d spans"
    t_plain t_traced estimate_s (Spans.count sp);
  Spans.write sp ~path:trace_out ~workload ~sample_every
