(* A persistent pool of worker domains.

   [Par_explore] used to pay a [Domain.spawn]/[Domain.join] pair per
   worker per BFS wave — tens of microseconds of setup for waves whose
   useful work is often shorter than that.  Here the domains are spawned
   once, parked on a condition variable between waves, and handed each
   wave as an indexed job; they are joined once at [shutdown].

   Synchronization is a plain mutex/condvar barrier: [run] publishes a
   job under the lock and bumps an epoch counter; each worker runs the
   job for its own index exactly once per epoch and decrements the
   outstanding count; [run] returns when the count reaches zero.  All
   job data is published under the mutex, so workers need no atomics of
   their own. *)

type t = {
  nworkers : int;
  mutex : Mutex.t;
  work_ready : Condition.t;
  work_done : Condition.t;
  mutable job : (int -> unit) option;
  mutable epoch : int;
  mutable outstanding : int;
  mutable failure : exn option;
  mutable stopping : bool;
  mutable domains : unit Domain.t list;
  busy_ns : int Atomic.t array;
      (* per worker, cumulative nanoseconds spent inside jobs, timed by
         CLOCK_MONOTONIC so a wall-clock step cannot skew them — read by
         telemetry to report pool utilization *)
  jobs_run : int Atomic.t array;
}

let size p = p.nworkers

let worker p w =
  let seen = ref 0 in
  Mutex.lock p.mutex;
  let running = ref true in
  while !running do
    if p.stopping then running := false
    else if p.epoch <> !seen then begin
      seen := p.epoch;
      let job = match p.job with Some j -> j | None -> assert false in
      Mutex.unlock p.mutex;
      let t0 = Monotonic_clock.now () in
      let outcome = match job w with () -> None | exception e -> Some e in
      let spent_ns = Int64.to_int (Int64.sub (Monotonic_clock.now ()) t0) in
      ignore (Atomic.fetch_and_add p.busy_ns.(w) spent_ns);
      Atomic.incr p.jobs_run.(w);
      Mutex.lock p.mutex;
      (match (outcome, p.failure) with
      | Some e, None -> p.failure <- Some e
      | _ -> ());
      p.outstanding <- p.outstanding - 1;
      if p.outstanding = 0 then Condition.broadcast p.work_done
    end
    else Condition.wait p.work_ready p.mutex
  done;
  Mutex.unlock p.mutex

let create nworkers =
  if nworkers < 1 then invalid_arg "Pool.create: nworkers must be >= 1";
  let p =
    {
      nworkers;
      mutex = Mutex.create ();
      work_ready = Condition.create ();
      work_done = Condition.create ();
      job = None;
      epoch = 0;
      outstanding = 0;
      failure = None;
      stopping = false;
      domains = [];
      busy_ns = Array.init nworkers (fun _ -> Atomic.make 0);
      jobs_run = Array.init nworkers (fun _ -> Atomic.make 0);
    }
  in
  p.domains <- List.init nworkers (fun w -> Domain.spawn (fun () -> worker p w));
  p

let run p job =
  Mutex.lock p.mutex;
  if p.stopping then begin
    Mutex.unlock p.mutex;
    invalid_arg "Pool.run: pool is shut down"
  end;
  (match p.job with
  | Some _ ->
      Mutex.unlock p.mutex;
      invalid_arg "Pool.run: pool is busy (run is not reentrant)"
  | None -> ());
  p.failure <- None;
  p.job <- Some job;
  p.epoch <- p.epoch + 1;
  p.outstanding <- p.nworkers;
  Condition.broadcast p.work_ready;
  while p.outstanding > 0 do
    Condition.wait p.work_done p.mutex
  done;
  p.job <- None;
  let failure = p.failure in
  p.failure <- None;
  Mutex.unlock p.mutex;
  match failure with Some e -> raise e | None -> ()

let shutdown p =
  Mutex.lock p.mutex;
  if p.stopping then Mutex.unlock p.mutex
  else begin
    p.stopping <- true;
    Condition.broadcast p.work_ready;
    Mutex.unlock p.mutex;
    List.iter Domain.join p.domains;
    p.domains <- []
  end

let busy_ns p = Array.map Atomic.get p.busy_ns
let jobs_run p = Array.map Atomic.get p.jobs_run

let with_pool nworkers f =
  let p = create nworkers in
  Fun.protect ~finally:(fun () -> shutdown p) (fun () -> f p)
