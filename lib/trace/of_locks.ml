(* Lock-zoo ring buffers -> unified causal trace.

   The [step] field carries CLOCK_MONOTONIC nanoseconds relative to the
   first record (real time is the only meaningful clock for domain
   runs); causality comes from acquire-observes-previous-release, which
   the ring recorder's stamp ordering guarantees whenever the lock
   actually changed hands (see {!Locks.Ring.wrap}): a hand-over spans
   many nanosecond ticks, so its release and acquired stamps do not
   tie. *)

let trace ~lock ~nprocs (entries : Locks.Ring.entry list) =
  let t0 =
    match entries with [] -> 0 | e :: _ -> e.Locks.Ring.e_t_ns
  in
  let b =
    Causal.create ~source:"locks" ~model:lock ~nprocs ~bound:0
      ~meta:[ ("time_unit", "ns") ]
      ()
  in
  List.iter
    (fun (e : Locks.Ring.entry) ->
      let step = e.e_t_ns - t0 in
      match e.e_op with
      | Locks.Ring.Acquire_start ->
          Causal.push b ~step ~pid:e.e_pid
            (Event.Wait { what = "acquire " ^ lock })
      | Locks.Ring.Acquired ->
          Causal.push b ~step ~pid:e.e_pid (Event.Acquire { lock })
      | Locks.Ring.Released ->
          Causal.push b ~step ~pid:e.e_pid (Event.Release { lock }))
    entries;
  Causal.finish b
