type t = {
  capacity : int;
  ring : Flight.sample option array;
  mutable next_seq : int;
  mutable n_dropped : int;
  born : float;
  sink : Telemetry.Sink.t option;
  mutable sampler : Domain.id Domain.t option;
  mutable poll : (unit -> (string * float) list) option;
  stopping : bool Atomic.t;
  mutable stopped : bool;
  interval : float Atomic.t;
  mutex : Mutex.t;
}

let create ?(capacity = 4096) ?path () =
  let sink = Option.map (Telemetry.Sink.jsonl Telemetry.Record.Flight) path in
  {
    capacity = max 1 capacity;
    ring = Array.make (max 1 capacity) None;
    next_seq = 0;
    n_dropped = 0;
    born = Telemetry.Clock.now_s ();
    sink;
    sampler = None;
    poll = None;
    stopping = Atomic.make false;
    stopped = false;
    interval = Atomic.make 0.25;
    mutex = Mutex.create ();
  }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let record_locked t values =
  if not t.stopped then begin
    let s =
      Flight.sample ~seq:t.next_seq
        ~at_s:(Telemetry.Clock.now_s () -. t.born)
        values
    in
    let slot = t.next_seq mod t.capacity in
    if t.ring.(slot) <> None then t.n_dropped <- t.n_dropped + 1;
    t.ring.(slot) <- Some s;
    t.next_seq <- t.next_seq + 1;
    Option.iter
      (fun (sink : Telemetry.Sink.t) ->
        sink.emit
          (Telemetry.Sink.event ~kind:"flight" ~name:"recorder"
             (Flight.sample_fields s)))
      t.sink
  end

let record t values = locked t (fun () -> record_locked t values)

let start_sampler ?(interval_s = 0.25) t ~poll =
  locked t (fun () ->
      if t.sampler <> None then
        invalid_arg "Recorder.start_sampler: sampler already running";
      if t.stopped then invalid_arg "Recorder.start_sampler: stopped";
      Atomic.set t.interval interval_s;
      t.poll <- Some poll);
  let d =
    Domain.spawn (fun () ->
        (* Sleep in short slices so stop is honoured promptly even at
           multi-second cadences. *)
        let rec sleep_until deadline =
          if not (Atomic.get t.stopping) then begin
            let dt = deadline -. Telemetry.Clock.now_s () in
            if dt > 0. then begin
              Unix.sleepf (Float.min dt 0.02);
              sleep_until deadline
            end
          end
        in
        let rec loop () =
          if not (Atomic.get t.stopping) then begin
            let deadline =
              Telemetry.Clock.now_s () +. Atomic.get t.interval
            in
            record t (poll ());
            sleep_until deadline;
            loop ()
          end
        in
        loop ();
        Domain.self ())
  in
  locked t (fun () -> t.sampler <- Some d)

let stop t =
  (* Take the pieces under the lock, then join outside it: the sampler
     domain calls [record], which needs the same mutex. *)
  Atomic.set t.stopping true;
  let sampler, poll =
    locked t (fun () ->
        let s = t.sampler and p = t.poll in
        t.sampler <- None;
        (s, p))
  in
  (match sampler with Some d -> ignore (Domain.join d) | None -> ());
  locked t (fun () ->
      if not t.stopped then begin
        (* One last sample so short runs always record a final state. *)
        (match poll with
        | Some poll -> ( try record_locked t (poll ()) with _ -> ())
        | None -> ());
        t.stopped <- true;
        Option.iter (fun (sink : Telemetry.Sink.t) -> sink.close ()) t.sink
      end)

let samples t =
  locked t (fun () ->
      let n = min t.next_seq t.capacity in
      let first = t.next_seq - n in
      List.init n (fun i ->
          match t.ring.((first + i) mod t.capacity) with
          | Some s -> s
          | None -> assert false))

let dropped t = locked t (fun () -> t.n_dropped)

let of_metrics registry =
  List.concat_map
    (fun (name, v) ->
      match (v : Telemetry.Metrics.value) with
      | Telemetry.Metrics.Counter c -> [ (name, float_of_int c) ]
      | Telemetry.Metrics.Gauge g -> [ (name, g) ]
      | Telemetry.Metrics.Histogram h ->
          if h.count = 0 then []
          else
            [
              (name ^ ".count", float_of_int h.count);
              (name ^ ".p50", h.p50);
              (name ^ ".p99", h.p99);
              (name ^ ".p999", h.p999);
            ])
    (Telemetry.Metrics.snapshot registry)
