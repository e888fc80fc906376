type counter = int Atomic.t

type gauge = float Atomic.t

type histogram = {
  bounds : float array;  (* strictly increasing upper bounds *)
  bucket_counts : int Atomic.t array;  (* length bounds + 1: last = overflow *)
  h_count : int Atomic.t;
  h_sum : float Atomic.t;
  h_min : float Atomic.t;  (* nan when empty *)
  h_max : float Atomic.t;
}

type instrument = C of counter | G of gauge | H of histogram

type t = { mutex : Mutex.t; instruments : (string, instrument) Hashtbl.t }

let create () = { mutex = Mutex.create (); instruments = Hashtbl.create 32 }

let register t name make match_existing =
  Mutex.lock t.mutex;
  let r =
    match Hashtbl.find_opt t.instruments name with
    | Some existing -> (
        match match_existing existing with
        | Some handle -> Ok handle
        | None -> Error name)
    | None ->
        let handle, instrument = make () in
        Hashtbl.add t.instruments name instrument;
        Ok handle
  in
  Mutex.unlock t.mutex;
  match r with
  | Ok handle -> handle
  | Error name ->
      invalid_arg
        (Printf.sprintf "Telemetry.Metrics: %S already registered with a \
                         different instrument kind" name)

(* ------------------------------------------------------------ counters *)

let counter t name =
  register t name
    (fun () ->
      let c = Atomic.make 0 in
      (c, C c))
    (function C c -> Some c | _ -> None)

let incr c = Atomic.incr c
let add c n = ignore (Atomic.fetch_and_add c n)
let counter_value c = Atomic.get c

(* -------------------------------------------------------------- gauges *)

let gauge t name =
  register t name
    (fun () ->
      let g = Atomic.make 0.0 in
      (g, G g))
    (function G g -> Some g | _ -> None)

let set g v = Atomic.set g v
let gauge_value g = Atomic.get g

(* ---------------------------------------------------------- histograms *)

let default_buckets = Quantile.default_buckets

let make_histogram bounds =
  let n = Array.length bounds in
  if n = 0 then invalid_arg "Telemetry.Metrics.histogram: empty buckets";
  for i = 1 to n - 1 do
    if bounds.(i) <= bounds.(i - 1) then
      invalid_arg "Telemetry.Metrics.histogram: buckets must be increasing"
  done;
  {
    bounds = Array.copy bounds;
    bucket_counts = Array.init (n + 1) (fun _ -> Atomic.make 0);
    h_count = Atomic.make 0;
    h_sum = Atomic.make 0.0;
    h_min = Atomic.make nan;
    h_max = Atomic.make nan;
  }

let histogram t ?(buckets = default_buckets) name =
  register t name
    (fun () ->
      let h = make_histogram buckets in
      (h, H h))
    (function H h -> Some h | _ -> None)

(* Atomic float fold via CAS: contention on a histogram is rare (waves,
   acquires), so the retry loop is effectively free. *)
let rec fold_float cell f v =
  let prev = Atomic.get cell in
  let next = f prev v in
  if not (Atomic.compare_and_set cell prev next) then fold_float cell f v

let observe h v =
  let n = Array.length h.bounds in
  (* Binary search for the first upper bound >= v. *)
  let rec find lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if v <= h.bounds.(mid) then find lo mid else find (mid + 1) hi
  in
  let bucket = find 0 n in
  Atomic.incr h.bucket_counts.(bucket);
  Atomic.incr h.h_count;
  fold_float h.h_sum (fun a b -> a +. b) v;
  fold_float h.h_min (fun a b -> if Float.is_nan a || b < a then b else a) v;
  fold_float h.h_max (fun a b -> if Float.is_nan a || b > a then b else a) v

(* The estimator itself lives in {!Quantile}; this only snapshots the
   atomic cells into the plain arrays it expects. *)
let percentile h q =
  Quantile.estimate ~bounds:h.bounds
    ~counts:(Array.map Atomic.get h.bucket_counts)
    ~max:(Atomic.get h.h_max) ~q

(* ------------------------------------------------------------------ GC *)

(* [Gc.quick_stat] is the cheap variant: no heap traversal, safe to call
   from a sampling loop.  Its live/free word fields are zero by design,
   so the gauge set sticks to what it actually measures: collection
   counts and the major-heap size.  The process's resident memory comes
   from the kernel, [VmRSS] now and [VmHWM] its peak, and covers what
   the heap size cannot: memory outside the OCaml heap, and heap pages
   the runtime has freed but not returned. *)

let words_to_mb w = float_of_int w *. float_of_int (Sys.word_size / 8) /. 1e6

(* [VmRSS] and [VmHWM] of /proc/self/status in MB, or [None] where that
   file cannot be read or lacks them (not Linux). *)
let read_resident () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> None
  | status -> (
      (* A line reads "VmRSS:\t  41684 kB". *)
      let kib key =
        List.find_map
          (fun line ->
            match String.split_on_char ':' line with
            | [ k; v ] when k = key ->
                int_of_string_opt
                  (List.hd (String.split_on_char ' ' (String.trim v)))
            | _ -> None)
          (String.split_on_char '\n' status)
      in
      let mb kib = float_of_int kib *. 1024. /. 1e6 in
      match (kib "VmRSS", kib "VmHWM") with
      | Some rss, Some hwm -> Some (mb rss, mb hwm)
      | _ -> None)

let gc_fields () =
  let s = Gc.quick_stat () in
  [
    ("gc_minor", Json.Num (float_of_int s.Gc.minor_collections));
    ("gc_major", Json.Num (float_of_int s.Gc.major_collections));
    ("gc_heap_mb", Json.Num (words_to_mb s.Gc.heap_words));
  ]
  @
  match read_resident () with
  | None -> []
  | Some (rss, hwm) ->
      [ ("gc_vm_rss_mb", Json.Num rss); ("gc_vm_hwm_mb", Json.Num hwm) ]

let observe_gc ?(resident = true) t =
  let s = Gc.quick_stat () in
  set (gauge t "gc.minor_collections") (float_of_int s.Gc.minor_collections);
  set (gauge t "gc.major_collections") (float_of_int s.Gc.major_collections);
  set (gauge t "gc.heap_mb") (words_to_mb s.Gc.heap_words);
  if resident then
    match read_resident () with
    | None -> ()
    | Some (rss, hwm) ->
        set (gauge t "gc.vm_rss_mb") rss;
        set (gauge t "gc.vm_hwm_mb") hwm

(* ----------------------------------------------------------- snapshots *)

type histogram_snapshot = {
  count : int;
  sum : float;
  min : float;
  max : float;
  p50 : float;
  p95 : float;
  p99 : float;
  p999 : float;
  buckets : (float * int) array;
}

type value =
  | Counter of int
  | Gauge of float
  | Histogram of histogram_snapshot

let snapshot_histogram h =
  let n = Array.length h.bounds in
  {
    count = Atomic.get h.h_count;
    sum = Atomic.get h.h_sum;
    min = Atomic.get h.h_min;
    max = Atomic.get h.h_max;
    p50 = percentile h 0.50;
    p95 = percentile h 0.95;
    p99 = percentile h 0.99;
    p999 = percentile h 0.999;
    buckets =
      Array.init (n + 1) (fun i ->
          ( (if i < n then h.bounds.(i) else infinity),
            Atomic.get h.bucket_counts.(i) ));
  }

let snapshot t =
  Mutex.lock t.mutex;
  let entries =
    Hashtbl.fold
      (fun name instrument acc ->
        let v =
          match instrument with
          | C c -> Counter (Atomic.get c)
          | G g -> Gauge (Atomic.get g)
          | H h -> Histogram (snapshot_histogram h)
        in
        (name, v) :: acc)
      t.instruments []
  in
  Mutex.unlock t.mutex;
  List.sort (fun (a, _) (b, _) -> compare a b) entries

let value_to_json = function
  | Counter n -> Json.Num (float_of_int n)
  | Gauge v -> Json.Num v
  | Histogram s ->
      Json.Obj
        [
          ("count", Json.Num (float_of_int s.count));
          ("sum", Json.Num s.sum);
          ("min", Json.Num s.min);
          ("max", Json.Num s.max);
          ("p50", Json.Num s.p50);
          ("p95", Json.Num s.p95);
          ("p99", Json.Num s.p99);
          ("p999", Json.Num s.p999);
          ( "buckets",
            Json.Arr
              (Array.to_list s.buckets
              |> List.filter (fun (_, c) -> c > 0)
              |> List.map (fun (ub, c) ->
                     Json.Obj
                       [
                         ("le", Json.Num ub); ("count", Json.Num (float_of_int c));
                       ])) );
        ]
