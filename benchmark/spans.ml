(* Span recorder for traced runs.

   Spans live in one preallocated int buffer (five words each: parent,
   name, trace id, start, end; the span id is its index), so recording
   one costs two clock reads and five stores and never allocates.  A
   child is always opened after its parent, so its index is larger —
   the analysis below relies on that to fold children into parents in
   one backward pass.

   Every span's measured duration carries some of the recorder's own
   cost, and every child costs its parent more than the child's own
   window shows.  {!calibrate} measures both on empty spans, and
   {!analyse} subtracts them: without that the sampled totals overstate
   the real time by a large fraction when spans are a few hundred ns. *)

let words = 5

type t = {
  buf : int array;
  cap : int;
  mutable n : int;
  names : string array;
  mutable inner_ns : float;  (* an empty span's measured duration *)
  mutable outer_ns : float;  (* what one span costs the code around it *)
}

let create ~cap names =
  { buf = Array.make (cap * words) 0; cap; n = 0; names; inner_ns = 0.0; outer_ns = 0.0 }

let count t = t.n

(* Room for [k] more spans.  Callers decide once per sampled unit, so a
   unit is either traced completely or not at all. *)
let has_room t k = t.n + k <= t.cap

(* [on:false] records nothing and returns -1, which {!leave} ignores, so
   one code path serves sampled and unsampled units alike. *)
let[@inline] enter t ~on ~name ~parent ~trace =
  if not on then -1
  else begin
    let i = t.n in
    t.n <- i + 1;
    let b = i * words in
    Array.unsafe_set t.buf b parent;
    Array.unsafe_set t.buf (b + 1) name;
    Array.unsafe_set t.buf (b + 2) trace;
    Array.unsafe_set t.buf (b + 3) (Util.now_ns ());
    i
  end

let[@inline] leave t i = if i >= 0 then Array.unsafe_set t.buf ((i * words) + 4) (Util.now_ns ())

let parent t i = t.buf.(i * words)
let name t i = t.buf.((i * words) + 1)
let raw_ns t i = t.buf.((i * words) + 4) - t.buf.((i * words) + 3)

let calibrate t =
  let k = 20_000 in
  let once () =
    t.n <- 0;
    let t0 = Util.now_ns () in
    for _ = 1 to k do
      leave t (enter t ~on:true ~name:0 ~parent:(-1) ~trace:0)
    done;
    let outer = float_of_int (Util.now_ns () - t0) /. float_of_int k in
    let inner = ref 0 in
    for i = 0 to k - 1 do
      inner := !inner + raw_ns t i
    done;
    (float_of_int !inner /. float_of_int k, outer)
  in
  let runs = Array.init 7 (fun _ -> once ()) in
  t.inner_ns <- Util.median (Array.map fst runs);
  t.outer_ns <- Util.median (Array.map snd runs);
  t.n <- 0

type layer = { self_ns : float; calls : int }

type analysis = {
  layers : (string * layer) list;  (* by name, roots included *)
  roots : int;
  root_ns : float;  (* sum of corrected root totals *)
  attributed_ns : float;  (* corrected self time of non-root spans *)
}

(* Self time of a span = its duration minus what its children cover,
   with the recorder's cost taken out:
     self = raw - sum(raw children) - nchildren * (outer - inner) - inner.
   Summed over a tree this leaves raw(root) - inner - descendants * outer,
   the root's duration as if no span inside it had been recorded. *)
let analyse t =
  let n = t.n in
  let child_raw = Array.make n 0 and nchild = Array.make n 0 in
  for i = n - 1 downto 0 do
    let p = parent t i in
    if p >= 0 then begin
      child_raw.(p) <- child_raw.(p) + raw_ns t i;
      nchild.(p) <- nchild.(p) + 1
    end
  done;
  let nn = Array.length t.names in
  let self = Array.make nn 0.0 and calls = Array.make nn 0 in
  let roots = ref 0 and root_ns = ref 0.0 and attributed = ref 0.0 in
  for i = 0 to n - 1 do
    let s =
      float_of_int (raw_ns t i - child_raw.(i))
      -. (float_of_int nchild.(i) *. (t.outer_ns -. t.inner_ns))
      -. t.inner_ns
    in
    let k = name t i in
    self.(k) <- self.(k) +. s;
    calls.(k) <- calls.(k) + 1;
    if parent t i < 0 then incr roots else attributed := !attributed +. s;
    root_ns := !root_ns +. s
  done;
  {
    layers =
      List.init nn (fun k -> (t.names.(k), { self_ns = self.(k); calls = calls.(k) }));
    roots = !roots;
    root_ns = !root_ns;
    attributed_ns = !attributed;
  }

let layer a name =
  match List.assoc_opt name a.layers with
  | Some l -> l
  | None -> invalid_arg ("Spans.layer: unknown span name " ^ name)

let ns_per_call a name =
  let l = layer a name in
  Util.per l.self_ns l.calls

(* Self time of [name] per sampled root (per traced state or pair). *)
let ns_per_root a name = Util.per (layer a name).self_ns a.roots

(* JSONL: one header line with the calibration, then one line per span.
   Times are ns from the first span's start. *)
let write t ~path ~workload ~sample_every =
  let dir = Filename.dirname path in
  if dir <> "." && not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let oc = open_out path in
  let base = if t.n > 0 then t.buf.(3) else 0 in
  Printf.fprintf oc
    "{\"kind\":\"span_header\",\"workload\":\"%s\",\"spans\":%d,\"sample_every\":%d,\"span_inner_ns\":%.3f,\"span_cost_ns\":%.3f}\n"
    workload t.n sample_every t.inner_ns t.outer_ns;
  for i = 0 to t.n - 1 do
    let b = i * words in
    Printf.fprintf oc
      "{\"id\":%d,\"parent\":%d,\"name\":\"%s\",\"trace\":%d,\"start_ns\":%d,\"end_ns\":%d}\n"
      i t.buf.(b) t.names.(t.buf.(b + 1)) t.buf.(b + 2) (t.buf.(b + 3) - base)
      (t.buf.(b + 4) - base)
  done;
  close_out oc
