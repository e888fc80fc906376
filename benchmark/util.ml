(* Clock, statistics and host probes shared by the workloads. *)

(* CLOCK_MONOTONIC in nanoseconds; allocation-free. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

let seconds_since t0 = float_of_int (now_ns () - t0) *. 1e-9

let time f =
  let t0 = now_ns () in
  let r = f () in
  (r, seconds_since t0)

(* Nearest-rank quantile of a non-empty array, the rank
   {!Telemetry.Quantile.rank} resolves every histogram in the repo to. *)
let quantile q a =
  let s = Array.copy a in
  Array.sort compare s;
  s.(Telemetry.Quantile.rank ~q ~count:(Array.length s) - 1)

let median a = quantile 0.5 a
let ratio a b = if b = 0.0 then 0.0 else a /. b
let per a n = if n = 0 then 0.0 else a /. float_of_int n

(* Run this executable again with [args]: its non-empty stdout lines,
   and whether it exited with 0. *)
let rerun args =
  let ic =
    Unix.open_process_args_in Sys.executable_name (Array.of_list (Sys.executable_name :: args))
  in
  let lines = In_channel.input_all ic |> String.split_on_char '\n' |> List.filter (( <> ) "") in
  (lines, Unix.close_process_in ic = Unix.WEXITED 0)

(* Peak resident set of this process (VmHWM), in MiB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
    | _ -> scan ()
    | exception End_of_file -> 0
  in
  let kb = Fun.protect ~finally:(fun () -> close_in ic) scan in
  float_of_int kb /. 1024.0

(* A fixed integer kernel, timed to describe the host's speed on the
   day: a later run whose numbers moved along with this one saw a
   slower or faster machine, not different code.  Median of five. *)
let host_calib_s ~tiny =
  let iters = if tiny then 200_000 else 20_000_000 in
  median
    (Array.init 5 (fun _ ->
         snd (time (fun () -> ignore (Sys.opaque_identity (Workload.Shape.spin iters))))))
