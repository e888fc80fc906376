let check_nonempty xs =
  if Array.length xs = 0 then invalid_arg "Stats: empty sample"

let mean xs =
  check_nonempty xs;
  Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)

let stddev xs =
  let n = Array.length xs in
  if n < 2 then 0.0
  else begin
    let mu = mean xs in
    let ss = Array.fold_left (fun acc x -> acc +. ((x -. mu) ** 2.0)) 0.0 xs in
    sqrt (ss /. float_of_int (n - 1))
  end

let percentile xs p =
  check_nonempty xs;
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of range";
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  let n = Array.length sorted in
  if n = 1 then sorted.(0)
  else begin
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (floor rank) in
    let hi = min (n - 1) (lo + 1) in
    let frac = rank -. float_of_int lo in
    (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(hi) *. frac)
  end

let median xs = percentile xs 50.0

let minimum xs =
  check_nonempty xs;
  Array.fold_left min xs.(0) xs

let maximum xs =
  check_nonempty xs;
  Array.fold_left max xs.(0) xs

let format_si v =
  let magnitude = abs_float v in
  let scaled, suffix =
    if magnitude >= 1e9 then (v /. 1e9, "G")
    else if magnitude >= 1e6 then (v /. 1e6, "M")
    else if magnitude >= 1e3 then (v /. 1e3, "k")
    else (v, "")
  in
  if suffix = "" && abs_float (Float.round v -. v) < 1e-9 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.2f%s" scaled suffix
