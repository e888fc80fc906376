type verdict = Flat | Rising | Falling | Insufficient

let verdict_to_string = function
  | Flat -> "flat"
  | Rising -> "rising"
  | Falling -> "falling"
  | Insufficient -> "insufficient"

type drift = {
  metric : string;
  verdict : verdict;
  first : float;
  last : float;
  change_frac : float;
}

(* Window means, not a line fit: a single spike in an otherwise-flat
   series drags a regression slope but barely moves one window's mean,
   and monotonicity across windows is exactly the "keeps getting
   worse" shape drift hunting is after. *)
let drift ?(windows = 4) ?(threshold = 0.10) ~metric series =
  let n = Array.length series in
  if n < 2 * windows then
    { metric; verdict = Insufficient; first = nan; last = nan;
      change_frac = nan }
  else begin
    let means =
      Array.init windows (fun w ->
          let lo = w * n / windows and hi = (w + 1) * n / windows in
          Series.mean (Array.sub series lo (hi - lo)))
    in
    let first = means.(0) and last = means.(windows - 1) in
    let change_frac =
      if Float.abs first <= 1e-12 then
        if Float.abs last <= 1e-12 then 0. else Float.infinity *. (if last > 0. then 1. else -1.)
      else (last -. first) /. Float.abs first
    in
    (* 2% jitter tolerance per step so measurement noise cannot break
       an otherwise clearly monotone staircase. *)
    let tol m = 0.02 *. Float.abs m in
    let monotone cmp =
      let ok = ref true in
      for i = 0 to windows - 2 do
        if not (cmp means.(i + 1) means.(i)) then ok := false
      done;
      !ok
    in
    let up = monotone (fun b a -> b >= a -. tol a) in
    let down = monotone (fun b a -> b <= a +. tol a) in
    let verdict =
      if up && change_frac >= threshold then Rising
      else if down && change_frac <= -.threshold then Falling
      else Flat
    in
    { metric; verdict; first; last; change_frac }
  end

type eta = {
  remaining_s : float;
  lo_s : float;
  hi_s : float;
  rate : float;
  samples : int;
}

let eta ~target ~t ~y =
  match Series.fit ~t ~y with
  | None -> None
  | Some f when f.slope <= 0. -> None
  | Some f ->
      let n = min (Array.length t) (Array.length y) in
      let y_last = y.(n - 1) in
      let gap = Float.max 0. (target -. y_last) in
      let at rate = if rate <= 0. then infinity else gap /. rate in
      Some
        {
          remaining_s = at f.slope;
          lo_s = at (f.slope +. (2. *. f.slope_stderr));
          hi_s = at (f.slope -. (2. *. f.slope_stderr));
          rate = f.slope;
          samples = f.n;
        }

let imbalance ~occ_min ~occ_max =
  let n = min (Array.length occ_min) (Array.length occ_max) in
  if n = 0 then None
  else begin
    let worst = ref 0. in
    for i = 0 to n - 1 do
      let r = occ_max.(i) /. Float.max 1. occ_min.(i) in
      if r > !worst then worst := r
    done;
    Some !worst
  end
