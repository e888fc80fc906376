(* Unit suffixes accepted by value flags like [--duration 30s] and
   [--rate 50k].  Case matters: [M] is mega, [m] would be ambiguous
   (milli? minutes?) and is rejected outright. *)
let suffixes =
  [
    ("", 1.0); ("s", 1.0); ("ms", 1e-3); ("us", 1e-6); ("k", 1e3); ("K", 1e3);
    ("M", 1e6); ("G", 1e9);
  ]

let suffix_help = "s, ms, us, k, K, M or G"

let parse_suffixed ?(docv = "VALUE") ~flag raw =
  let err fmt = Printf.ksprintf (fun m -> Error (flag ^ ": " ^ m)) fmt in
  let n = String.length raw in
  let is_mantissa c =
    (c >= '0' && c <= '9') || c = '.' || c = '-' || c = '+' || c = 'e'
  in
  (* The mantissa is the longest numeric-looking prefix; whatever
     follows must be a known suffix.  "e" stays in the mantissa so
     scientific notation ("1e6") parses; a dangling exponent fails
     float_of_string below. *)
  let split = ref n in
  (try
     for i = 0 to n - 1 do
       if not (is_mantissa raw.[i]) then begin
         split := i;
         raise Exit
       end
     done
   with Exit -> ());
  let mantissa = String.sub raw 0 !split in
  let suffix = String.sub raw !split (n - !split) in
  match float_of_string_opt mantissa with
  | None | Some _ when mantissa = "" ->
      err "malformed %s %S (expected a number with an optional %s suffix)"
        docv raw suffix_help
  | None ->
      err "malformed %s %S (cannot read %S as a number)" docv raw mantissa
  | Some v -> (
      match List.assoc_opt suffix suffixes with
      | None ->
          err "unknown %s suffix %S in %S (known: %s)" docv suffix raw
            suffix_help
      | Some scale ->
          let v = v *. scale in
          if v < 0.0 then err "%s %S is negative" docv raw else Ok v)

let parse_enum ?(docv = "VALUE") ~flag ~values raw =
  match List.assoc_opt raw values with
  | Some v -> Ok v
  | None ->
      Error
        (Printf.sprintf "%s: unknown %s %S (valid: %s)" flag docv raw
           (String.concat "|" (List.map fst values)))
