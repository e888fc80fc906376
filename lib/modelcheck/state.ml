type layout = {
  env : Mxlang.Eval.env;
  nprocs : int;
  shared_len : int;
  pcs_off : int;
  locals_off : int;
  locals_per : int;
  words : int;
}

type packed = int array

let layout (env : Mxlang.Eval.env) =
  let nprocs = env.nprocs in
  let shared_len = env.shared_cells in
  let locals_per = env.program.nlocals in
  {
    env;
    nprocs;
    shared_len;
    pcs_off = shared_len;
    locals_off = shared_len + nprocs;
    locals_per;
    words = shared_len + nprocs + (nprocs * locals_per);
  }

let siblings l =
  let g = Array.make l.words l.pcs_off and offs = l.env.offsets in
  (* a shared cell's group is the last variable offset at or below it *)
  let v = ref 0 in
  for c = 0 to l.shared_len - 1 do
    while !v + 1 < Array.length offs && offs.(!v + 1) <= c do
      incr v
    done;
    g.(c) <- offs.(!v)
  done;
  for f = l.locals_off to l.words - 1 do
    g.(f) <- l.locals_off + ((f - l.locals_off) mod l.locals_per)
  done;
  g

let initial l =
  let s = Array.make l.words 0 in
  Array.blit (Mxlang.Eval.init_shared l.env) 0 s 0 l.shared_len;
  Array.fill s l.pcs_off l.nprocs l.env.program.init_pc;
  let il = Mxlang.Eval.init_locals l.env in
  for p = 0 to l.nprocs - 1 do
    Array.blit il 0 s (l.locals_off + (p * l.locals_per)) l.locals_per
  done;
  s

let pc l s i = s.(l.pcs_off + i)
let set_pc l s i v = s.(l.pcs_off + i) <- v
let shared_part l s = Array.sub s 0 l.shared_len
let locals_part l s i = Array.sub s (l.locals_off + (i * l.locals_per)) l.locals_per

let write_back l s ~shared ~locals ~pid =
  Array.blit shared 0 s 0 l.shared_len;
  Array.blit locals 0 s (l.locals_off + (pid * l.locals_per)) l.locals_per

let shared_cell l s v i = s.(Mxlang.Eval.offset l.env v + i)

let hash (s : packed) =
  let h = ref 0x3bf29ce484222325 in
  for i = 0 to Array.length s - 1 do
    (* Mix all 63 bits of each word through FNV-1a, one byte at a time
       being unnecessary for ints: a full-word xor-multiply mixes well. *)
    h := (!h lxor Array.unsafe_get s i) * 0x100000001b3
  done;
  !h land max_int

let equal (a : packed) (b : packed) =
  let n = Array.length a in
  n = Array.length b
  &&
  let rec loop i = i >= n || (a.(i) = b.(i) && loop (i + 1)) in
  loop 0

let pp l ppf (s : packed) =
  let p = l.env.program in
  Format.fprintf ppf "@[<v>";
  Format.fprintf ppf "pc: %s@,"
    (String.concat ", "
       (List.init l.nprocs (fun i ->
            Printf.sprintf "%d@%s" i p.steps.(pc l s i).step_name)));
  for v = 0 to p.nvars - 1 do
    let n = Mxlang.Ast.cells_of ~nprocs:l.nprocs p v in
    let o = Mxlang.Eval.offset l.env v in
    Format.fprintf ppf "%s = [%s]@," p.var_names.(v)
      (String.concat "; "
         (List.init n (fun i -> string_of_int s.(o + i))))
  done;
  if l.locals_per > 0 then
    for i = 0 to l.nprocs - 1 do
      Format.fprintf ppf "locals(%d) = [%s]@," i
        (String.concat "; "
           (List.init l.locals_per (fun k ->
                Printf.sprintf "%s=%d" p.local_names.(k)
                  s.(l.locals_off + (i * l.locals_per) + k))))
    done;
  Format.fprintf ppf "@]"
