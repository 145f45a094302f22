(* The 64-bit state lives unboxed in an 8-byte buffer: a
   [mutable state : int64] field would box a fresh int64 on every draw,
   and the solver draws on every decision. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state s =
  let g = Bytes.create 8 in
  Bytes.set_int64_le g 0 s;
  g

let create seed = of_state (Int64.of_int seed)

let copy = Bytes.copy

(* SplitMix64 finalizer (Steele et al., "Fast splittable pseudorandom number
   generators"). *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Inlined into every drawing function so the int64 never leaves a
   register. *)
let[@inline] next g =
  let s = Int64.add (Bytes.get_int64_le g 0) golden_gamma in
  Bytes.set_int64_le g 0 s;
  mix s

let bits64 g = next g

let split g = of_state (mix (next g))

let bool g = Int64.to_int (next g) land 1 = 1

let int g bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* Rejection sampling on the top bits to avoid modulo bias. *)
  let v = ref (-1) in
  while !v < 0 do
    let r = Int64.to_int (Int64.shift_right_logical (next g) 1) in
    let m = r mod bound in
    if r - m + (bound - 1) >= 0 then v := m
  done;
  !v

let[@inline] unit_float g =
  Int64.to_float (Int64.shift_right_logical (next g) 11) /. 9007199254740992.0

let float g bound = bound *. unit_float g

let chance g p = unit_float g < p

let shuffle g a =
  for i = Array.length a - 1 downto 1 do
    let j = int g (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let choose g a =
  if Array.length a = 0 then invalid_arg "Prng.choose: empty array";
  a.(int g (Array.length a))

let sample g ~k ~n =
  if k < 0 || k > n then invalid_arg "Prng.sample: need 0 <= k <= n";
  (* Floyd's algorithm: k iterations, set-based. *)
  let module IS = Set.Make (Int) in
  let rec loop j acc =
    if j > n then acc
    else
      let r = int g j in
      let acc = if IS.mem r acc then IS.add (j - 1) acc else IS.add r acc in
      loop (j + 1) acc
  in
  if k = 0 then [] else IS.elements (loop (n - k + 1) IS.empty)
