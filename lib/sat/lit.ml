type t = int

let pos v =
  if v < 0 then invalid_arg "Lit.pos: negative variable";
  v lsl 1

let neg v =
  if v < 0 then invalid_arg "Lit.neg: negative variable";
  (v lsl 1) lor 1

let make v phase = if phase then pos v else neg v

let var l = l lsr 1

let is_pos l = l land 1 = 0

let negate l = l lxor 1

let of_dimacs d =
  if d = 0 then invalid_arg "Lit.of_dimacs: zero";
  if d > 0 then pos (d - 1) else neg (-d - 1)

let sort_prefix a n =
  if n <= 32 then
    for i = 1 to n - 1 do
      let x = a.(i) in
      let j = ref i in
      while !j > 0 && a.(!j - 1) > x do
        a.(!j) <- a.(!j - 1);
        decr j
      done;
      a.(!j) <- x
    done
  else begin
    let sorted = Array.sub a 0 n in
    Array.sort Int.compare sorted;
    Array.blit sorted 0 a 0 n
  end

let to_dimacs l = if is_pos l then var l + 1 else -(var l + 1)

let pp fmt l = Format.pp_print_int fmt (to_dimacs l)
