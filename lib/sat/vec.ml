type 'a t = { mutable data : 'a array; mutable len : int; dummy : 'a }

let create ~dummy = { data = [||]; len = 0; dummy }

let make ~dummy capacity = { data = Array.make (max 8 capacity) dummy; len = 0; dummy }

(* Capacity is not observable, so a copy keeps only the live prefix
   ([grow] restarts an empty one at 8). *)
let copy v = { v with data = Array.sub v.data 0 v.len }

let length v = v.len

let is_empty v = v.len = 0

let check v i = if i < 0 || i >= v.len then invalid_arg "Vec: index out of range"

let get v i =
  check v i;
  Array.unsafe_get v.data i

let set v i x =
  check v i;
  Array.unsafe_set v.data i x

let unsafe_get v i = Array.unsafe_get v.data i

let unsafe_set v i x = Array.unsafe_set v.data i x

let grow v =
  let data = Array.make (max 8 (2 * Array.length v.data)) v.dummy in
  Array.blit v.data 0 data 0 v.len;
  v.data <- data

let push v x =
  if v.len = Array.length v.data then grow v;
  Array.unsafe_set v.data v.len x;
  v.len <- v.len + 1

let pop v =
  if v.len = 0 then invalid_arg "Vec.pop: empty";
  v.len <- v.len - 1;
  let x = v.data.(v.len) in
  v.data.(v.len) <- v.dummy;
  x

let last v =
  if v.len = 0 then invalid_arg "Vec.last: empty";
  v.data.(v.len - 1)

let clear v =
  Array.fill v.data 0 v.len v.dummy;
  v.len <- 0

let shrink v n =
  if n < 0 || n > v.len then invalid_arg "Vec.shrink";
  Array.fill v.data n (v.len - n) v.dummy;
  v.len <- n

let iter f v =
  for i = 0 to v.len - 1 do
    f (Array.unsafe_get v.data i)
  done

let fold f acc v =
  let acc = ref acc in
  for i = 0 to v.len - 1 do
    acc := f !acc (Array.unsafe_get v.data i)
  done;
  !acc

let to_list v = List.init v.len (fun i -> v.data.(i))

let sort_in_place cmp v =
  let live = Array.sub v.data 0 v.len in
  Array.sort cmp live;
  Array.blit live 0 v.data 0 v.len

let filter_in_place p v =
  let j = ref 0 in
  for i = 0 to v.len - 1 do
    let x = v.data.(i) in
    if p x then begin
      v.data.(!j) <- x;
      incr j
    end
  done;
  let old_len = v.len in
  v.len <- !j;
  Array.fill v.data v.len (old_len - v.len) v.dummy
