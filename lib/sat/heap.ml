(* Comparisons read [score] directly: a float-array load compares
   unboxed, where a [score : int -> float] closure would box both operands
   of every comparison. *)
type t = {
  mutable score : float array;
  mutable data : int array;
  mutable len : int;
  mutable pos : int array;  (* var -> index in data, or -1 *)
}

let create score = { score; data = Array.make 64 0; len = 0; pos = Array.make 64 (-1) }

let set_scores h score = h.score <- score

let copy h score =
  {
    score;
    data = Array.sub h.data 0 (max 1 h.len);
    len = h.len;
    pos = Array.sub h.pos 0 (min (Array.length h.pos) (Array.length score));
  }

let ensure_pos h v =
  if v >= Array.length h.pos then begin
    let fresh = Array.make (max (2 * Array.length h.pos) (v + 1)) (-1) in
    Array.blit h.pos 0 fresh 0 (Array.length h.pos);
    h.pos <- fresh
  end

let mem h v = v < Array.length h.pos && h.pos.(v) >= 0

let is_empty h = h.len = 0

let size h = h.len

let swap h i j =
  let vi = h.data.(i) and vj = h.data.(j) in
  h.data.(i) <- vj;
  h.data.(j) <- vi;
  h.pos.(vi) <- j;
  h.pos.(vj) <- i

let rec up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if h.score.(h.data.(i)) > h.score.(h.data.(parent)) then begin
      swap h i parent;
      up h parent
    end
  end

let rec down h i =
  let left = (2 * i) + 1 and right = (2 * i) + 2 in
  let largest = ref i in
  if left < h.len && h.score.(h.data.(left)) > h.score.(h.data.(!largest)) then largest := left;
  if right < h.len && h.score.(h.data.(right)) > h.score.(h.data.(!largest)) then
    largest := right;
  if !largest <> i then begin
    swap h i !largest;
    down h !largest
  end

let insert h v =
  ensure_pos h v;
  if h.pos.(v) < 0 then begin
    if h.len = Array.length h.data then begin
      let fresh = Array.make (2 * Array.length h.data) 0 in
      Array.blit h.data 0 fresh 0 h.len;
      h.data <- fresh
    end;
    h.data.(h.len) <- v;
    h.pos.(v) <- h.len;
    h.len <- h.len + 1;
    up h (h.len - 1)
  end

let remove_max h =
  if h.len = 0 then raise Not_found;
  let top = h.data.(0) in
  h.len <- h.len - 1;
  h.pos.(top) <- -1;
  if h.len > 0 then begin
    let moved = h.data.(h.len) in
    h.data.(0) <- moved;
    h.pos.(moved) <- 0;
    down h 0
  end;
  top

let update h v =
  if mem h v then begin
    up h h.pos.(v);
    down h h.pos.(v)
  end
