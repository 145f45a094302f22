(* Flat clause arena (see the .mli for the word layout).  This module only
   knows about storage: allocation, header packing, in-place shrinking and
   hole accounting.  Attachment, relocation and compaction live in the
   solver, which owns the watch lists and reason array. *)

type t = {
  mutable a : int array;
  mutable len : int;
  mutable dead : int;
}

let hdr_lbd_max = 0x3ff

let hdr_size_shift = 13

let hdr_queued = 1 lsl 12

let no_cref = -1

let create () = { a = Array.make 1024 0; len = 0; dead = 0 }

let copy t = { t with a = Array.sub t.a 0 (max 1024 t.len) }

let size t c = t.a.(c) lsr hdr_size_shift

let learnt t c = t.a.(c) land 1 = 1

let marked t c = t.a.(c) land 2 = 2

let mark t c =
  if t.a.(c) land 2 = 0 then begin
    t.dead <- t.dead + size t c + 2;
    t.a.(c) <- t.a.(c) lor 2
  end

let unmark t c =
  if t.a.(c) land 2 = 2 then begin
    t.dead <- t.dead - (size t c + 2);
    t.a.(c) <- t.a.(c) land lnot 2
  end

let lbd t c = (t.a.(c) lsr 2) land hdr_lbd_max

(* Activities are non-negative, so the IEEE sign bit is always clear and
   the low 63 bits of the pattern fit an OCaml int exactly. *)
let act t c = Int64.float_of_bits (Int64.logand (Int64.of_int t.a.(c + 1)) Int64.max_int)

let set_act t c f = t.a.(c + 1) <- Int64.to_int (Int64.bits_of_float f)

let queued t c = t.a.(c) land hdr_queued <> 0

let set_queued t c b =
  t.a.(c) <- (if b then t.a.(c) lor hdr_queued else t.a.(c) land lnot hdr_queued)

let lit t c k = t.a.(c + 2 + k)

let set_lit t c k l = t.a.(c + 2 + k) <- l

let lits t c = Array.init (size t c) (fun k -> t.a.(c + 2 + k))

(* Growth by half, not doubling: a forked solver starts from an exact-size
   copy, and doubling on its first clause would leave most of the new
   array unused. *)
let ensure t extra =
  let need = t.len + extra in
  if need > Array.length t.a then begin
    let cap = ref (Array.length t.a + (Array.length t.a / 2)) in
    while !cap < need do
      cap := !cap + (!cap / 2)
    done;
    let fresh = Array.make !cap 0 in
    Array.blit t.a 0 fresh 0 t.len;
    t.a <- fresh
  end

let alloc t lits n ~learnt ~lbd =
  ensure t (n + 2);
  let c = t.len in
  t.a.(c) <-
    (n lsl hdr_size_shift) lor (min lbd hdr_lbd_max lsl 2) lor (if learnt then 1 else 0);
  t.a.(c + 1) <- 0;
  Array.blit lits 0 t.a (c + 2) n;
  t.len <- c + n + 2;
  c

let set_header_size t c n = t.a.(c) <- (t.a.(c) land ((1 lsl hdr_size_shift) - 1)) lor (n lsl hdr_size_shift)

let remove_lit_at t c k =
  let n = size t c in
  t.a.(c + 2 + k) <- t.a.(c + 2 + n - 1);
  (* one-word hole where the last literal used to live *)
  t.a.(c + 2 + n - 1) <- -1;
  t.dead <- t.dead + 1;
  set_header_size t c (n - 1)

let set_size t c n' =
  let n = size t c in
  if n' > n then invalid_arg "Arena.set_size: growing";
  if n' < n then begin
    t.a.(c + 2 + n') <- -(n - n');
    t.dead <- t.dead + (n - n');
    set_header_size t c n'
  end

let signature t c =
  let s = ref 0 in
  let n = size t c in
  for k = 0 to n - 1 do
    s := !s lor (1 lsl (Lit.var t.a.(c + 2 + k) mod 63))
  done;
  !s

let stored_signature t c = t.a.(c + 1)

let store_signature t c = t.a.(c + 1) <- signature t c
