open Helpers
module Heap = Ll_sat.Heap

let test_max_order () =
  let scores = [| 5.0; 9.0; 1.0; 7.0; 3.0 |] in
  let h = Heap.create scores in
  for v = 0 to 4 do
    Heap.insert h v
  done;
  let order = List.init 5 (fun _ -> Heap.remove_max h) in
  Alcotest.(check (list int)) "descending by score" [ 1; 3; 0; 4; 2 ] order;
  Alcotest.(check bool) "empty after" true (Heap.is_empty h)

let test_duplicate_insert () =
  let h = Heap.create (Array.init 8 float_of_int) in
  Heap.insert h 3;
  Heap.insert h 3;
  Alcotest.(check int) "size 1" 1 (Heap.size h)

let test_mem () =
  let h = Heap.create (Array.init 8 float_of_int) in
  Heap.insert h 2;
  Alcotest.(check bool) "mem" true (Heap.mem h 2);
  Alcotest.(check bool) "not mem" false (Heap.mem h 5);
  ignore (Heap.remove_max h);
  Alcotest.(check bool) "removed" false (Heap.mem h 2)

let test_update_after_score_change () =
  let scores = Array.make 4 0.0 in
  let h = Heap.create scores in
  for v = 0 to 3 do
    Heap.insert h v
  done;
  scores.(2) <- 100.0;
  Heap.update h 2;
  Alcotest.(check int) "bumped to top" 2 (Heap.remove_max h)

let test_remove_max_empty () =
  let h = Heap.create [||] in
  Alcotest.check_raises "empty" Not_found (fun () -> ignore (Heap.remove_max h))

let test_large_random () =
  let n = 1000 in
  let g = Ll_util.Prng.create 3 in
  let scores = Array.init n (fun _ -> Ll_util.Prng.float g 1.0) in
  let h = Heap.create scores in
  for v = 0 to n - 1 do
    Heap.insert h v
  done;
  let prev = ref infinity in
  for _ = 1 to n do
    let v = Heap.remove_max h in
    Alcotest.(check bool) "non-increasing" true (scores.(v) <= !prev);
    prev := scores.(v)
  done

(* The solver's usage pattern: variables arrive while scores are bumped,
   and the score array is replaced by a grown copy part-way through
   ([Solver.new_var] -> [grow_arrays]).  After the switch, bumps land in
   the new array only, so a heap still reading the old one would pop out
   of order. *)
let prop_grow_mid_run =
  qcheck_case ~count:200 "grown score array keeps descending order"
    QCheck2.Gen.(pair (int_bound 1_000_000) (int_range 1 200))
    (fun (seed, n) ->
      let g = Ll_util.Prng.create seed in
      let scores = ref (Array.make 4 0.0) in
      let h = Heap.create !scores in
      let grow_at = Ll_util.Prng.int g n in
      for v = 0 to n - 1 do
        if v = grow_at || v >= Array.length !scores then begin
          let fresh = Array.make (max (v + 1) (2 * Array.length !scores)) 0.0 in
          Array.blit !scores 0 fresh 0 (Array.length !scores);
          scores := fresh;
          Heap.set_scores h fresh
        end;
        !scores.(v) <- Ll_util.Prng.float g 10.0;
        Heap.insert h v;
        (* bump an earlier variable, in the current array only *)
        let u = Ll_util.Prng.int g (v + 1) in
        !scores.(u) <- !scores.(u) +. Ll_util.Prng.float g 5.0;
        Heap.update h u
      done;
      let prev = ref infinity and ok = ref true and count = ref 0 in
      while not (Heap.is_empty h) do
        let v = Heap.remove_max h in
        if !scores.(v) > !prev then ok := false;
        prev := !scores.(v);
        incr count
      done;
      !ok && !count = n)

let suite =
  [
    Alcotest.test_case "max order" `Quick test_max_order;
    Alcotest.test_case "duplicate insert" `Quick test_duplicate_insert;
    Alcotest.test_case "mem" `Quick test_mem;
    Alcotest.test_case "update after score change" `Quick test_update_after_score_change;
    Alcotest.test_case "remove_max empty" `Quick test_remove_max_empty;
    Alcotest.test_case "large random" `Quick test_large_random;
    prop_grow_mid_run;
  ]
