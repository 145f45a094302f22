module Lit = Ll_sat.Lit

let test_construction () =
  let p = Lit.pos 5 and n = Lit.neg 5 in
  Alcotest.(check int) "var pos" 5 (Lit.var p);
  Alcotest.(check int) "var neg" 5 (Lit.var n);
  Alcotest.(check bool) "pos is pos" true (Lit.is_pos p);
  Alcotest.(check bool) "neg is not pos" false (Lit.is_pos n);
  Alcotest.(check bool) "distinct" true (p <> n)

let test_negate () =
  let p = Lit.pos 3 in
  Alcotest.(check int) "double negation" p (Lit.negate (Lit.negate p));
  Alcotest.(check int) "negate pos = neg" (Lit.neg 3) (Lit.negate p)

let test_make () =
  Alcotest.(check int) "make true" (Lit.pos 2) (Lit.make 2 true);
  Alcotest.(check int) "make false" (Lit.neg 2) (Lit.make 2 false)

let test_dimacs () =
  Alcotest.(check int) "pos to dimacs" 6 (Lit.to_dimacs (Lit.pos 5));
  Alcotest.(check int) "neg to dimacs" (-6) (Lit.to_dimacs (Lit.neg 5));
  Alcotest.(check int) "roundtrip pos" (Lit.pos 0) (Lit.of_dimacs 1);
  Alcotest.(check int) "roundtrip neg" (Lit.neg 0) (Lit.of_dimacs (-1));
  Alcotest.check_raises "zero" (Invalid_argument "Lit.of_dimacs: zero") (fun () ->
      ignore (Lit.of_dimacs 0))

let test_negative_var_rejected () =
  Alcotest.check_raises "neg var" (Invalid_argument "Lit.pos: negative variable") (fun () ->
      ignore (Lit.pos (-1)))

(* Both sides of the insertion-sort cutoff, with duplicates; the tail
   past [n] must stay untouched. *)
let prop_sort_prefix =
  Helpers.qcheck_case ~count:300 "sort_prefix sorts the prefix only"
    QCheck2.Gen.(pair (list_size (int_bound 80) (int_bound 50)) (int_bound 80))
    (fun (xs, cut) ->
      let a = Array.of_list xs in
      let n = min cut (Array.length a) in
      let tail = Array.sub a n (Array.length a - n) in
      Lit.sort_prefix a n;
      Array.to_list (Array.sub a 0 n) = List.sort compare (List.filteri (fun i _ -> i < n) xs)
      && Array.sub a n (Array.length a - n) = tail)

let suite =
  [
    Alcotest.test_case "construction" `Quick test_construction;
    Alcotest.test_case "negate" `Quick test_negate;
    Alcotest.test_case "make" `Quick test_make;
    Alcotest.test_case "dimacs" `Quick test_dimacs;
    Alcotest.test_case "negative var rejected" `Quick test_negative_var_rejected;
    prop_sort_prefix;
  ]
