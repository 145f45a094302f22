(* Direct tests of the Fig. 1(b) MUX composition. *)
open Helpers
module Compose = LL.Attack.Compose
module Analysis = LL.Attack.Analysis
module Equiv = LL.Attack.Equiv

let fixture () =
  let c = random_circuit ~seed:170 ~num_inputs:3 ~num_outputs:2 ~gates:8 () in
  let locked = LL.Locking.Sarlock.lock ~key:(Bitvec.of_string "110") ~key_size:3 c in
  (c, locked)

let test_composition_with_region_unlocking_keys () =
  let c, locked = fixture () in
  let m = Analysis.error_matrix ~original:c ~locked:locked.LL.Locking.Locked.circuit () in
  (* Split on input 0: region x0=0 and x0=1. *)
  let correct = Bitvec.to_int locked.correct_key in
  let pick cond =
    match List.find_opt (fun k -> k <> correct) (Analysis.unlocking_keys m ~condition:cond) with
    | Some k -> k
    | None -> correct
  in
  let k0 = pick [ (0, false) ] and k1 = pick [ (0, true) ] in
  let composed =
    Compose.build_cubes locked.circuit
      ~cubes:
        [|
          ([ (0, false) ], Bitvec.of_int ~width:3 k0);
          ([ (0, true) ], Bitvec.of_int ~width:3 k1);
        |]
  in
  Alcotest.(check int) "key-free" 0 (Circuit.num_keys composed);
  Alcotest.(check bool) "equivalent" true (exhaustively_equal c composed)

let test_composition_with_wrong_region_key_fails () =
  let c, locked = fixture () in
  let m = Analysis.error_matrix ~original:c ~locked:locked.circuit () in
  (* Deliberately use a key that does NOT unlock region x0=0. *)
  let unlockers = Analysis.unlocking_keys m ~condition:[ (0, false) ] in
  let bad =
    match List.find_opt (fun k -> not (List.mem k unlockers)) (List.init 8 Fun.id) with
    | Some k -> k
    | None -> Alcotest.fail "fixture broken: every key unlocks the region"
  in
  let composed =
    Compose.build_cubes locked.circuit
      ~cubes:[| ([ (0, false) ], Bitvec.of_int ~width:3 bad); ([ (0, true) ], locked.correct_key) |]
  in
  Alcotest.(check bool) "not equivalent" false (exhaustively_equal c composed)

let test_composition_respects_condition_order () =
  (* Each key serves the cube it is paired with, whichever split input
     the tree selects on first: the Cofactor.conditions cubes compose
     equivalently with their pins in either order. *)
  let c, locked = fixture () in
  let conds = LL.Synth.Cofactor.conditions ~split_inputs:[| 2; 0 |] 2 in
  let m = Analysis.error_matrix ~original:c ~locked:locked.circuit () in
  let correct = Bitvec.to_int locked.correct_key in
  let keys =
    Array.map
      (fun cond ->
        match
          List.find_opt (fun k -> k <> correct) (Analysis.unlocking_keys m ~condition:cond)
        with
        | Some k -> Bitvec.of_int ~width:3 k
        | None -> locked.correct_key)
      conds
  in
  List.iter
    (fun order ->
      let cubes = Array.map2 (fun cond k -> (order cond, k)) conds keys in
      Alcotest.(check bool) "equivalent" true
        (exhaustively_equal c (Compose.build_cubes locked.circuit ~cubes)))
    [ Fun.id; List.rev ]

let test_unoptimized_composition () =
  let c, locked = fixture () in
  let k = locked.correct_key in
  let composed =
    Compose.build_cubes ~optimize:false locked.circuit
      ~cubes:[| ([ (1, false) ], k); ([ (1, true) ], k) |]
  in
  Alcotest.(check bool) "equivalent" true (exhaustively_equal c composed);
  (* Without optimization both instantiated copies remain. *)
  Alcotest.(check bool) "bigger than locked" true
    (Circuit.gate_count composed > Circuit.gate_count locked.circuit)

let test_build_validation () =
  let _, locked = fixture () in
  let k = locked.correct_key in
  List.iter
    (fun (label, cubes) ->
      Alcotest.(check bool) label true
        (try
           ignore (Compose.build_cubes locked.circuit ~cubes);
           false
         with Invalid_argument _ -> true))
    [
      ("no cubes", [||]);
      ("key width", [| ([ (0, false) ], Bitvec.create 1); ([ (0, true) ], Bitvec.create 1) |]);
      ("uncovered", [| ([ (0, false) ], k) |]);
      ("overlapping", [| ([], k); ([ (0, true) ], k) |]);
      ("position range", [| ([ (3, false) ], k); ([ (3, true) ], k) |]);
    ]

let prop_split_attack_composition_sound =
  qcheck_case ~count:10 "split attack composition is always equivalent"
    QCheck2.Gen.(pair (int_bound 10000) (int_range 1 2))
    (fun (seed, n) ->
      let c = random_circuit ~seed:(seed + 1000) ~num_inputs:6 ~num_outputs:2 ~gates:25 () in
      let locked = LL.Locking.Sarlock.lock ~prng:(Prng.create seed) ~key_size:4 c in
      let oracle = LL.Attack.Oracle.of_circuit c in
      let attack = LL.Attack.Split_attack.run ~n locked.circuit ~oracle in
      match Compose.of_attack locked.circuit attack with
      | None -> false
      | Some composed -> exhaustively_equal c composed)

(* The composed netlist of a fixed split, byte for byte: any drift in the
   MUX order (which split input the root selects), in which key serves
   which cofactor, or in node order changes the digest.  The split order
   [4; 1; 3] is not sorted, so a composition that selects by position
   instead of by split order is caught too. *)
let test_pinned_digests () =
  let c = random_circuit ~seed:1170 ~num_inputs:6 ~num_outputs:2 ~gates:25 () in
  let locked = LL.Locking.Sarlock.lock ~prng:(Prng.create 17) ~key_size:4 c in
  List.iter
    (fun (n, optimize, expected) ->
      let oracle = LL.Attack.Oracle.of_circuit c in
      let attack =
        LL.Attack.Split_attack.run ~inputs:[| 4; 1; 3 |] ~n locked.circuit ~oracle
      in
      match Compose.of_attack ~optimize locked.circuit attack with
      | None -> Alcotest.failf "N=%d: no composition" n
      | Some composed ->
          let name = Printf.sprintf "N=%d optimize=%b" n optimize in
          Alcotest.(check bool) (name ^ " equivalent") true
            (Equiv.check c composed = Equiv.Equivalent);
          Alcotest.(check string) name expected
            (Digest.to_hex (Digest.string (LL.Netlist.Bench_io.to_string composed))))
    [
      (1, true, "65b7b4ce6db30722d9e6bb3e287b8711");
      (1, false, "398b3fc6e51686749c199655acd0dfc9");
      (2, true, "38f17adf808e66f620b286235325ab29");
      (2, false, "12d8d504f0909a0d6cfa0fa8854c8936");
      (3, true, "aaf127768a80fae7b2e53a63be3e6a33");
      (3, false, "9bf63abc92d91aabd61a24267ee62f41");
    ]

let suite =
  [
    Alcotest.test_case "composition with region-unlocking keys" `Quick
      test_composition_with_region_unlocking_keys;
    Alcotest.test_case "wrong region key fails" `Quick
      test_composition_with_wrong_region_key_fails;
    Alcotest.test_case "condition order" `Quick test_composition_respects_condition_order;
    Alcotest.test_case "unoptimized composition" `Quick test_unoptimized_composition;
    Alcotest.test_case "build validation" `Quick test_build_validation;
    Alcotest.test_case "pinned digests" `Quick test_pinned_digests;
    prop_split_attack_composition_sound;
  ]
