open Helpers
module Locked = LL.Locking.Locked
module Xor_lock = LL.Locking.Xor_lock
module Sarlock = LL.Locking.Sarlock
module Antisat = LL.Locking.Antisat
module Lut_lock = LL.Locking.Lut_lock
module Compose_key = LL.Locking.Compose_key

let base_circuit () = random_circuit ~seed:77 ~num_inputs:6 ~num_outputs:3 ~gates:40 ()

let correct_key_unlocks locked original =
  exhaustively_equal original (Locked.unlock_correct locked)

let flipped_key_corrupts (locked : Locked.t) original ~bit =
  let bad = Bitvec.mapi (fun i b -> if i = bit then not b else b) locked.correct_key in
  not (exhaustively_equal original (Locked.unlock locked bad))

(* --- generic Locked --- *)

let test_locked_make_validates () =
  let c = base_circuit () in
  let locked = Xor_lock.lock ~num_keys:4 c in
  Alcotest.check_raises "length" (Invalid_argument "Locked.make: key length mismatch")
    (fun () ->
      ignore (Locked.make ~circuit:locked.Locked.circuit ~correct_key:(Bitvec.create 2)
                ~scheme:"x"))

let test_key_size () =
  let c = base_circuit () in
  Alcotest.(check int) "key size" 5 (Locked.key_size (Xor_lock.lock ~num_keys:5 c))

(* --- XOR locking --- *)

let test_xor_correct_key () =
  let c = base_circuit () in
  let locked = Xor_lock.lock ~prng:(Prng.create 3) ~num_keys:8 c in
  Alcotest.(check bool) "unlocks" true (correct_key_unlocks locked c)

let test_xor_every_wrong_bit_detected () =
  (* In the full adder every wire is observable, so each flipped key bit
     must corrupt at least one input pattern. *)
  let c = full_adder_circuit () in
  let locked = Xor_lock.lock ~prng:(Prng.create 4) ~num_keys:4 c in
  for bit = 0 to 3 do
    Alcotest.(check bool)
      (Printf.sprintf "bit %d corrupts" bit)
      true
      (flipped_key_corrupts locked c ~bit)
  done

let test_xor_ports_preserved () =
  let c = base_circuit () in
  let locked = Xor_lock.lock ~num_keys:4 c in
  Alcotest.(check int) "inputs" (Circuit.num_inputs c) (Circuit.num_inputs locked.circuit);
  Alcotest.(check int) "outputs" (Circuit.num_outputs c) (Circuit.num_outputs locked.circuit);
  Alcotest.(check int) "keys" 4 (Circuit.num_keys locked.circuit)

let test_xor_too_many_keys () =
  let c = full_adder_circuit () in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Xor_lock.lock ~num_keys:1000 c);
       false
     with Invalid_argument _ -> true)

(* A lock with no key bit is no lock: both wire-insertion schemes
   reject a count below one, as [Sarlock.lock] does. *)
let test_bad_key_count () =
  let c = full_adder_circuit () in
  List.iter
    (fun n ->
      Alcotest.check_raises "xor" (Invalid_argument "Xor_lock.lock: bad key count")
        (fun () -> ignore (Xor_lock.lock ~num_keys:n c));
      Alcotest.check_raises "sll" (Invalid_argument "Sll.lock: bad key count")
        (fun () -> ignore (LL.Locking.Sll.lock ~num_keys:n c)))
    [ 0; -1 ]

let test_xor_deterministic_with_prng () =
  let c = base_circuit () in
  let l1 = Xor_lock.lock ~prng:(Prng.create 5) ~num_keys:4 c in
  let l2 = Xor_lock.lock ~prng:(Prng.create 5) ~num_keys:4 c in
  Alcotest.check bitvec_testable "same key" l1.correct_key l2.correct_key

(* --- Strong Logic Locking --- *)

let test_sll_correct_key () =
  let c = Ll_benchsuite.Iscas.get "c432" in
  let locked = LL.Locking.Sll.lock ~prng:(Prng.create 41) ~num_keys:8 c in
  Alcotest.(check bool) "unlocks" true
    (match LL.Attack.Equiv.check c (Locked.unlock_correct locked) with
    | LL.Attack.Equiv.Equivalent -> true
    | LL.Attack.Equiv.Counterexample _ -> false)

let test_sll_interferes_more_than_random () =
  let c = Ll_benchsuite.Iscas.get "c880" in
  let sll = LL.Locking.Sll.lock ~prng:(Prng.create 42) ~num_keys:10 c in
  let rnd = Xor_lock.lock ~prng:(Prng.create 42) ~num_keys:10 c in
  let sll_edges = LL.Locking.Sll.interference_edges sll.Locked.circuit in
  let rnd_edges = LL.Locking.Sll.interference_edges rnd.Locked.circuit in
  Alcotest.(check bool)
    (Printf.sprintf "sll %d >= random %d" sll_edges rnd_edges)
    true (sll_edges >= rnd_edges);
  Alcotest.(check bool) "sll has interference" true (sll_edges > 0)

let test_sll_still_falls_to_sat_attack () =
  let c = random_circuit ~seed:86 ~num_inputs:7 ~num_outputs:3 ~gates:40 () in
  let locked = LL.Locking.Sll.lock ~prng:(Prng.create 43) ~num_keys:6 c in
  let oracle = LL.Attack.Oracle.of_circuit c in
  let r = LL.Attack.Sat_attack.run locked.Locked.circuit ~oracle in
  match r.LL.Attack.Sat_attack.key with
  | None -> Alcotest.fail "attack failed"
  | Some key ->
      Alcotest.(check bool) "functionally correct" true
        (match LL.Attack.Equiv.check c (Locked.unlock locked key) with
        | LL.Attack.Equiv.Equivalent -> true
        | LL.Attack.Equiv.Counterexample _ -> false)

(* --- SARLock --- *)

let test_sarlock_correct_key () =
  let c = base_circuit () in
  let locked = Sarlock.lock ~prng:(Prng.create 6) ~key_size:4 c in
  Alcotest.(check bool) "unlocks" true (correct_key_unlocks locked c)

let test_sarlock_every_wrong_key_corrupts_one_pattern () =
  (* The SARLock signature: wrong key k corrupts exactly the patterns whose
     compared bits equal k. *)
  let c = random_circuit ~seed:78 ~num_inputs:4 ~num_outputs:2 ~gates:12 () in
  let locked = Sarlock.lock ~key:(Bitvec.of_string "0110") ~key_size:4 c in
  let m = LL.Attack.Analysis.error_matrix ~original:c ~locked:locked.Locked.circuit () in
  for k = 0 to 15 do
    let row = m.LL.Attack.Analysis.errors.(k) in
    let corrupted = Array.to_list row |> List.mapi (fun x e -> (x, e))
                    |> List.filter_map (fun (x, e) -> if e then Some x else None) in
    if k = Bitvec.to_int locked.correct_key then
      Alcotest.(check (list int)) "correct key clean" [] corrupted
    else
      Alcotest.(check (list int)) "wrong key corrupts its own pattern" [ k ] corrupted
  done

let test_sarlock_respects_explicit_inputs () =
  let c = base_circuit () in
  let locked =
    Sarlock.lock ~compare_inputs:[| 5; 3 |] ~key:(Bitvec.of_string "10") ~key_size:2 c
  in
  Alcotest.(check bool) "unlocks" true (correct_key_unlocks locked c)

let test_sarlock_validation () =
  let c = base_circuit () in
  let raises f = try f (); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "key too large" true
    (raises (fun () -> ignore (Sarlock.lock ~key_size:7 c)));
  Alcotest.(check bool) "dup inputs" true
    (raises (fun () -> ignore (Sarlock.lock ~compare_inputs:[| 0; 0 |] ~key_size:2 c)));
  Alcotest.(check bool) "bad flip output" true
    (raises (fun () -> ignore (Sarlock.lock ~flip_output:9 ~key_size:2 c)));
  Alcotest.(check bool) "key length" true
    (raises (fun () -> ignore (Sarlock.lock ~key:(Bitvec.create 3) ~key_size:2 c)))

(* --- Mixed SARLock (multi-key-resistant variant) --- *)

let test_mixed_sarlock_correct_key () =
  let c = base_circuit () in
  let locked = LL.Locking.Mixed_sarlock.lock ~prng:(Prng.create 21) ~key_size:4 c in
  Alcotest.(check bool) "unlocks" true (correct_key_unlocks locked c)

let test_mixed_sarlock_wrong_key_corrupts () =
  let c = base_circuit () in
  let locked = LL.Locking.Mixed_sarlock.lock ~prng:(Prng.create 22) ~key_size:4 c in
  Alcotest.(check bool) "bit flip corrupts" true (flipped_key_corrupts locked c ~bit:0)

let test_mixed_sarlock_survives_cofactoring () =
  (* The defining property: pinning inputs must NOT reduce the number of
     wrong keys that corrupt the remaining region — unlike classic
     SARLock, where it halves per pinned compared input. *)
  let c = random_circuit ~seed:85 ~num_inputs:6 ~num_outputs:2 ~gates:20 () in
  let count_bad locked =
    (* wrong keys corrupting the cofactor x0=0 *)
    let m = LL.Attack.Analysis.error_matrix ~original:c ~locked () in
    (1 lsl 4)
    - List.length (LL.Attack.Analysis.unlocking_keys m ~condition:[ (0, false) ])
  in
  let classic = (Sarlock.lock ~prng:(Prng.create 23) ~key_size:4 c).Locked.circuit in
  let mixed =
    (LL.Locking.Mixed_sarlock.lock ~prng:(Prng.create 23) ~mix_width:4 ~key_size:4 c)
      .Locked.circuit
  in
  let classic_bad = count_bad classic and mixed_bad = count_bad mixed in
  (* Classic: only the ~half of wrong keys matching x0=0 corrupt the
     region.  Mixed: (almost) all wrong keys still corrupt it. *)
  Alcotest.(check bool) "classic halves" true (classic_bad <= 8);
  Alcotest.(check bool) "mixed survives" true (mixed_bad > classic_bad)

(* --- Anti-SAT --- *)

let test_antisat_correct_key () =
  let c = base_circuit () in
  let locked = Antisat.lock ~prng:(Prng.create 8) ~width:4 c in
  Alcotest.(check int) "key size 2m" 8 (Locked.key_size locked);
  Alcotest.(check bool) "unlocks" true (correct_key_unlocks locked c)

let test_antisat_any_equal_halves_unlock () =
  (* Anti-SAT has 2^m correct keys: any k1 = k2. *)
  let c = random_circuit ~seed:79 ~num_inputs:4 ~num_outputs:2 ~gates:12 () in
  let locked = Antisat.lock ~width:3 c in
  let ok = ref true in
  for v = 0 to 7 do
    let k = Bitvec.append (Bitvec.of_int ~width:3 v) (Bitvec.of_int ~width:3 v) in
    if not (exhaustively_equal c (Locked.unlock locked k)) then ok := false
  done;
  Alcotest.(check bool) "all diagonal keys unlock" true !ok

let test_antisat_unequal_halves_corrupt () =
  let c = random_circuit ~seed:80 ~num_inputs:4 ~num_outputs:2 ~gates:12 () in
  let locked = Antisat.lock ~width:3 c in
  (* k1 <> k2 must corrupt at least one pattern (g(x^k1)=1 somewhere while
     gbar(x^k2)=1 there too for some x). *)
  let k = Bitvec.append (Bitvec.of_int ~width:3 1) (Bitvec.of_int ~width:3 6) in
  Alcotest.(check bool) "corrupts" false (exhaustively_equal c (Locked.unlock locked k))

(* --- LUT locking --- *)

let test_lut_correct_key () =
  let c = base_circuit () in
  let locked = Lut_lock.lock ~prng:(Prng.create 9) c in
  Alcotest.(check int) "key size" (Lut_lock.key_size ~stage1_luts:3 ~stage1_inputs:3)
    (Locked.key_size locked);
  Alcotest.(check bool) "unlocks" true (correct_key_unlocks locked c)

let test_lut_key_size_formula () =
  Alcotest.(check int) "3/3" 32 (Lut_lock.key_size ~stage1_luts:3 ~stage1_inputs:3);
  Alcotest.(check int) "4/3" 48 (Lut_lock.key_size ~stage1_luts:4 ~stage1_inputs:3);
  Alcotest.(check int) "2/2" 12 (Lut_lock.key_size ~stage1_luts:2 ~stage1_inputs:2)

let test_lut_wrong_stage2_corrupts () =
  (* Use a fully live design so the cut wire is observable. *)
  let c = Ll_benchsuite.Iscas.get "c17" in
  let locked = Lut_lock.lock ~prng:(Prng.create 10) c in
  (* Invert the whole stage-2 table: the module output inverts, corrupting
     the victim wire everywhere it matters. *)
  let m = 3 and a = 3 in
  let stage2_off = m * (1 lsl a) in
  let bad =
    Bitvec.mapi
      (fun i b -> if i >= stage2_off then not b else b)
      locked.Locked.correct_key
  in
  Alcotest.(check bool) "corrupts" false (exhaustively_equal c (Locked.unlock locked bad))

let test_lut_many_correct_keys () =
  (* Don't-care bits: flipping a stage-1 table bit of a non-primary LUT
     keeps the design correct (stage 2 passes LUT0 through). *)
  let c = base_circuit () in
  let locked = Lut_lock.lock ~prng:(Prng.create 11) c in
  let a = 3 in
  let bad =
    Bitvec.mapi
      (fun i b -> if i = (1 lsl a) then not b else b)
      (* first bit of LUT1's table *)
      locked.Locked.correct_key
  in
  Alcotest.(check bool) "still unlocks" true (exhaustively_equal c (Locked.unlock locked bad))

let test_lut_explicit_victim () =
  let c = base_circuit () in
  (* Find some gate node to cut. *)
  let victim = ref (-1) in
  Array.iteri
    (fun i nd -> match nd with Circuit.Gate _ when !victim < 0 && i > 10 -> victim := i | _ -> ())
    c.Circuit.nodes;
  let locked = Lut_lock.lock ~victim:!victim c in
  Alcotest.(check bool) "unlocks" true (correct_key_unlocks locked c)

let test_lut_validation () =
  let c = base_circuit () in
  let raises f = try f (); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "bad m" true
    (raises (fun () -> ignore (Lut_lock.lock ~stage1_luts:9 c)));
  Alcotest.(check bool) "victim not gate" true
    (raises (fun () -> ignore (Lut_lock.lock ~victim:c.Circuit.inputs.(0) c)))

(* --- composition --- *)

let test_compose_two_schemes () =
  let c = base_circuit () in
  let l1 = Xor_lock.lock ~prng:(Prng.create 12) ~num_keys:4 c in
  let l2 =
    Compose_key.relock l1 ~scheme:(fun ?base_key cc ->
        Sarlock.lock ?base_key ~prng:(Prng.create 13) ~key_size:3 cc)
  in
  Alcotest.(check int) "combined key size" 7 (Locked.key_size l2);
  Alcotest.(check bool) "combined unlocks" true (correct_key_unlocks l2 c);
  Alcotest.(check bool) "scheme label" true
    (String.length l2.Locked.scheme > String.length l1.Locked.scheme)

let test_relock_requires_base_key () =
  let c = base_circuit () in
  let l1 = Xor_lock.lock ~num_keys:4 c in
  Alcotest.(check bool) "raises without base" true
    (try
       ignore (Sarlock.lock ~key_size:3 l1.Locked.circuit);
       false
     with Invalid_argument _ -> true)

let test_triple_composition () =
  let c = base_circuit () in
  let l1 = Xor_lock.lock ~prng:(Prng.create 14) ~num_keys:3 c in
  let l2 =
    Compose_key.relock l1 ~scheme:(fun ?base_key cc ->
        Antisat.lock ?base_key ~prng:(Prng.create 15) ~width:3 cc)
  in
  let l3 =
    Compose_key.relock l2 ~scheme:(fun ?base_key cc ->
        Sarlock.lock ?base_key ~prng:(Prng.create 16) ~key_size:2 cc)
  in
  Alcotest.(check int) "key size" 11 (Locked.key_size l3);
  Alcotest.(check bool) "unlocks" true (correct_key_unlocks l3 c)

let suite =
  [
    Alcotest.test_case "locked make validates" `Quick test_locked_make_validates;
    Alcotest.test_case "key size" `Quick test_key_size;
    Alcotest.test_case "xor correct key" `Quick test_xor_correct_key;
    Alcotest.test_case "xor wrong bits detected" `Quick test_xor_every_wrong_bit_detected;
    Alcotest.test_case "xor ports preserved" `Quick test_xor_ports_preserved;
    Alcotest.test_case "xor too many keys" `Quick test_xor_too_many_keys;
    Alcotest.test_case "xor/sll bad key count" `Quick test_bad_key_count;
    Alcotest.test_case "xor deterministic" `Quick test_xor_deterministic_with_prng;
    Alcotest.test_case "sll correct key" `Quick test_sll_correct_key;
    Alcotest.test_case "sll interference" `Quick test_sll_interferes_more_than_random;
    Alcotest.test_case "sll falls to sat attack" `Quick test_sll_still_falls_to_sat_attack;
    Alcotest.test_case "sarlock correct key" `Quick test_sarlock_correct_key;
    Alcotest.test_case "sarlock error signature" `Quick
      test_sarlock_every_wrong_key_corrupts_one_pattern;
    Alcotest.test_case "sarlock explicit inputs" `Quick test_sarlock_respects_explicit_inputs;
    Alcotest.test_case "sarlock validation" `Quick test_sarlock_validation;
    Alcotest.test_case "mixed sarlock correct key" `Quick test_mixed_sarlock_correct_key;
    Alcotest.test_case "mixed sarlock wrong key corrupts" `Quick
      test_mixed_sarlock_wrong_key_corrupts;
    Alcotest.test_case "mixed sarlock survives cofactoring" `Quick
      test_mixed_sarlock_survives_cofactoring;
    Alcotest.test_case "antisat correct key" `Quick test_antisat_correct_key;
    Alcotest.test_case "antisat equal halves unlock" `Quick
      test_antisat_any_equal_halves_unlock;
    Alcotest.test_case "antisat unequal halves corrupt" `Quick
      test_antisat_unequal_halves_corrupt;
    Alcotest.test_case "lut correct key" `Quick test_lut_correct_key;
    Alcotest.test_case "lut key size formula" `Quick test_lut_key_size_formula;
    Alcotest.test_case "lut wrong stage2 corrupts" `Quick test_lut_wrong_stage2_corrupts;
    Alcotest.test_case "lut many correct keys" `Quick test_lut_many_correct_keys;
    Alcotest.test_case "lut explicit victim" `Quick test_lut_explicit_victim;
    Alcotest.test_case "lut validation" `Quick test_lut_validation;
    Alcotest.test_case "compose two schemes" `Quick test_compose_two_schemes;
    Alcotest.test_case "relock requires base key" `Quick test_relock_requires_base_key;
    Alcotest.test_case "triple composition" `Quick test_triple_composition;
  ]
