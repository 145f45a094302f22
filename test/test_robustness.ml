(* Failure injection and cross-engine consistency properties. *)
open Helpers
module Oracle = LL.Attack.Oracle
module Sat_attack = LL.Attack.Sat_attack
module Equiv = LL.Attack.Equiv
module Solver = Ll_sat.Solver
module Lit = Ll_sat.Lit

let test_attack_against_wrong_oracle_terminates () =
  (* The oracle answers for a DIFFERENT design: the attack must terminate
     (constraints eventually contradict the miter or each other) and any
     returned key must fail verification against the real original. *)
  let c = random_circuit ~seed:200 ~num_inputs:6 ~num_outputs:3 ~gates:30 () in
  let imposter = random_circuit ~seed:201 ~num_inputs:6 ~num_outputs:3 ~gates:30 () in
  let locked = LL.Locking.Xor_lock.lock ~num_keys:6 c in
  let oracle = Oracle.of_circuit imposter in
  let config = { Sat_attack.default_config with max_iterations = Some 200 } in
  let r = Sat_attack.run ~config locked.circuit ~oracle in
  match r.Sat_attack.key with
  | None -> () (* contradiction detected: fine *)
  | Some key -> (
      match Equiv.check c (LL.Netlist.Instantiate.bind_keys locked.circuit key) with
      | Equiv.Equivalent ->
          (* Only acceptable if the imposter happens to agree with c under
             that key everywhere — astronomically unlikely; treat as
             failure so regressions surface. *)
          Alcotest.fail "wrong oracle produced a correct key"
      | Equiv.Counterexample _ -> ())

let test_attack_against_constant_oracle () =
  (* A stuck-at oracle (all outputs 0).  No key reproduces it in general;
     the attack must terminate and report something sane. *)
  let c = random_circuit ~seed:202 ~num_inputs:6 ~num_outputs:2 ~gates:25 () in
  let locked = LL.Locking.Xor_lock.lock ~num_keys:4 c in
  let oracle =
    Oracle.of_function ~num_inputs:6 ~num_outputs:2 (fun _ -> [| false; false |])
  in
  let config = { Sat_attack.default_config with max_iterations = Some 100 } in
  let r = Sat_attack.run ~config locked.circuit ~oracle in
  Alcotest.(check bool) "terminates" true
    (match r.Sat_attack.status with
    | Sat_attack.Broken | Sat_attack.Iteration_limit | Sat_attack.Time_limit
    | Sat_attack.Cancelled | Sat_attack.Stopped ->
        true)

let test_solver_unsat_is_stable () =
  (* Once unsat at the root, the solver stays unsat whatever is added. *)
  let s = Solver.create () in
  let v = Solver.new_var s in
  Solver.add_clause s [ Lit.pos v ];
  Solver.add_clause s [ Lit.neg v ];
  Alcotest.(check bool) "unsat" true (Solver.solve s = Solver.Unsat);
  let w = Solver.new_var s in
  Solver.add_clause s [ Lit.pos w ];
  Alcotest.(check bool) "still unsat" true (Solver.solve s = Solver.Unsat)

let test_solver_clause_counters () =
  let s = Solver.create () in
  let a = Solver.new_var s and b = Solver.new_var s in
  Alcotest.(check int) "empty" 0 (Solver.num_clauses s);
  Solver.add_clause s [ Lit.pos a; Lit.pos b ];
  Solver.add_clause s [ Lit.neg a; Lit.pos b ];
  Alcotest.(check int) "two" 2 (Solver.num_clauses s);
  (* Unit clauses are absorbed, not stored. *)
  Solver.add_clause s [ Lit.pos b ];
  Alcotest.(check int) "still two" 2 (Solver.num_clauses s);
  Alcotest.(check bool) "learnts tracked" true (Solver.num_learnts s >= 0)

(* Three engines must agree on equivalence verdicts: random simulation is
   subsumed by SAT; SAT and BDD answer identically. *)
let prop_equiv_engines_agree =
  qcheck_case ~count:30 "SAT and BDD equivalence agree"
    QCheck2.Gen.(triple (int_bound 100000) (int_bound 100000) (int_bound 40))
    (fun (seed1, seed2, gates) ->
      let a = random_circuit ~seed:seed1 ~num_inputs:5 ~num_outputs:2 ~gates:(5 + gates) () in
      let b = random_circuit ~seed:seed2 ~num_inputs:5 ~num_outputs:2 ~gates:(5 + gates) () in
      let sat_says =
        match Equiv.check a b with
        | Equiv.Equivalent -> true
        | Equiv.Counterexample _ -> false
      in
      let bdd_says = LL.Bdd.Exact.equivalent a b in
      sat_says = bdd_says)

(* BDD model counting matches exhaustive counting. *)
let prop_bdd_count_matches_exhaustive =
  qcheck_case ~count:30 "BDD sat_count matches exhaustive enumeration"
    QCheck2.Gen.(pair (int_bound 100000) (int_bound 30))
    (fun (seed, gates) ->
      let c = random_circuit ~seed ~num_inputs:6 ~num_outputs:1 ~gates:(5 + gates) () in
      let m, inputs, keys = LL.Bdd.Bdd.circuit_manager c in
      let f = (LL.Bdd.Bdd.of_circuit m c ~inputs ~keys).(0) in
      let exhaustive = ref 0 in
      for v = 0 to 63 do
        let assignment = Array.init 6 (fun i -> (v lsr i) land 1 = 1) in
        if (Eval.eval c ~inputs:assignment ~keys:[||]).(0) then incr exhaustive
      done;
      LL.Bdd.Bdd.sat_count m f = float_of_int !exhaustive)

(* Oracle restriction composes: restricting twice equals restricting once
   with the union condition. *)
let test_oracle_restrict_composes () =
  let c = full_adder_circuit () in
  let o = Oracle.of_circuit c in
  let once = Oracle.restrict o [ (0, true); (2, false) ] in
  let twice = Oracle.restrict (Oracle.restrict o [ (2, false) ]) [ (0, true) ] in
  for v = 0 to 1 do
    let pattern = [| v = 1 |] in
    Alcotest.(check (array bool)) "same responses" (Oracle.query once pattern)
      (Oracle.query twice pattern)
  done

let test_atomic_write_failures_clean_up () =
  (* A failing atomic write leaves its target and directory as they were
     and names the target, not its temporary file, in the error. *)
  let dir = Filename.temp_dir "fileio" "" in
  let listing () = List.sort compare (Array.to_list (Sys.readdir dir)) in
  let target = Filename.concat dir "adir" in
  Sys.mkdir target 0o755;
  Alcotest.check_raises "rename onto a directory"
    (Sys_error (target ^ ": Is a directory")) (fun () ->
      LL.Util.Fileio.write_atomic_string target "x");
  let file = Filename.concat dir "f.txt" in
  LL.Util.Fileio.write_atomic_string file "old";
  Alcotest.check_raises "writer raises" (Failure "boom") (fun () ->
      LL.Util.Fileio.write_atomic file (fun oc ->
          output_string oc "new";
          failwith "boom"));
  Alcotest.(check (list string)) "no temporary file left" [ "adir"; "f.txt" ] (listing ());
  Alcotest.(check string) "target untouched" "old"
    (In_channel.with_open_bin file In_channel.input_all);
  Sys.remove file;
  Sys.rmdir target;
  Sys.rmdir dir

let suite =
  [
    Alcotest.test_case "wrong oracle terminates" `Quick
      test_attack_against_wrong_oracle_terminates;
    Alcotest.test_case "constant oracle terminates" `Quick
      test_attack_against_constant_oracle;
    Alcotest.test_case "solver unsat stable" `Quick test_solver_unsat_is_stable;
    Alcotest.test_case "solver clause counters" `Quick test_solver_clause_counters;
    prop_equiv_engines_agree;
    prop_bdd_count_matches_exhaustive;
    Alcotest.test_case "oracle restrict composes" `Quick test_oracle_restrict_composes;
    Alcotest.test_case "atomic write failures clean up" `Quick
      test_atomic_write_failures_clean_up;
  ]
