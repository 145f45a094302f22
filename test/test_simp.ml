(* Differential fuzzing of the inprocessing engine: a solver with
   simplification enabled must agree with a plain CDCL solver on every
   instance, and its Sat models — including the extension over eliminated
   variables — must satisfy the original clauses. *)
open Helpers
module Solver = Ll_sat.Solver
module Drup = Ll_sat.Drup
module Lit = Ll_sat.Lit
module Tseitin = Ll_sat.Tseitin
module Xor_lock = LL.Locking.Xor_lock
module Locked = LL.Locking.Locked

(* Random CNF with a clause-length mix that gives the simplifier real
   work: units and binaries force root strips, overlapping wide clauses
   feed subsumption, low var counts make BVE fire. *)
let random_cnf g ~nvars ~nclauses =
  List.init nclauses (fun _ ->
      let len = 1 + Prng.int g 4 in
      List.init len (fun _ -> Ll_sat.Lit.make (Prng.int g nvars) (Prng.bool g)))

let check_model_satisfies s clauses =
  List.iter
    (fun clause ->
      Alcotest.(check bool) "model satisfies original clause" true
        (List.exists (fun l -> Solver.value s l) clause))
    clauses

let solve_both ~seed clauses ~nvars =
  let mk simp =
    let s = Solver.create ~seed ~simp () in
    for _ = 1 to nvars do
      ignore (Solver.new_var s)
    done;
    List.iter (Solver.add_clause s) clauses;
    s
  in
  let plain = mk false and simp = mk true in
  let r_plain = Solver.solve plain and r_simp = Solver.solve simp in
  Alcotest.(check bool) "simp agrees with plain" true (r_plain = r_simp);
  if r_simp = Solver.Sat then check_model_satisfies simp clauses;
  (plain, simp, r_simp)

let prop_random_cnf =
  qcheck_case ~count:300 "random CNF: simp solver agrees with plain"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let g = Prng.create seed in
      let nvars = 5 + Prng.int g 26 in
      let nclauses = nvars + Prng.int g (3 * nvars) in
      let clauses = random_cnf g ~nvars ~nclauses in
      ignore (solve_both ~seed clauses ~nvars);
      true)

(* Incremental interleavings: alternate clause batches and solves, with a
   frozen activation variable assumed on every query.  Eliminated
   variables from earlier rounds get re-mentioned by later batches, which
   exercises restore. *)
let prop_incremental =
  qcheck_case ~count:150 "incremental add/solve interleavings agree"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let g = Prng.create seed in
      let nvars = 6 + Prng.int g 16 in
      let mk simp =
        let s = Solver.create ~seed ~simp () in
        for _ = 1 to nvars do
          ignore (Solver.new_var s)
        done;
        s
      in
      let plain = mk false and simp = mk true in
      (* Frozen activation variable, used as an assumption each round. *)
      let act_p = Lit.pos (Solver.new_var plain) in
      let act_s = Lit.pos (Solver.new_var simp) in
      Solver.freeze_var simp (Lit.var act_s);
      let rounds = 2 + Prng.int g 4 in
      let all_clauses = ref [] in
      let cg = Prng.create (seed lxor 0x5a5a) in
      for _round = 1 to rounds do
        let batch = random_cnf cg ~nvars ~nclauses:(2 + Prng.int g (2 * nvars)) in
        all_clauses := batch @ !all_clauses;
        List.iter (Solver.add_clause plain) batch;
        List.iter (Solver.add_clause simp) batch;
        let r_p = Solver.solve ~assumptions:[ act_p ] plain in
        let r_s = Solver.solve ~assumptions:[ act_s ] simp in
        Alcotest.(check bool) "round result agrees" true (r_p = r_s);
        if r_s = Solver.Sat then begin
          check_model_satisfies simp !all_clauses;
          Alcotest.(check bool) "assumption honoured" true (Solver.value simp act_s)
        end
      done;
      true)

(* Locked-circuit miters: encode two key copies of a randomly locked
   random circuit, constrain the outputs to differ, and compare simp
   vs. plain verdicts.  This drives Tseitin freezing, cofactor-free
   encoding, and BVE over real gate structure. *)
let prop_locked_miter =
  qcheck_case ~count:60 "locked-circuit miters agree"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let base = random_circuit ~seed ~num_inputs:4 ~num_outputs:2 ~gates:18 () in
      let locked = (Xor_lock.lock ~prng:(Prng.create seed) ~num_keys:4 base).Locked.circuit in
      let solve_miter simp =
        let s = Solver.create ~seed ~simp () in
        let env = Tseitin.create s in
        let n_in = Circuit.num_inputs locked and n_key = Circuit.num_keys locked in
        let input_lits = Tseitin.fresh_lits env n_in in
        let k1 = Tseitin.fresh_lits env n_key in
        let k2 = Tseitin.fresh_lits env n_key in
        let o1 = Tseitin.encode env locked ~input_lits ~key_lits:k1 in
        let o2 = Tseitin.encode env locked ~input_lits ~key_lits:k2 in
        let diffs =
          Array.map2
            (fun a b ->
              let d = (Tseitin.fresh_lits env 1).(0) in
              Solver.add_clause s [ Lit.negate d; a; b ];
              Solver.add_clause s [ Lit.negate d; Lit.negate a; Lit.negate b ];
              Solver.add_clause s [ d; Lit.negate a; b ];
              Solver.add_clause s [ d; a; Lit.negate b ];
              d)
            o1 o2
        in
        Solver.add_clause s (Array.to_list diffs);
        let r = Solver.solve s in
        (* On Sat, the witness must be a genuine differentiating pair:
           re-simulate the circuit on the extracted assignment. *)
        if r = Solver.Sat then begin
          let inputs = Array.map (fun l -> Solver.value s l) input_lits in
          let keys1 = Array.map (fun l -> Solver.value s l) k1 in
          let keys2 = Array.map (fun l -> Solver.value s l) k2 in
          let e1 = Eval.eval locked ~inputs ~keys:keys1 in
          let e2 = Eval.eval locked ~inputs ~keys:keys2 in
          Alcotest.(check bool) "witness differentiates" true (e1 <> e2)
        end;
        r
      in
      let r_plain = solve_miter false and r_simp = solve_miter true in
      Alcotest.(check bool) "miter verdict agrees" true (r_plain = r_simp);
      true)

(* Model-blocking loop over a locked circuit's key space: the incremental
   pattern of the SAT attack (same solver queried repeatedly with growing
   clause sets), checked against a plain solver at every round. *)
let prop_blocking_rounds =
  qcheck_case ~count:40 "model-blocking rounds agree"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let base = random_circuit ~seed ~num_inputs:4 ~num_outputs:2 ~gates:14 () in
      let locked = (Xor_lock.lock ~prng:(Prng.create seed) ~num_keys:3 base).Locked.circuit in
      let mk simp =
        let s = Solver.create ~seed ~simp () in
        let env = Tseitin.create s in
        let input_lits = Tseitin.fresh_lits env (Circuit.num_inputs locked) in
        let key_lits = Tseitin.fresh_lits env (Circuit.num_keys locked) in
        ignore (Tseitin.encode env locked ~input_lits ~key_lits);
        (s, key_lits)
      in
      let plain, kp = mk false and simp, ks = mk true in
      let continue = ref true in
      while !continue do
        let r_p = Solver.solve plain and r_s = Solver.solve simp in
        Alcotest.(check bool) "blocking round agrees" true (r_p = r_s);
        if r_s = Solver.Sat then begin
          (* Block the simp solver's key model in both solvers. *)
          let bits = Array.map (fun l -> Solver.value simp l) ks in
          let block klits =
            Array.to_list (Array.mapi (fun i l -> Lit.make (Lit.var l) (not bits.(i))) klits)
          in
          Solver.add_clause simp (block ks);
          Solver.add_clause plain (block kp)
        end
        else continue := false
      done;
      true)

(* Unit: subsumption statistics move and subsumed instances stay
   equivalent. *)
let test_subsumption_stats () =
  let s = Solver.create () in
  let v = Array.init 6 (fun _ -> Solver.new_var s) in
  (* {v0 v1} subsumes {v0 v1 v2}; {~v3 v4} + {v3 v4 v5} self-subsumes to
     {v4 v5}. *)
  Solver.add_clause s [ Lit.pos v.(0); Lit.pos v.(1) ];
  Solver.add_clause s [ Lit.pos v.(0); Lit.pos v.(1); Lit.pos v.(2) ];
  Solver.add_clause s [ Lit.neg v.(3); Lit.pos v.(4) ];
  Solver.add_clause s [ Lit.pos v.(3); Lit.pos v.(4); Lit.pos v.(5) ];
  Array.iter (fun x -> Solver.freeze_var s x) v;
  Alcotest.(check bool) "sat" true (Solver.solve s = Solver.Sat);
  let st = Solver.stats s in
  Alcotest.(check bool) "subsumption fired" true
    (st.Solver.simp_subsumed + st.Solver.simp_self_subsumed > 0)

(* Unit: BVE eliminates an unfrozen chain variable and the model extends
   over it. *)
let test_bve_eliminates_and_extends () =
  let s = Solver.create () in
  let a = Solver.new_var s and x = Solver.new_var s and b = Solver.new_var s in
  Solver.freeze_var s a;
  Solver.freeze_var s b;
  (* a -> x, x -> b: x is a pure chain variable. *)
  Solver.add_clause s [ Lit.neg a; Lit.pos x ];
  Solver.add_clause s [ Lit.neg x; Lit.pos b ];
  Solver.add_clause s [ Lit.pos a ];
  Alcotest.(check bool) "sat" true (Solver.solve s = Solver.Sat);
  Alcotest.(check bool) "a true" true (Solver.model_var s a);
  Alcotest.(check bool) "b true" true (Solver.model_var s b);
  (* Whatever happened to x, its extended value satisfies both clauses. *)
  Alcotest.(check bool) "a->x holds" true ((not (Solver.model_var s a)) || Solver.model_var s x);
  Alcotest.(check bool) "x->b holds" true ((not (Solver.model_var s x)) || Solver.model_var s b)

(* Unit: frozen variables are never eliminated. *)
let test_frozen_not_eliminated () =
  let s = Solver.create () in
  let vs = Array.init 8 (fun _ -> Solver.new_var s) in
  Array.iter (fun v -> Solver.freeze_var s v) vs;
  for i = 0 to 6 do
    Solver.add_clause s [ Lit.neg vs.(i); Lit.pos vs.(i + 1) ]
  done;
  Alcotest.(check bool) "sat" true (Solver.solve s = Solver.Sat);
  Array.iter
    (fun v -> Alcotest.(check bool) "frozen var survives" false (Solver.is_eliminated s v))
    vs;
  Alcotest.(check int) "no eliminations" 0 (Solver.stats s).Solver.simp_eliminated_vars

(* Unit: re-mentioning an eliminated variable restores it, and the solver
   keeps answering correctly. *)
let test_restore_on_mention () =
  let s = Solver.create () in
  let a = Solver.new_var s and x = Solver.new_var s and b = Solver.new_var s in
  Solver.freeze_var s a;
  Solver.freeze_var s b;
  Solver.add_clause s [ Lit.neg a; Lit.pos x ];
  Solver.add_clause s [ Lit.neg x; Lit.pos b ];
  Alcotest.(check bool) "sat" true (Solver.solve s = Solver.Sat);
  (* Whether or not x was eliminated, forcing a and ~x must now conflict
     with a -> x. *)
  Solver.add_clause s [ Lit.pos a ];
  Solver.add_clause s [ Lit.neg x ];
  Alcotest.(check bool) "now unsat" true (Solver.solve s = Solver.Unsat);
  Alcotest.(check bool) "x active again" false (Solver.is_eliminated s x)

(* Unit: assumptions on a previously eliminated variable restore it. *)
let test_restore_on_assumption () =
  let s = Solver.create () in
  let a = Solver.new_var s and x = Solver.new_var s and b = Solver.new_var s in
  Solver.freeze_var s a;
  Solver.freeze_var s b;
  Solver.add_clause s [ Lit.neg a; Lit.pos x ];
  Solver.add_clause s [ Lit.neg x; Lit.pos b ];
  Alcotest.(check bool) "sat" true (Solver.solve s = Solver.Sat);
  Alcotest.(check bool) "unsat under a & ~x" true
    (Solver.solve ~assumptions:[ Lit.pos a; Lit.neg x ] s = Solver.Unsat);
  Alcotest.(check bool) "sat again" true (Solver.solve s = Solver.Sat)

(* --- lazy model extension --- *)

module Tel = LL.Telemetry.Telemetry

let model_extensions snap =
  Option.value ~default:0 (List.assoc_opt "sat.model_extensions" snap.Tel.counters)

(* Random instances on which the solver answers Sat with eliminated
   variables, in a fresh solver per call so the query order can vary. *)
let eliminating_instances () =
  List.filter_map
    (fun seed ->
      let g = Prng.create seed in
      let nvars = 12 + Prng.int g 12 in
      let clauses = random_cnf g ~nvars ~nclauses:(2 * nvars) in
      let make () =
        let s = Solver.create ~seed () in
        for _ = 1 to nvars do
          ignore (Solver.new_var s)
        done;
        List.iter (Solver.add_clause s) clauses;
        s
      in
      let s = make () in
      if Solver.solve s = Solver.Sat && (Solver.stats s).Solver.simp_eliminated_vars > 0 then
        Some (make, nvars, clauses)
      else None)
    (List.init 40 Fun.id)

let test_extension_query_order () =
  let instances = eliminating_instances () in
  Alcotest.(check bool) "instances with eliminated variables exist" true (instances <> []);
  List.iter
    (fun (make, nvars, clauses) ->
      let model ~eliminated_first =
        let s = make () in
        ignore (Solver.solve s);
        let first =
          List.find (fun v -> Solver.is_eliminated s v = eliminated_first) (List.init nvars Fun.id)
        in
        ignore (Solver.model_var s first);
        check_model_satisfies s clauses;
        List.init nvars (Solver.model_var s)
      in
      Alcotest.(check (list bool)) "same model whichever variable is asked first"
        (model ~eliminated_first:false) (model ~eliminated_first:true))
    instances

(* a -> x -> b with a and b frozen: x is eliminated, and its extended
   value is forced by whichever end the assumptions pin. *)
let chain () =
  let s = Solver.create () in
  let a = Solver.new_var s and x = Solver.new_var s and b = Solver.new_var s in
  Solver.freeze_var s a;
  Solver.freeze_var s b;
  Solver.add_clause s [ Lit.neg a; Lit.pos x ];
  Solver.add_clause s [ Lit.neg x; Lit.pos b ];
  (s, a, x, b)

(* [Solver.simplify] runs the session the first solve would start with.
   Pinning a variable that session eliminated, on a copy, restores it in
   the copy alone: the simplified original is left as it was. *)
let test_pin_eliminated_on_copy () =
  let s, a, x, _ = chain () in
  Solver.simplify s;
  Alcotest.(check bool) "x eliminated before any solve" true (Solver.is_eliminated s x);
  let copy = Solver.copy ~seed:3 s in
  Solver.add_clause copy [ Lit.neg x ];
  Alcotest.(check bool) "x restored in the copy" false (Solver.is_eliminated copy x);
  Alcotest.(check bool) "a -> x refutes a in the copy" true
    (Solver.solve ~assumptions:[ Lit.pos a ] copy = Solver.Unsat);
  Alcotest.(check bool) "copy sat without a" true (Solver.solve copy = Solver.Sat);
  Alcotest.(check bool) "pin holds" false (Solver.model_var copy x);
  Alcotest.(check bool) "original keeps x eliminated" true (Solver.is_eliminated s x);
  Alcotest.(check bool) "original sat under a" true
    (Solver.solve ~assumptions:[ Lit.pos a ] s = Solver.Sat);
  Alcotest.(check bool) "x follows a in the original" true (Solver.model_var s x)

(* [simplify] followed by [solve] searches exactly as [solve] alone: the
   solve finds nothing new to simplify, so the counters and the model
   match a twin that only solved. *)
let test_simplify_then_solve_is_solve () =
  let instances = eliminating_instances () in
  Alcotest.(check bool) "instances with eliminated variables exist" true (instances <> []);
  List.iter
    (fun (make, nvars, _) ->
      let trace s =
        let r = Solver.solve s in
        let st = Solver.stats s in
        ( r,
          (st.Solver.conflicts, st.Solver.decisions, st.Solver.propagations),
          st.Solver.simp_eliminated_vars,
          List.init nvars (Solver.model_var s) )
      in
      let simplified = make () in
      Solver.simplify simplified;
      let eliminated = (Solver.stats simplified).Solver.simp_eliminated_vars in
      let ((_, _, eliminated_after, _) as t) = trace simplified in
      Alcotest.(check int) "the solve ran no session of its own" eliminated eliminated_after;
      Alcotest.(check bool) "same search and model" true (t = trace (make ())))
    instances

let test_extension_per_model () =
  let s, a, x, b = chain () in
  let snap =
    Fun.protect ~finally:Tel.disable @@ fun () ->
    Tel.enable ();
    Alcotest.(check bool) "sat under a" true (Solver.solve ~assumptions:[ Lit.pos a ] s = Solver.Sat);
    Alcotest.(check bool) "x eliminated" true (Solver.is_eliminated s x);
    Alcotest.(check bool) "x follows a" true (Solver.model_var s x);
    Alcotest.(check bool) "x asked again" true (Solver.model_var s x);
    Alcotest.(check bool) "sat under ~b" true
      (Solver.solve ~assumptions:[ Lit.neg b ] s = Solver.Sat);
    Alcotest.(check bool) "x still eliminated" true (Solver.is_eliminated s x);
    Alcotest.(check bool) "x re-extended from the second model" false (Solver.model_var s x);
    Tel.snapshot ()
  in
  Tel.reset ();
  Alcotest.(check int) "one replay per model" 2 (model_extensions snap)

let test_extension_dropped_by_mutation () =
  let raises s v =
    match Solver.model_var s v with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  let s, a, x, _ = chain () in
  let c = Solver.new_var s in
  Solver.freeze_var s c;
  Alcotest.(check bool) "sat" true (Solver.solve ~assumptions:[ Lit.pos a ] s = Solver.Sat);
  Alcotest.(check bool) "x eliminated" true (Solver.is_eliminated s x);
  Alcotest.(check bool) "x extended" true (Solver.model_var s x);
  Solver.add_clause s [ Lit.pos c ];
  Alcotest.(check bool) "extended model dropped by add_clause" true (raises s x)

let test_attack_never_extends () =
  let c = random_circuit ~seed:102 ~num_inputs:8 ~num_outputs:3 ~gates:40 () in
  let locked = LL.Locking.Sarlock.lock ~prng:(Prng.create 5) ~key_size:5 c in
  let snap =
    Fun.protect ~finally:Tel.disable @@ fun () ->
    Tel.enable ();
    let r =
      LL.Attack.Sat_attack.run locked.Locked.circuit ~oracle:(LL.Attack.Oracle.of_circuit c)
    in
    Alcotest.(check int) "#DIP" 31 r.LL.Attack.Sat_attack.num_dips;
    Tel.snapshot ()
  in
  Tel.reset ();
  let counter name = Option.value ~default:0 (List.assoc_opt name snap.Tel.counters) in
  Alcotest.(check bool) "variables were eliminated" true (counter "sat.simp.eliminated_vars" > 0);
  Alcotest.(check int) "no model was extended" 0 (model_extensions snap)

(* DRUP: with proof recording on, elimination stays off and the recorded
   refutation — which includes subsumption / strengthening /
   vivification events — verifies with the independent checker. *)
let test_drup_mode_no_elimination () =
  let s = Solver.create () in
  Solver.enable_proof s;
  let v = Array.init 7 (fun _ -> Array.init 6 (fun _ -> Solver.new_var s)) in
  let cnf = ref [] in
  let add clause =
    Solver.add_clause s clause;
    cnf := clause :: !cnf
  in
  for i = 0 to 6 do
    add (List.init 6 (fun j -> Lit.pos v.(i).(j)))
  done;
  for j = 0 to 5 do
    for i1 = 0 to 6 do
      for i2 = i1 + 1 to 6 do
        add [ Lit.neg v.(i1).(j); Lit.neg v.(i2).(j) ]
      done
    done
  done;
  Alcotest.(check bool) "unsat" true (Solver.solve s = Solver.Unsat);
  Alcotest.(check int) "no eliminations under proof" 0
    (Solver.stats s).Solver.simp_eliminated_vars;
  (match Drup.check_refutation ~num_vars:(Solver.num_vars s) ~cnf:!cnf ~proof:(Solver.proof s) with
  | Drup.Verified -> ()
  | Drup.Failed { step; reason } ->
      Alcotest.fail (Printf.sprintf "proof rejected at step %d: %s" step reason))

let suite =
  [
    Alcotest.test_case "subsumption stats" `Quick test_subsumption_stats;
    Alcotest.test_case "bve eliminates and extends" `Quick test_bve_eliminates_and_extends;
    Alcotest.test_case "frozen not eliminated" `Quick test_frozen_not_eliminated;
    Alcotest.test_case "restore on mention" `Quick test_restore_on_mention;
    Alcotest.test_case "restore on assumption" `Quick test_restore_on_assumption;
    Alcotest.test_case "pin eliminated on a simplified copy" `Quick test_pin_eliminated_on_copy;
    Alcotest.test_case "simplify then solve is solve" `Quick test_simplify_then_solve_is_solve;
    Alcotest.test_case "drup mode: no elimination, proof verifies" `Quick
      test_drup_mode_no_elimination;
    Alcotest.test_case "extension independent of query order" `Quick test_extension_query_order;
    Alcotest.test_case "extension computed once per model" `Quick test_extension_per_model;
    Alcotest.test_case "extension dropped by mutation" `Quick test_extension_dropped_by_mutation;
    Alcotest.test_case "sat attack never extends a model" `Quick test_attack_never_extends;
    prop_random_cnf;
    prop_incremental;
    prop_locked_miter;
    prop_blocking_rounds;
  ]
