(* The batched multi-DIP attack pipeline: q DIPs per solve, one packed
   oracle sweep, one batched constraint encode.

   Covers the batch APIs in isolation (Oracle.query_batch,
   Solver.add_clause_batch, Tseitin.with_batch) and the pipeline
   end-to-end: differential fuzz against the classic q = 1 loop over
   random locked circuits, batching under the solver's inprocessing
   engine (frozen guard literals must survive BVE across batch
   boundaries), adaptive batch-size control, and the overlapped oracle
   sweep on a runtime pool. *)

open Helpers
module Oracle = LL.Attack.Oracle
module Sat_attack = LL.Attack.Sat_attack
module Equiv = LL.Attack.Equiv
module Instantiate = LL.Netlist.Instantiate
module Solver = LL.Sat.Solver
module Tseitin = LL.Sat.Tseitin
module Lit = LL.Sat.Lit

let fixed q =
  { Sat_attack.q; q_max = q; adaptive = false }

let attack ?(db = Sat_attack.default_dip_batch) ?(simp = true) locked ~oracle =
  let config =
    { Sat_attack.default_config with dip_batch = db; solver_simp = simp }
  in
  Sat_attack.run ~config locked ~oracle

let key_unlocks original locked key =
  match Equiv.check original (Instantiate.bind_keys locked key) with
  | Equiv.Equivalent -> true
  | Equiv.Counterexample _ -> false

(* ------------------------------------------------------------------ *)
(* Oracle.query_batch                                                  *)
(* ------------------------------------------------------------------ *)

let random_patterns ~seed ~count n =
  let g = Prng.create seed in
  Array.init count (fun _ -> Array.init n (fun _ -> Prng.bool g))

let test_query_batch_matches_scalar () =
  (* > 64 patterns so the packed path needs more than one sweep. *)
  let c = random_circuit ~seed:200 ~num_inputs:7 ~num_outputs:3 () in
  let o_batch = Oracle.of_circuit c in
  let o_scalar = Oracle.of_circuit c in
  let patterns = random_patterns ~seed:201 ~count:100 7 in
  let batched = Oracle.query_batch o_batch patterns in
  let scalar = Array.map (Oracle.query o_scalar) patterns in
  Alcotest.(check int) "response count" 100 (Array.length batched);
  Array.iteri
    (fun i r ->
      Alcotest.(check (array bool))
        (Printf.sprintf "response %d" i)
        scalar.(i) r)
    batched;
  Alcotest.(check int) "counted as 100 queries" (Oracle.query_count o_scalar)
    (Oracle.query_count o_batch)

let test_query_batch_function_oracle () =
  (* Function-backed oracles have no packed kernel: the scalar fallback
     must still be bit-identical and counted the same. *)
  let behaviour inputs = [| Array.exists Fun.id inputs; inputs.(0) |] in
  let o = Oracle.of_function ~num_inputs:5 ~num_outputs:2 behaviour in
  let patterns = random_patterns ~seed:202 ~count:9 5 in
  let responses = Oracle.query_batch o patterns in
  Array.iteri
    (fun i r ->
      Alcotest.(check (array bool))
        (Printf.sprintf "response %d" i)
        (behaviour patterns.(i))
        r)
    responses;
  Alcotest.(check int) "counted" 9 (Oracle.query_count o)

let test_query_batch_restricted () =
  let c = random_circuit ~seed:203 ~num_inputs:6 ~num_outputs:2 () in
  let parent = Oracle.of_circuit c in
  let condition = [ (1, true); (4, false) ] in
  let restricted = Oracle.restrict parent condition in
  let patterns = random_patterns ~seed:204 ~count:70 4 in
  let batched = Oracle.query_batch restricted patterns in
  Array.iteri
    (fun i r ->
      Alcotest.(check (array bool))
        (Printf.sprintf "response %d" i)
        (Oracle.query restricted patterns.(i))
        r)
    batched;
  Alcotest.(check int) "counts accumulate on the parent" 140
    (Oracle.query_count parent)

let test_query_batch_rejects_bad_length () =
  let c = random_circuit ~seed:205 ~num_inputs:5 () in
  let o = Oracle.of_circuit c in
  Alcotest.check_raises "wrong-length pattern"
    (Invalid_argument "Oracle.query_batch: pattern length") (fun () ->
      ignore (Oracle.query_batch o [| Array.make 5 false; Array.make 4 false |]))

(* ------------------------------------------------------------------ *)
(* Solver.add_clause_batch / Tseitin.with_batch                        *)
(* ------------------------------------------------------------------ *)

let test_add_clause_batch_equivalence () =
  (* The batched append must build the same clause database as
     sequential adds: same attached-clause count, same solve result. *)
  let g = Prng.create 206 in
  let nvars = 30 in
  let clauses =
    List.init 100 (fun _ ->
        Array.init 3 (fun _ -> Lit.make (Prng.int g nvars) (Prng.bool g)))
  in
  let build add =
    let s = Solver.create () in
    for _ = 1 to nvars do
      ignore (Solver.new_var s)
    done;
    add s clauses;
    s
  in
  let seq = build (fun s cs -> List.iter (Solver.add_clause_a s) cs) in
  let batch = build Solver.add_clause_batch in
  Alcotest.(check int) "same clause count" (Solver.num_clauses seq)
    (Solver.num_clauses batch);
  Alcotest.(check bool) "same solve result" true
    (Solver.solve seq = Solver.solve batch)

let test_with_batch_equivalence () =
  (* Encoding a circuit under with_batch (clauses buffered, flushed as one
     arena append) must leave a logically identical instance. *)
  let c = random_circuit ~seed:207 ~num_inputs:6 ~num_outputs:2 ~gates:40 () in
  let encode batched =
    let s = Solver.create () in
    let env = Tseitin.create s in
    let input_lits = Tseitin.fresh_lits env 6 in
    let go () = Tseitin.encode env c ~input_lits ~key_lits:[||] in
    let outs = if batched then Tseitin.with_batch env go else go () in
    Array.iter (fun l -> Tseitin.force env l true) outs;
    (s, Solver.solve s)
  in
  let s_plain, r_plain = encode false in
  let s_batch, r_batch = encode true in
  Alcotest.(check bool) "same solve result" true (r_plain = r_batch);
  (* Deferred unit propagation may change which clauses are absorbed at
     add time, but never by much on a plain encode; the batched database
     is never larger than the sequential one plus its deferred units. *)
  Alcotest.(check bool) "clause counts comparable" true
    (abs (Solver.num_clauses s_plain - Solver.num_clauses s_batch) <= 8)

let test_with_batch_reentrant_and_exception_safe () =
  (* a = true, a = b, b = c, c = false — unsatisfiable iff every buffered
     clause (including those of the nested batch) survives the exception
     unwinding and reaches the solver. *)
  let s = Solver.create () in
  let env = Tseitin.create s in
  let lits = Tseitin.fresh_lits env 3 in
  (try
     Tseitin.with_batch env (fun () ->
         Tseitin.force env lits.(0) true;
         Tseitin.with_batch env (fun () ->
             Tseitin.force_equal env lits.(0) lits.(1));
         Tseitin.force_equal env lits.(1) lits.(2);
         Tseitin.force env lits.(2) false;
         failwith "boom")
   with Failure _ -> ());
  Alcotest.(check bool) "buffered clauses flushed on exception" true
    (Solver.solve s = Solver.Unsat)

(* ------------------------------------------------------------------ *)
(* Pipeline end-to-end                                                 *)
(* ------------------------------------------------------------------ *)

let test_q1_identical_to_default () =
  let c = random_circuit ~seed:210 ~num_inputs:8 () in
  let locked = (LL.Locking.Sarlock.lock ~key_size:5 c).circuit in
  let oracle = Oracle.of_circuit c in
  let a = attack locked ~oracle in
  let b = attack ~db:(fixed 1) locked ~oracle in
  Alcotest.(check bool) "same key" true (a.Sat_attack.key = b.Sat_attack.key);
  Alcotest.(check int) "same #DIP" a.Sat_attack.num_dips b.Sat_attack.num_dips;
  Alcotest.(check int) "same rounds" a.Sat_attack.rounds b.Sat_attack.rounds;
  Alcotest.(check bool) "same DIP sequence" true
    (List.map Bitvec.to_string a.Sat_attack.dips
    = List.map Bitvec.to_string b.Sat_attack.dips);
  Alcotest.(check int) "rounds = dips at q=1" a.Sat_attack.num_dips
    a.Sat_attack.rounds

let test_differential_fuzz_vs_q1 () =
  (* Differential property over random locked circuits: every batched
     configuration recovers a functionally correct key, never needs more
     main solves than it gathers DIPs, and on point-function locking —
     where every DIP eliminates exactly one wrong key, so batch members
     are never redundant — compresses the round count below the classic
     loop's DIP count.  (The compression bound does NOT hold universally:
     on an instance the classic loop breaks in a handful of DIPs, a batch
     enumerated without intermediate oracle feedback can contain
     redundant members and spend extra rounds.) *)
  let cases =
    [
      ( true,
        fun seed ->
          let c = random_circuit ~seed ~num_inputs:7 () in
          (c, (LL.Locking.Sarlock.lock ~key_size:5 c).circuit) );
      ( false,
        fun seed ->
          let c = random_circuit ~seed ~num_inputs:7 ~gates:40 () in
          (c, (LL.Locking.Xor_lock.lock ~num_keys:6 c).circuit) );
      ( false,
        fun _seed ->
          let c = random_circuit ~seed:124 ~num_inputs:8 ~num_outputs:3 ~gates:60 () in
          (c, (LL.Locking.Lut_lock.lock ~stage1_luts:2 ~stage1_inputs:3 c).circuit)
      );
    ]
  in
  List.iteri
    (fun i (point_function, make) ->
      let original, locked = make (220 + i) in
      let oracle () = Oracle.of_circuit original in
      let base = attack ~db:(fixed 1) locked ~oracle:(oracle ()) in
      Alcotest.(check bool)
        (Printf.sprintf "case %d: q=1 broken" i)
        true
        (base.Sat_attack.status = Sat_attack.Broken);
      List.iter
        (fun q ->
          let r = attack ~db:(fixed q) locked ~oracle:(oracle ()) in
          let tag = Printf.sprintf "case %d q=%d" i q in
          Alcotest.(check bool) (tag ^ ": broken") true
            (r.Sat_attack.status = Sat_attack.Broken);
          (match r.Sat_attack.key with
          | None -> Alcotest.fail (tag ^ ": no key")
          | Some k ->
              Alcotest.(check bool)
                (tag ^ ": key unlocks")
                true
                (key_unlocks original locked k));
          Alcotest.(check bool)
            (tag ^ ": rounds <= dips")
            true
            (r.Sat_attack.rounds <= r.Sat_attack.num_dips);
          if point_function then
            Alcotest.(check bool)
              (tag ^ ": rounds <= q1 dips")
              true
              (r.Sat_attack.rounds <= base.Sat_attack.num_dips);
          Alcotest.(check bool)
            (tag ^ ": oracle counted per DIP")
            true
            (r.Sat_attack.oracle_queries >= r.Sat_attack.num_dips))
        [ 4; 16; 64 ])
    cases

let test_key_free_outputs_lock () =
  (* Degenerate lock: Lut_lock on this instance replaces gates outside
     every output cone, so no output is key-dependent.  [prepare] must
     fall back to the whole-circuit path instead of building an empty
     key cone, and the attack closes immediately — any key unlocks. *)
  let original =
    random_circuit ~seed:222 ~num_inputs:7 ~num_outputs:2 ~gates:50 ()
  in
  let locked =
    (LL.Locking.Lut_lock.lock ~stage1_luts:2 ~stage1_inputs:2 original).circuit
  in
  List.iter
    (fun q ->
      let r = attack ~db:(fixed q) locked ~oracle:(Oracle.of_circuit original) in
      let tag = Printf.sprintf "key-free q=%d" q in
      Alcotest.(check bool) (tag ^ ": broken") true
        (r.Sat_attack.status = Sat_attack.Broken);
      Alcotest.(check int) (tag ^ ": no dips") 0 r.Sat_attack.num_dips;
      match r.Sat_attack.key with
      | None -> Alcotest.fail (tag ^ ": no key")
      | Some k ->
          Alcotest.(check bool)
            (tag ^ ": key unlocks")
            true
            (key_unlocks original locked k))
    [ 1; 16 ]

let test_batched_survives_inprocessing () =
  (* solver_simp on, q = 8 over 63 DIPs: many enumeration guards are
     created, used across batch boundaries and retired, all while BVE
     runs between solves — the frozen-literal protocol under fire. *)
  let c = random_circuit ~seed:230 ~num_inputs:8 () in
  let sar = LL.Locking.Sarlock.lock ~key_size:6 c in
  let oracle = Oracle.of_circuit c in
  let r = attack ~db:(fixed 8) ~simp:true sar.circuit ~oracle in
  Alcotest.(check bool) "broken" true (r.Sat_attack.status = Sat_attack.Broken);
  Alcotest.(check bool) "multiple batches ran" true (r.Sat_attack.rounds >= 2);
  Alcotest.(check bool) "batching compressed rounds" true
    (r.Sat_attack.rounds < r.Sat_attack.num_dips);
  match r.Sat_attack.key with
  | None -> Alcotest.fail "no key"
  | Some k ->
      Alcotest.check bitvec_testable "recovered the sarlock key" sar.correct_key k

let test_adaptive_control () =
  let c = random_circuit ~seed:231 ~num_inputs:8 () in
  let sar = LL.Locking.Sarlock.lock ~key_size:6 c in
  let oracle = Oracle.of_circuit c in
  let r = attack ~db:(Sat_attack.batched ~q_max:32 4) sar.circuit ~oracle in
  Alcotest.(check bool) "broken" true (r.Sat_attack.status = Sat_attack.Broken);
  Alcotest.(check bool) "fewer rounds than dips" true
    (r.Sat_attack.rounds < r.Sat_attack.num_dips);
  match r.Sat_attack.key with
  | None -> Alcotest.fail "no key"
  | Some k ->
      Alcotest.check bitvec_testable "recovered the sarlock key" sar.correct_key k

let test_batched_respects_iteration_limit () =
  let c = random_circuit ~seed:233 ~num_inputs:8 () in
  let locked = (LL.Locking.Sarlock.lock ~key_size:6 c).circuit in
  let oracle = Oracle.of_circuit c in
  let config =
    { Sat_attack.default_config with
      max_iterations = Some 10;
      dip_batch = fixed 16
    }
  in
  let r = Sat_attack.run ~config locked ~oracle in
  Alcotest.(check bool) "limit status" true
    (r.Sat_attack.status = Sat_attack.Iteration_limit);
  Alcotest.(check bool) "batch clipped to the budget" true
    (r.Sat_attack.num_dips <= 10)

let test_invalid_dip_batch_rejected () =
  let c = random_circuit ~seed:234 ~num_inputs:6 () in
  let locked = (LL.Locking.Sarlock.lock ~key_size:4 c).circuit in
  let oracle = Oracle.of_circuit c in
  List.iter
    (fun db ->
      Alcotest.(check bool) "rejected" true
        (try
           ignore
             (Sat_attack.run
                ~config:{ Sat_attack.default_config with dip_batch = db }
                locked ~oracle);
           false
         with Invalid_argument _ -> true))
    [ fixed 0; fixed 65; { Sat_attack.q = 8; q_max = 4; adaptive = true } ];
  List.iter
    (fun q ->
      Alcotest.(check bool) "batched validates" true
        (try
           ignore (Sat_attack.batched q);
           false
         with Invalid_argument _ -> true))
    [ 0; 65 ]

let suite =
  [
    Alcotest.test_case "query_batch matches scalar" `Quick
      test_query_batch_matches_scalar;
    Alcotest.test_case "query_batch function oracle" `Quick
      test_query_batch_function_oracle;
    Alcotest.test_case "query_batch restricted" `Quick test_query_batch_restricted;
    Alcotest.test_case "query_batch rejects bad length" `Quick
      test_query_batch_rejects_bad_length;
    Alcotest.test_case "add_clause_batch equivalence" `Quick
      test_add_clause_batch_equivalence;
    Alcotest.test_case "with_batch equivalence" `Quick test_with_batch_equivalence;
    Alcotest.test_case "with_batch reentrant + exception safe" `Quick
      test_with_batch_reentrant_and_exception_safe;
    Alcotest.test_case "q=1 identical to default" `Quick test_q1_identical_to_default;
    Alcotest.test_case "differential fuzz vs q=1" `Slow test_differential_fuzz_vs_q1;
    Alcotest.test_case "key-free-outputs lock" `Quick test_key_free_outputs_lock;
    Alcotest.test_case "batched survives inprocessing" `Quick
      test_batched_survives_inprocessing;
    Alcotest.test_case "adaptive control" `Quick test_adaptive_control;
    Alcotest.test_case "batched respects iteration limit" `Quick
      test_batched_respects_iteration_limit;
    Alcotest.test_case "invalid dip_batch rejected" `Quick
      test_invalid_dip_batch_rejected;
  ]
