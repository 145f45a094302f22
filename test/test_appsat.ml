open Helpers
module Oracle = LL.Attack.Oracle
module Appsat = LL.Attack.Appsat
module Analysis = LL.Attack.Analysis

let test_terminates_early_on_sarlock () =
  (* SARLock with a large key: the exact attack needs 2^K-1 DIPs, AppSAT
     should settle for an approximate key after a handful. *)
  let c = random_circuit ~seed:220 ~num_inputs:12 ~num_outputs:3 ~gates:50 () in
  let locked = LL.Locking.Sarlock.lock ~key_size:12 c in
  let oracle = Oracle.of_circuit c in
  let r = Appsat.run ~target_error:0.01 locked.circuit ~oracle in
  Alcotest.(check bool) "far fewer than 4095 dips" true (r.Appsat.num_dips < 200);
  match r.Appsat.key with
  | None -> Alcotest.fail "no key returned"
  | Some key ->
      (* Exact check: the approximate key's true error rate is tiny. *)
      let rate =
        Analysis.sampled_error_rate ~samples:8192 ~original:c ~locked:locked.circuit key
      in
      Alcotest.(check bool)
        (Printf.sprintf "error rate %.4f below 2%%" rate)
        true (rate < 0.02)

let test_exact_convergence_on_xor () =
  (* XOR locking has no error-sparse wrong keys: the DIP loop converges
     before the error estimate triggers, and the result is exact. *)
  let c = random_circuit ~seed:221 ~num_inputs:8 ~num_outputs:3 ~gates:40 () in
  let locked = LL.Locking.Xor_lock.lock ~num_keys:8 c in
  let oracle = Oracle.of_circuit c in
  let r = Appsat.run ~check_every:1000 locked.circuit ~oracle in
  Alcotest.(check bool) "exact" true r.Appsat.exact;
  match r.Appsat.key with
  | None -> Alcotest.fail "no key"
  | Some key ->
      Alcotest.(check bool) "functionally correct" true
        (match
           LL.Attack.Equiv.check c (LL.Netlist.Instantiate.bind_keys locked.circuit key)
         with
        | LL.Attack.Equiv.Equivalent -> true
        | LL.Attack.Equiv.Counterexample _ -> false)

let test_iteration_cap () =
  let c = random_circuit ~seed:222 ~num_inputs:10 () in
  let locked = LL.Locking.Sarlock.lock ~key_size:10 c in
  let oracle = Oracle.of_circuit c in
  (* Impossible target: must stop at the cap and still report a candidate. *)
  let r = Appsat.run ~target_error:0.0 ~check_every:1000 ~max_iterations:7 locked.circuit ~oracle in
  Alcotest.(check int) "capped" 7 r.Appsat.num_dips;
  Alcotest.(check bool) "not exact" false r.Appsat.exact

let test_pool_estimation_deterministic () =
  (* The error-estimate batches have a fixed split-stream structure, so
     running them on a pool (of any width) must not change the attack's
     result at all. *)
  let c = random_circuit ~seed:223 ~num_inputs:12 ~num_outputs:3 ~gates:50 () in
  let locked = LL.Locking.Sarlock.lock ~key_size:12 c in
  let attack pool =
    let oracle = Oracle.of_circuit c in
    Appsat.run ~prng:(Prng.create 7) ~target_error:0.01 ?pool locked.circuit ~oracle
  in
  let serial = attack None in
  LL.Runtime.Pool.with_pool ~num_domains:4 (fun pool ->
      let pooled = attack (Some pool) in
      Alcotest.(check (float 0.0)) "same estimated error" serial.Appsat.estimated_error
        pooled.Appsat.estimated_error;
      Alcotest.(check int) "same #DIP" serial.Appsat.num_dips pooled.Appsat.num_dips;
      Alcotest.(check int) "same oracle cost" serial.Appsat.oracle_queries
        pooled.Appsat.oracle_queries;
      Alcotest.(check (option bitvec_testable)) "same key" serial.Appsat.key
        pooled.Appsat.key;
      Alcotest.(check bool) "pool actually sampled" true
        ((LL.Runtime.Pool.stats pool).LL.Runtime.Pool.tasks_run > 0))

let test_validation () =
  let c = full_adder_circuit () in
  let oracle = Oracle.of_circuit c in
  Alcotest.check_raises "keyless" (Invalid_argument "Appsat.run: circuit has no keys")
    (fun () -> ignore (Appsat.run c ~oracle));
  let c = random_circuit ~seed:224 ~num_inputs:6 ~num_outputs:3 () in
  let locked = (LL.Locking.Sarlock.lock ~key_size:4 c).circuit in
  let oracle = Oracle.of_circuit c in
  List.iter
    (fun (label, msg, run) ->
      Alcotest.check_raises label (Invalid_argument ("Appsat.run: " ^ msg)) (fun () ->
          ignore (run ())))
    [
      ( "check_every 0",
        "check_every must be >= 1",
        fun () -> Appsat.run ~check_every:0 locked ~oracle );
      ("samples 0", "samples must be >= 1", fun () -> Appsat.run ~samples:0 locked ~oracle);
      ( "max_iterations -1",
        "max_iterations must be >= 0",
        fun () -> Appsat.run ~max_iterations:(-1) locked ~oracle );
    ];
  (* Same input count, one output too few. *)
  let narrow = random_circuit ~seed:225 ~num_inputs:6 ~num_outputs:2 () in
  Alcotest.(check bool) "oracle output count" true
    (try
       ignore (Appsat.run locked ~oracle:(Oracle.of_circuit narrow));
       false
     with Invalid_argument _ -> true)

let suite =
  [
    Alcotest.test_case "terminates early on sarlock" `Quick test_terminates_early_on_sarlock;
    Alcotest.test_case "exact convergence on xor" `Quick test_exact_convergence_on_xor;
    Alcotest.test_case "iteration cap" `Quick test_iteration_cap;
    Alcotest.test_case "pool estimation deterministic" `Quick
      test_pool_estimation_deterministic;
    Alcotest.test_case "validation" `Quick test_validation;
  ]
