open Helpers
module Oracle = LL.Attack.Oracle
module Split_attack = LL.Attack.Split_attack
module Sat_attack = LL.Attack.Sat_attack
module Compose = LL.Attack.Compose
module Equiv = LL.Attack.Equiv

let composed_equivalent original locked attack =
  match Compose.of_attack locked attack with
  | None -> false
  | Some composed -> (
      match Equiv.check original composed with
      | Equiv.Equivalent -> true
      | Equiv.Counterexample _ -> false)

let test_task_count () =
  let c = random_circuit ~seed:120 ~num_inputs:8 () in
  let locked = (LL.Locking.Sarlock.lock ~key_size:4 c).circuit in
  let oracle = Oracle.of_circuit c in
  List.iter
    (fun n ->
      let s = Split_attack.run ~n locked ~oracle in
      Alcotest.(check int) "2^n tasks" (1 lsl n) (Array.length s.Split_attack.tasks);
      Alcotest.(check int) "n split inputs" n (Array.length s.split_inputs))
    [ 0; 1; 2; 3 ]

let test_sarlock_dip_halving () =
  (* The paper's Table 1 law: total wrong keys split across tasks, the
     per-task #DIP is ~2^(K-N). *)
  let c = random_circuit ~seed:121 ~num_inputs:8 () in
  let locked = (LL.Locking.Sarlock.lock ~key_size:6 c).circuit in
  let oracle = Oracle.of_circuit c in
  List.iter
    (fun n ->
      let s = Split_attack.run ~n locked ~oracle in
      let dips = Array.map (fun t -> t.Split_attack.result.Sat_attack.num_dips) s.tasks in
      let total = Array.fold_left ( + ) 0 dips in
      Alcotest.(check int)
        (Printf.sprintf "total DIPs at n=%d" n)
        ((1 lsl 6) - 1)
        total;
      Array.iter
        (fun d ->
          Alcotest.(check bool)
            (Printf.sprintf "per-task #DIP near 2^(6-%d)" n)
            true
            (d = 1 lsl (6 - n) || d = (1 lsl (6 - n)) - 1))
        dips)
    [ 1; 2; 3 ]

let test_multikey_composition_unlocks () =
  let c = random_circuit ~seed:122 ~num_inputs:8 ~num_outputs:3 ~gates:40 () in
  let locked = (LL.Locking.Sarlock.lock ~key_size:5 c).circuit in
  let oracle = Oracle.of_circuit c in
  let s = Split_attack.run ~n:2 locked ~oracle in
  Alcotest.(check bool) "composed equivalent" true (composed_equivalent c locked s)

let test_keys_often_incorrect_individually () =
  (* The paper's core claim: the per-task keys need not be globally
     correct, yet the composition is.  With SARLock most task keys are
     wrong keys for the full design. *)
  let c = random_circuit ~seed:123 ~num_inputs:8 () in
  let sar = LL.Locking.Sarlock.lock ~key_size:5 c in
  let oracle = Oracle.of_circuit c in
  let s = Split_attack.run ~n:2 sar.circuit ~oracle in
  match Split_attack.keys s with
  | None -> Alcotest.fail "tasks failed"
  | Some keys ->
      let globally_wrong =
        Array.to_list keys
        |> List.filter (fun k ->
               match Equiv.check c (LL.Netlist.Instantiate.bind_keys sar.circuit k) with
               | Equiv.Equivalent -> false
               | Equiv.Counterexample _ -> true)
      in
      Alcotest.(check bool) "some keys are globally wrong" true
        (List.length globally_wrong >= 1);
      Alcotest.(check bool) "composition still equivalent" true
        (composed_equivalent c sar.circuit s)

let test_lut_locking_split () =
  let c = random_circuit ~seed:124 ~num_inputs:8 ~num_outputs:3 ~gates:60 () in
  let locked = (LL.Locking.Lut_lock.lock ~stage1_luts:2 ~stage1_inputs:3 c).circuit in
  let oracle = Oracle.of_circuit c in
  let s = Split_attack.run ~n:2 locked ~oracle in
  Alcotest.(check bool) "composed equivalent" true (composed_equivalent c locked s)

let test_n_zero_degenerates_to_sat_attack () =
  let c = random_circuit ~seed:125 ~num_inputs:6 () in
  let locked = (LL.Locking.Sarlock.lock ~key_size:4 c).circuit in
  let oracle = Oracle.of_circuit c in
  let s = Split_attack.run ~n:0 locked ~oracle in
  Alcotest.(check int) "one task" 1 (Array.length s.tasks);
  Alcotest.(check int) "#DIP matches baseline" 15
    s.tasks.(0).Split_attack.result.Sat_attack.num_dips;
  Alcotest.(check bool) "composed equivalent" true (composed_equivalent c locked s)

let test_explicit_split_inputs () =
  let c = random_circuit ~seed:126 ~num_inputs:8 () in
  let locked = (LL.Locking.Sarlock.lock ~key_size:4 c).circuit in
  let oracle = Oracle.of_circuit c in
  let s = Split_attack.run ~inputs:[| 7; 6 |] ~n:2 locked ~oracle in
  Alcotest.(check (array int)) "used given inputs" [| 7; 6 |] s.split_inputs;
  Alcotest.(check bool) "composed equivalent" true (composed_equivalent c locked s)

let test_sub_task_metadata () =
  let c = random_circuit ~seed:127 ~num_inputs:8 () in
  let locked = (LL.Locking.Sarlock.lock ~key_size:4 c).circuit in
  let oracle = Oracle.of_circuit c in
  let s = Split_attack.run ~n:2 locked ~oracle in
  Array.iter
    (fun t ->
      Alcotest.(check int) "2 pinned" 2 (List.length t.Split_attack.condition);
      Alcotest.(check int) "6 free inputs" 6 t.sub_inputs;
      Alcotest.(check bool) "positive time" true (t.task_time >= 0.0))
    s.tasks;
  Alcotest.(check bool) "stats order" true
    (Split_attack.min_task_time s <= Split_attack.mean_task_time s
    && Split_attack.mean_task_time s <= Split_attack.max_task_time s)

let test_parallel_matches_sequential () =
  let c = random_circuit ~seed:128 ~num_inputs:8 () in
  let locked = (LL.Locking.Sarlock.lock ~key_size:4 c).circuit in
  let oracle = Oracle.of_circuit c in
  let seq = Split_attack.run ~n:2 locked ~oracle in
  let par = Split_attack.run_parallel ~num_domains:2 ~n:2 locked ~oracle in
  Alcotest.(check int) "domains recorded" 2 par.Split_attack.domains_used;
  let dips a = Array.map (fun t -> t.Split_attack.result.Sat_attack.num_dips) a.Split_attack.tasks in
  Alcotest.(check (array int)) "same per-task #DIP" (dips seq) (dips par);
  Alcotest.(check bool) "composed equivalent" true (composed_equivalent c locked par)

let test_deterministic_across_domain_counts () =
  (* Acceptance: keys, statuses and DIP counts are byte-identical between
     the serial runner and the pooled runner at every domain count. *)
  let c = random_circuit ~seed:140 ~num_inputs:8 () in
  let locked = (LL.Locking.Sarlock.lock ~key_size:5 c).circuit in
  let oracle = Oracle.of_circuit c in
  let fingerprint (s : Split_attack.t) =
    Array.to_list s.Split_attack.tasks
    |> List.map (fun t ->
           Printf.sprintf "%s|%d|%s"
             (match t.Split_attack.result.Sat_attack.key with
             | Some k -> Bitvec.to_string k
             | None -> "-")
             t.result.Sat_attack.num_dips
             (match t.result.Sat_attack.status with
             | Sat_attack.Broken -> "broken"
             | Sat_attack.Iteration_limit -> "iter"
             | Sat_attack.Time_limit -> "time"
             | Sat_attack.Cancelled -> "cancelled"
             | Sat_attack.Stopped -> "stopped"))
    |> String.concat ";"
  in
  let serial = fingerprint (Split_attack.run ~n:2 locked ~oracle) in
  List.iter
    (fun num_domains ->
      let par = Split_attack.run_parallel ~num_domains ~n:2 locked ~oracle in
      Alcotest.(check string)
        (Printf.sprintf "identical results at %d domains" num_domains)
        serial (fingerprint par))
    [ 1; 2; 4 ]

let test_dip_sequences_byte_identical () =
  (* The hoisted shared preparation (one synthesized miter + compiled key
     cone per split attack) must not perturb the sub-attacks: serial and
     pooled runners produce byte-identical per-task DIP sequences at the
     default q = 1 pipeline. *)
  let c = random_circuit ~seed:144 ~num_inputs:8 () in
  let locked = (LL.Locking.Sarlock.lock ~key_size:5 c).circuit in
  let oracle = Oracle.of_circuit c in
  let sequences (s : Split_attack.t) =
    Array.map
      (fun (t : Split_attack.task) ->
        t.result.Sat_attack.dips |> List.map Bitvec.to_string |> String.concat ",")
      s.Split_attack.tasks
  in
  let serial = Split_attack.run ~n:2 locked ~oracle in
  let pooled = Split_attack.run_parallel ~num_domains:3 ~n:2 locked ~oracle in
  Array.iter
    (fun seq -> Alcotest.(check bool) "non-empty sequence" true (seq <> ""))
    (sequences serial);
  Alcotest.(check (array string)) "byte-identical DIP sequences"
    (sequences serial) (sequences pooled)

let test_shared_pool_reuse () =
  (* One pool serving several attacks: results equal the private-pool run
     and the pool stays usable. *)
  let c = random_circuit ~seed:141 ~num_inputs:8 () in
  let locked = (LL.Locking.Sarlock.lock ~key_size:4 c).circuit in
  let oracle = Oracle.of_circuit c in
  LL.Runtime.Pool.with_pool ~num_domains:2 (fun pool ->
      let a = Split_attack.run_parallel ~pool ~n:2 locked ~oracle in
      let b = Split_attack.run_parallel ~pool ~n:2 locked ~oracle in
      let dips s = Array.map (fun t -> t.Split_attack.result.Sat_attack.num_dips) s.Split_attack.tasks in
      Alcotest.(check (array int)) "reused pool, same results" (dips a) (dips b);
      Alcotest.(check int) "pool width reported" 2 a.Split_attack.domains_used;
      Alcotest.(check int) "tasks ran on the shared pool" 8
        (LL.Runtime.Pool.stats pool).LL.Runtime.Pool.tasks_run)

let test_cancel_on_failure () =
  (* With a 1-iteration budget every sub-attack is fatal; the first fatal
     task must abort the rest (which report Cancelled and never produce
     keys).  Which tasks got cancelled is scheduling-dependent, so only
     aggregate properties are asserted. *)
  let c = random_circuit ~seed:142 ~num_inputs:8 () in
  let locked = (LL.Locking.Sarlock.lock ~key_size:8 c).circuit in
  let oracle = Oracle.of_circuit c in
  let config = { Sat_attack.default_config with max_iterations = Some 1 } in
  let s =
    Split_attack.run_parallel ~config ~num_domains:1 ~cancel_on_failure:true ~n:2 locked
      ~oracle
  in
  Alcotest.(check int) "all tasks reported" 4 (Array.length s.Split_attack.tasks);
  Alcotest.(check bool) "keys unavailable" true (Split_attack.keys s = None);
  let count p = Array.to_list s.tasks |> List.filter p |> List.length in
  let fatal t = t.Split_attack.result.Sat_attack.status = Sat_attack.Iteration_limit in
  let cancelled t = t.Split_attack.result.Sat_attack.status = Sat_attack.Cancelled in
  Alcotest.(check bool) "at least one fatal task" true (count fatal >= 1);
  (* With one domain the remaining three tasks are all pending when the
     first fails, so they must be cancelled without running. *)
  Alcotest.(check int) "rest cancelled" 3 (count cancelled);
  Array.iter
    (fun t ->
      if cancelled t then begin
        Alcotest.(check int) "cancelled task ran no solver" 0
          t.Split_attack.result.Sat_attack.num_dips;
        Alcotest.(check bool) "cancelled task cost nothing" true (t.task_time = 0.0)
      end)
    s.tasks

let test_recommended_effort () =
  let c = random_circuit ~seed:130 ~num_inputs:8 () in
  let locked = (LL.Locking.Sarlock.lock ~key_size:4 c).circuit in
  Alcotest.(check int) "16 cores -> n=4" 4 (Split_attack.recommended_effort ~cores:16 locked);
  Alcotest.(check int) "1 core -> n=0" 0 (Split_attack.recommended_effort ~cores:1 locked);
  Alcotest.(check int) "5 cores -> n=2" 2 (Split_attack.recommended_effort ~cores:5 locked);
  (* Never more cofactors than leaves one free input. *)
  let tiny = random_circuit ~seed:131 ~num_inputs:2 ~num_outputs:1 ~gates:4 () in
  let tiny_locked = (LL.Locking.Xor_lock.lock ~num_keys:1 tiny).circuit in
  Alcotest.(check int) "capped by inputs" 1
    (Split_attack.recommended_effort ~cores:1024 tiny_locked)

let test_failed_tasks_no_keys () =
  let c = random_circuit ~seed:129 ~num_inputs:8 () in
  let locked = (LL.Locking.Sarlock.lock ~key_size:8 c).circuit in
  let oracle = Oracle.of_circuit c in
  let config = { Sat_attack.default_config with max_iterations = Some 1 } in
  let s = Split_attack.run ~config ~n:1 locked ~oracle in
  Alcotest.(check bool) "keys unavailable" true (Split_attack.keys s = None);
  Alcotest.(check bool) "compose returns None" true (Compose.of_attack locked s = None)

let suite =
  [
    Alcotest.test_case "task count" `Quick test_task_count;
    Alcotest.test_case "sarlock dip halving" `Slow test_sarlock_dip_halving;
    Alcotest.test_case "multikey composition unlocks" `Quick
      test_multikey_composition_unlocks;
    Alcotest.test_case "keys often incorrect individually" `Quick
      test_keys_often_incorrect_individually;
    Alcotest.test_case "lut locking split" `Quick test_lut_locking_split;
    Alcotest.test_case "n=0 degenerates" `Quick test_n_zero_degenerates_to_sat_attack;
    Alcotest.test_case "explicit split inputs" `Quick test_explicit_split_inputs;
    Alcotest.test_case "sub task metadata" `Quick test_sub_task_metadata;
    Alcotest.test_case "parallel matches sequential" `Quick test_parallel_matches_sequential;
    Alcotest.test_case "deterministic across domain counts" `Quick
      test_deterministic_across_domain_counts;
    Alcotest.test_case "dip sequences byte identical" `Quick
      test_dip_sequences_byte_identical;
    Alcotest.test_case "shared pool reuse" `Quick test_shared_pool_reuse;
    Alcotest.test_case "cancel on failure" `Quick test_cancel_on_failure;
    Alcotest.test_case "recommended effort" `Quick test_recommended_effort;
    Alcotest.test_case "failed tasks no keys" `Quick test_failed_tasks_no_keys;
  ]
