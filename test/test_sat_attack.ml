open Helpers
module Oracle = LL.Attack.Oracle
module Sat_attack = LL.Attack.Sat_attack
module Equiv = LL.Attack.Equiv
module Instantiate = LL.Netlist.Instantiate
module Tel = LL.Telemetry.Telemetry

let key_is_correct original locked key =
  match key with
  | None -> false
  | Some k -> (
      match Equiv.check original (Instantiate.bind_keys locked k) with
      | Equiv.Equivalent -> true
      | Equiv.Counterexample _ -> false)

let run_attack ?config c locked =
  let oracle = Oracle.of_circuit c in
  Sat_attack.run ?config locked ~oracle

let test_breaks_xor_locking () =
  let c = random_circuit ~seed:100 ~num_inputs:8 ~num_outputs:4 ~gates:60 () in
  let locked = LL.Locking.Xor_lock.lock ~num_keys:10 c in
  let r = run_attack c locked.circuit in
  Alcotest.(check bool) "broken" true (r.Sat_attack.status = Sat_attack.Broken);
  Alcotest.(check bool) "key correct" true (key_is_correct c locked.circuit r.key)

let test_recovered_key_not_necessarily_exact () =
  (* The attack promises functional correctness, not bit-equality: verify
     functionally only. *)
  let c = random_circuit ~seed:101 () in
  let locked = LL.Locking.Lut_lock.lock ~stage1_luts:2 ~stage1_inputs:2 c in
  let r = run_attack c locked.circuit in
  Alcotest.(check bool) "key correct" true (key_is_correct c locked.circuit r.key)

let test_sarlock_dip_count () =
  let c = random_circuit ~seed:102 ~num_inputs:8 ~num_outputs:3 ~gates:40 () in
  List.iter
    (fun k ->
      let locked = LL.Locking.Sarlock.lock ~prng:(Prng.create k) ~key_size:k c in
      let r = run_attack c locked.circuit in
      Alcotest.(check int)
        (Printf.sprintf "#DIP for k=%d" k)
        ((1 lsl k) - 1)
        r.Sat_attack.num_dips;
      Alcotest.(check bool) "key correct" true (key_is_correct c locked.circuit r.key))
    [ 2; 3; 4; 5 ]

let test_antisat_broken_functionally () =
  let c = random_circuit ~seed:103 ~num_inputs:6 ~num_outputs:2 ~gates:25 () in
  let locked = LL.Locking.Antisat.lock ~width:4 c in
  let r = run_attack c locked.circuit in
  Alcotest.(check bool) "key correct" true (key_is_correct c locked.circuit r.key)

let test_composed_locking_broken () =
  let c = random_circuit ~seed:104 ~num_inputs:7 ~num_outputs:3 ~gates:40 () in
  let l1 = LL.Locking.Xor_lock.lock ~num_keys:5 c in
  let l2 =
    LL.Locking.Compose_key.relock l1 ~scheme:(fun ?base_key cc ->
        LL.Locking.Sarlock.lock ?base_key ~key_size:4 cc)
  in
  let r = run_attack c l2.circuit in
  Alcotest.(check bool) "key correct" true (key_is_correct c l2.circuit r.key)

let test_iteration_limit () =
  let c = random_circuit ~seed:105 ~num_inputs:10 ~num_outputs:3 ~gates:40 () in
  let locked = LL.Locking.Sarlock.lock ~key_size:8 c in
  let config = { Sat_attack.default_config with max_iterations = Some 5 } in
  let r = run_attack ~config c locked.circuit in
  Alcotest.(check bool) "hit limit" true (r.Sat_attack.status = Sat_attack.Iteration_limit);
  Alcotest.(check int) "stopped at 5" 5 r.num_dips;
  Alcotest.(check bool) "no key" true (r.key = None)

let test_time_limit () =
  let c = random_circuit ~seed:106 ~num_inputs:12 ~num_outputs:4 ~gates:80 () in
  let locked = LL.Locking.Sarlock.lock ~key_size:12 c in
  let config = { Sat_attack.default_config with time_limit = Some 0.05 } in
  let r = run_attack ~config c locked.circuit in
  Alcotest.(check bool) "hit limit" true (r.Sat_attack.status = Sat_attack.Time_limit)

let test_oracle_query_accounting () =
  let c = random_circuit ~seed:108 () in
  let locked = LL.Locking.Xor_lock.lock ~num_keys:4 c in
  let r = run_attack c locked.circuit in
  Alcotest.(check int) "one query per dip" r.Sat_attack.num_dips r.oracle_queries;
  (* [bench/perf] reads [rounds]: one round per DIP. *)
  Alcotest.(check int) "one round per dip" r.Sat_attack.num_dips r.rounds

let test_key_free_outputs_lock () =
  (* Degenerate lock: Lut_lock on this instance replaces gates outside
     every output cone, so no output is key-dependent.  [prepare] must
     fall back to the whole-circuit path instead of building an empty
     key cone, and the attack closes immediately — any key unlocks. *)
  let original = random_circuit ~seed:222 ~num_inputs:7 ~num_outputs:2 ~gates:50 () in
  let locked =
    (LL.Locking.Lut_lock.lock ~stage1_luts:2 ~stage1_inputs:2 original).circuit
  in
  let r = run_attack original locked in
  Alcotest.(check bool) "broken" true (r.Sat_attack.status = Sat_attack.Broken);
  Alcotest.(check int) "no dips" 0 r.Sat_attack.num_dips;
  Alcotest.(check bool) "key unlocks" true (key_is_correct original locked r.key)

(* With telemetry on, every DIP lands in the trace as one
   "iter N: dip=... response=..." log event, numbered from 1. *)
let test_trace_logs_each_dip () =
  let c = random_circuit ~seed:109 () in
  let locked = LL.Locking.Xor_lock.lock ~num_keys:4 c in
  Tel.reset ();
  Tel.enable ();
  let r, snap =
    Fun.protect
      ~finally:(fun () ->
        Tel.disable ();
        Tel.reset ())
      (fun () ->
        let r = run_attack c locked.circuit in
        (r, Tel.snapshot ()))
  in
  let lines =
    Array.to_list snap.Tel.events
    |> List.filter (fun (e : Tel.event) -> e.Tel.er_kind = Tel.kind_log)
    |> List.map (fun (e : Tel.event) -> e.Tel.er_note)
  in
  Alcotest.(check int) "one line per dip" r.Sat_attack.num_dips (List.length lines);
  List.iteri
    (fun i l ->
      let prefix = Printf.sprintf "iter %d: dip=" (i + 1) in
      Alcotest.(check string) "numbered in order" prefix
        (String.sub l 0 (min (String.length l) (String.length prefix))))
    lines

(* The [stop] hook is the attack's stopping-rule seam (cube budgets,
   AppSAT).  A DIP budget ends the session exactly at the budget, with
   status Stopped and no key. *)
let test_stop_hook_budget () =
  let c = random_circuit ~seed:105 ~num_inputs:10 ~num_outputs:3 ~gates:40 () in
  let locked = LL.Locking.Sarlock.lock ~key_size:8 c in
  let stop (pg : Sat_attack.progress) = pg.pg_dips >= 3 in
  let r = run_attack ~config:{ Sat_attack.default_config with stop = Some stop } c locked.circuit in
  Alcotest.(check bool) "stopped" true (r.Sat_attack.status = Sat_attack.Stopped);
  Alcotest.(check int) "at the budget" 3 r.num_dips;
  Alcotest.(check bool) "no key" true (r.key = None)

(* Every key [pg_candidate] extracts reproduces the oracle on every DIP
   found before it was extracted. *)
let test_stop_hook_candidate_consistent () =
  let c = random_circuit ~seed:105 ~num_inputs:10 ~num_outputs:3 ~gates:40 () in
  let locked = LL.Locking.Sarlock.lock ~key_size:8 c in
  let candidates = ref [] in
  let stop (pg : Sat_attack.progress) =
    candidates := (pg.pg_dips, pg.pg_candidate ()) :: !candidates;
    pg.pg_dips >= 12
  in
  let r = run_attack ~config:{ Sat_attack.default_config with stop = Some stop } c locked.circuit in
  Alcotest.(check int) "one candidate per round" 13 (List.length !candidates);
  let dips = Array.of_list (List.map Bitvec.to_bool_array r.dips) in
  List.iter
    (fun (seen, key) ->
      match key with
      | None -> Alcotest.failf "no candidate after %d DIPs" seen
      | Some key ->
          let keys = Bitvec.to_bool_array key in
          for i = 0 to seen - 1 do
            Alcotest.(check (array bool))
              (Printf.sprintf "candidate after %d DIPs, DIP %d" seen i)
              (Eval.eval c ~inputs:dips.(i) ~keys:[||])
              (Eval.eval locked.circuit ~inputs:dips.(i) ~keys)
          done)
    !candidates

(* A hook that never extracts a candidate leaves the search untouched:
   the same DIP sequence as a run without a hook. *)
let test_stop_hook_passive () =
  let c = random_circuit ~seed:100 ~num_inputs:8 ~num_outputs:4 ~gates:60 () in
  let locked = LL.Locking.Xor_lock.lock ~num_keys:10 c in
  let plain = run_attack c locked.circuit in
  let polls = ref 0 in
  let stop _ =
    incr polls;
    false
  in
  let hooked =
    run_attack ~config:{ Sat_attack.default_config with stop = Some stop } c locked.circuit
  in
  Alcotest.(check bool) "broken" true (hooked.Sat_attack.status = Sat_attack.Broken);
  Alcotest.(check bool) "polled every round" true (!polls = hooked.rounds + 1);
  Alcotest.(check (list string)) "same DIP sequence"
    (List.map Bitvec.to_string plain.dips)
    (List.map Bitvec.to_string hooked.dips);
  Alcotest.(check (option string)) "same key"
    (Option.map Bitvec.to_string plain.key)
    (Option.map Bitvec.to_string hooked.key)

let test_rejects_keyless () =
  let c = full_adder_circuit () in
  let oracle = Oracle.of_circuit c in
  Alcotest.check_raises "keyless" (Invalid_argument "Sat_attack.run: circuit has no keys")
    (fun () -> ignore (Sat_attack.run c ~oracle))

let test_rejects_oracle_mismatch () =
  let c = random_circuit ~seed:110 () in
  let locked = (LL.Locking.Xor_lock.lock ~num_keys:2 c).circuit in
  let oracle = Oracle.of_circuit (full_adder_circuit ()) in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Sat_attack.run locked ~oracle);
       false
     with Invalid_argument _ -> true)

(* A stopped session forked into the two cofactors of input 0: each
   child counts only its own work, inherits the parent's DIPs (and never
   finds one of them again) and returns a key that is correct on its
   whole cube. *)
let test_fork_resumes_stopped_session () =
  let c = random_circuit ~seed:105 ~num_inputs:10 ~num_outputs:3 ~gates:40 () in
  let locked = (LL.Locking.Sarlock.lock ~key_size:8 c).circuit in
  let oracle = Oracle.of_circuit c in
  let stop_at n = { Sat_attack.default_config with stop = Some (fun pg -> pg.pg_dips >= n) } in
  let root = Sat_attack.root (Sat_attack.prepare locked) in
  let r, session = Sat_attack.resume ~config:(stop_at 3) root ~pins:[] ~oracle in
  Alcotest.(check bool) "parent stopped" true (r.Sat_attack.status = Sat_attack.Stopped);
  let session = Option.get session in
  let copy = Sat_attack.fork ~seed:7 session in
  (* The stop budget counts from the child's own start. *)
  let r1, s1 = Sat_attack.resume ~config:(stop_at 2) copy ~pins:[ (0, true) ] ~oracle in
  Alcotest.(check bool) "child stopped" true (r1.Sat_attack.status = Sat_attack.Stopped);
  Alcotest.(check int) "child budget from zero" 2 r1.num_dips;
  Alcotest.(check int) "child inherited the parent's DIPs" 3 r1.imported;
  let parent_dips = List.map Bitvec.to_bool_array r.dips in
  let check_cube name (r : Sat_attack.result) ~fixed =
    Alcotest.(check bool) (name ^ " broken") true (r.Sat_attack.status = Sat_attack.Broken);
    let bound = LL.Netlist.Instantiate.bind_keys locked (Option.get r.key) in
    for m = 0 to (1 lsl 10) - 1 do
      let inputs = Array.init 10 (fun i -> (m lsr i) land 1 = 1) in
      if List.for_all (fun (p, b) -> inputs.(p) = b) fixed then
        Alcotest.(check (array bool))
          (Printf.sprintf "%s key correct on %d" name m)
          (Eval.eval c ~inputs ~keys:[||])
          (Eval.eval bound ~inputs ~keys:[||])
    done;
    (* A reported DIP omits the pinned inputs; none is a parent DIP. *)
    List.iter
      (fun d ->
        let d = Bitvec.to_bool_array d in
        Alcotest.(check int) (name ^ " dip width") (10 - List.length fixed) (Array.length d);
        List.iter
          (fun p ->
            let free = List.filteri (fun i _ -> not (List.mem_assoc i fixed)) (Array.to_list p) in
            if List.for_all (fun (i, b) -> p.(i) = b) fixed && free = Array.to_list d then
              Alcotest.failf "%s re-derived a parent DIP" name)
          parent_dips)
      r.dips
  in
  let r0, s0 = Sat_attack.resume session ~pins:[ (0, false) ] ~oracle in
  Alcotest.(check bool) "finished session not returned" true (s0 = None);
  Alcotest.(check int) "child 0 inherited" 3 r0.imported;
  check_cube "child 0" r0 ~fixed:[ (0, false) ];
  let r11, _ = Sat_attack.resume (Option.get s1) ~pins:[ (1, false) ] ~oracle in
  Alcotest.(check int) "grandchild inherited" 5 r11.imported;
  check_cube "grandchild" r11 ~fixed:[ (0, true); (1, false) ]

let test_resume_rejects_bad_pin () =
  let c = random_circuit ~seed:105 ~num_inputs:6 ~num_outputs:3 ~gates:30 () in
  let locked = (LL.Locking.Sarlock.lock ~key_size:4 c).circuit in
  let oracle = Oracle.of_circuit c in
  let config = { Sat_attack.default_config with stop = Some (fun pg -> pg.pg_dips >= 1) } in
  let stopped () =
    let root = Sat_attack.root (Sat_attack.prepare locked) in
    match Sat_attack.resume ~config root ~pins:[ (2, true) ] ~oracle with
    | _, Some s -> s
    | _, None -> Alcotest.fail "expected a stopped session"
  in
  List.iter
    (fun (name, pins, msg) ->
      Alcotest.check_raises name (Invalid_argument msg) (fun () ->
          ignore (Sat_attack.resume (stopped ()) ~pins ~oracle)))
    [
      ("pinned twice", [ (2, false) ], "Sat_attack.run: duplicate condition");
      ("repeated in one list", [ (0, true); (0, false) ], "Sat_attack.run: duplicate condition");
      ("negative position", [ (-1, true) ], "Sat_attack.run: condition position");
      ("past the inputs", [ (6, true) ], "Sat_attack.run: condition position");
    ];
  Alcotest.check_raises "foreign oracle"
    (Invalid_argument "Sat_attack.run: oracle input count mismatch") (fun () ->
      ignore
        (Sat_attack.resume (stopped ()) ~pins:[ (0, true) ]
           ~oracle:(Oracle.of_circuit (full_adder_circuit ()))))

let test_recovered_key_exact_zero_error () =
  (* Cross-check recovered keys against the BDD-exact error count rather
     than SAT equivalence: a functionally correct key must corrupt exactly
     zero input patterns.  Random circuits, two locking schemes. *)
  List.iter
    (fun seed ->
      let c = random_circuit ~seed ~num_inputs:7 ~num_outputs:3 ~gates:35 () in
      let lock =
        if seed mod 2 = 0 then
          (LL.Locking.Xor_lock.lock ~prng:(Prng.create seed) ~num_keys:6 c).LL.Locking.Locked
          .circuit
        else
          (LL.Locking.Sarlock.lock ~prng:(Prng.create seed) ~key_size:4 c).LL.Locking.Locked
          .circuit
      in
      let r = run_attack c lock in
      match r.Sat_attack.key with
      | None -> Alcotest.failf "seed %d: no key recovered" seed
      | Some k ->
          Alcotest.(check (float 0.0))
            (Printf.sprintf "seed %d: zero exact errors" seed)
            0.0
            (LL.Bdd.Exact.error_count ~original:c ~locked:lock ~key:k))
    [ 301; 302; 303; 304 ]

let test_dips_are_distinct () =
  let c = random_circuit ~seed:111 ~num_inputs:8 () in
  let locked = LL.Locking.Sarlock.lock ~key_size:5 c in
  let r = run_attack c locked.circuit in
  let dips = List.map Bitvec.to_string r.Sat_attack.dips in
  Alcotest.(check int) "all distinct" (List.length dips)
    (List.length (List.sort_uniq compare dips))

(* Allocation regression guard for the DIP loop.  Minor words allocated
   by a one-domain attack are a deterministic count for a fixed build (the
   search itself is deterministic), so the test compares exact numbers.
   c432 / SARLock K = 8 (lock seed 1), N = 0, default config: 255 DIPs at
   32,009 minor words per DIP while the solver's VSIDS heap, clause intake,
   PRNG and BVE allocated on their hot paths, 2,152 once they stopped.
   The bound leaves 1.5x headroom over the latter. *)
let test_minor_words_per_dip () =
  let original = LL.Bench_suite.Iscas.get "c432" in
  let locked =
    (LL.Locking.Sarlock.lock ~prng:(Prng.create 1) ~key_size:8 original).LL.Locking.Locked.circuit
  in
  let attack () = run_attack original locked in
  (* Warm-up run: first-use initialisation (compiled-program caches,
     telemetry state) is not per-DIP cost. *)
  ignore (attack ());
  let w0 = Gc.minor_words () in
  let r = attack () in
  let per_dip = (Gc.minor_words () -. w0) /. float_of_int r.Sat_attack.num_dips in
  Printf.printf "c432/sarlock8 N=0: %d DIPs, %.0f minor words per DIP\n" r.num_dips per_dip;
  Alcotest.(check int) "DIPs" 255 r.num_dips;
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words per DIP < 3,228" per_dip)
    true (per_dip < 3228.0)

(* Per-DIP kernel work: consecutive DIPs differ in a few inputs, so the
   incremental oracle, consistency and cofactor passes re-evaluate a
   small part of their programs.  The first DIP of a run is one full
   sweep of every program (its scratches are fresh), which gives the
   full-sweep cost per DIP.  On c432/SARLock K=8 (N=0, one domain) that
   is 525 nodes per DIP; the incremental passes evaluate 57.4 (about a
   ninth).  The bound is a third.  [kernel.encodes] counts the DIP
   constraints alone, one per key copy: the miter's encoding goes through
   the same walk without counting. *)
let test_node_evals_per_dip () =
  let original = LL.Bench_suite.Iscas.get "c432" in
  let locked =
    (LL.Locking.Sarlock.lock ~prng:(Prng.create 1) ~key_size:8 original).LL.Locking.Locked.circuit
  in
  let counters config =
    Tel.reset ();
    Tel.enable ();
    let r = Fun.protect ~finally:Tel.disable (fun () -> run_attack ~config original locked) in
    let counters = (Tel.snapshot ()).Tel.counters in
    (r, fun name -> Option.value ~default:0 (List.assoc_opt name counters))
  in
  let first, count = counters { Sat_attack.default_config with max_iterations = Some 1 } in
  let full_per_dip = count "kernel.node_evals" in
  Alcotest.(check int) "one DIP" 1 first.Sat_attack.num_dips;
  Alcotest.(check int) "kernel.encodes of one DIP" 2 (count "kernel.encodes");
  (* Warm-up run: first-use initialisation is not per-DIP cost. *)
  ignore (run_attack original locked);
  let r, count = counters Sat_attack.default_config in
  let evals = count "kernel.node_evals" in
  Alcotest.(check int) "kernel.encodes = 2 x attack.dips" (2 * r.Sat_attack.num_dips)
    (count "kernel.encodes");
  let per_dip = float_of_int evals /. float_of_int r.Sat_attack.num_dips in
  Printf.printf "c432/sarlock8 N=0: %d nodes per DIP in full sweeps, %.1f evaluated\n"
    full_per_dip per_dip;
  Alcotest.(check int) "DIPs" 255 r.num_dips;
  Alcotest.(check bool)
    (Printf.sprintf "%.1f nodes per DIP < %d / 3" per_dip full_per_dip)
    true
    (3.0 *. per_dip < float_of_int full_per_dip)

let suite =
  [
    Alcotest.test_case "breaks xor locking" `Quick test_breaks_xor_locking;
    Alcotest.test_case "functional key recovery" `Quick
      test_recovered_key_not_necessarily_exact;
    Alcotest.test_case "sarlock dip count" `Slow test_sarlock_dip_count;
    Alcotest.test_case "antisat broken" `Quick test_antisat_broken_functionally;
    Alcotest.test_case "composed locking broken" `Quick test_composed_locking_broken;
    Alcotest.test_case "iteration limit" `Quick test_iteration_limit;
    Alcotest.test_case "time limit" `Quick test_time_limit;
    Alcotest.test_case "oracle query accounting" `Quick test_oracle_query_accounting;
    Alcotest.test_case "key-free-outputs lock" `Quick test_key_free_outputs_lock;
    Alcotest.test_case "trace logs each dip" `Quick test_trace_logs_each_dip;
    Alcotest.test_case "stop hook budget" `Quick test_stop_hook_budget;
    Alcotest.test_case "stop hook candidate consistent" `Quick
      test_stop_hook_candidate_consistent;
    Alcotest.test_case "stop hook passive" `Quick test_stop_hook_passive;
    Alcotest.test_case "rejects keyless" `Quick test_rejects_keyless;
    Alcotest.test_case "rejects oracle mismatch" `Quick test_rejects_oracle_mismatch;
    Alcotest.test_case "fork resumes stopped session" `Quick
      test_fork_resumes_stopped_session;
    Alcotest.test_case "resume rejects bad pin" `Quick test_resume_rejects_bad_pin;
    Alcotest.test_case "recovered key exact zero error" `Quick
      test_recovered_key_exact_zero_error;
    Alcotest.test_case "dips are distinct" `Quick test_dips_are_distinct;
    Alcotest.test_case "minor words per DIP" `Quick test_minor_words_per_dip;
    Alcotest.test_case "kernel nodes per DIP" `Quick test_node_evals_per_dip;
  ]
