(* The adaptive cube-and-conquer attack: golden cube trees pinned under a
   fixed seed (any change to re-split heuristics, budgets, session forking
   or solver behaviour that perturbs them must be deliberate and
   re-pinned), serial == parallel determinism, and differential checks of
   the composed multi-key netlist against the original design. *)

open Helpers
module Oracle = LL.Attack.Oracle
module Sat_attack = LL.Attack.Sat_attack
module Cube_prep = LL.Attack.Cube_prep
module Split_attack = LL.Attack.Split_attack
module Cube_attack = LL.Attack.Cube_attack
module Compose = LL.Attack.Compose
module Equiv = LL.Attack.Equiv
module Cofactor = LL.Synth.Cofactor

let status_name (r : Sat_attack.result) =
  match r.Sat_attack.status with
  | Sat_attack.Broken -> "broken"
  | Sat_attack.Iteration_limit -> "iter"
  | Sat_attack.Time_limit -> "time"
  | Sat_attack.Cancelled -> "cancelled"
  | Sat_attack.Stopped -> "stopped"

(* One line per cube in canonical tree order:
   condition|status|#DIP|#inherited|resplit-input. *)
let fingerprint (t : Cube_attack.t) =
  Array.to_list t.Cube_attack.cubes
  |> List.map (fun (c : Cube_attack.cube) ->
         let r = c.task.Cube_prep.result in
         Printf.sprintf "%s|%s|%d|%d|%s"
           (Cube_prep.condition_string c.task.condition)
           (status_name r) r.Sat_attack.num_dips r.Sat_attack.imported
           (match c.resplit_input with Some i -> string_of_int i | None -> "-"))
  |> String.concat ";"

let dip_sequences (t : Cube_attack.t) =
  Array.map
    (fun (c : Cube_attack.cube) ->
      c.Cube_attack.task.Cube_prep.result.Sat_attack.dips
      |> List.map Bitvec.to_string |> String.concat ",")
    t.Cube_attack.cubes

let composed_equivalent original locked attack =
  match Compose.of_cube_attack locked attack with
  | None -> false
  | Some composed -> (
      match Equiv.check original composed with
      | Equiv.Equivalent -> true
      | Equiv.Counterexample _ -> false)

(* A DIP budget forces re-splits on SARLock, whose point-function
   cofactors generate a stream of trivial DIPs but almost no conflicts. *)
let sarlock_config =
  {
    Cube_attack.default_config with
    n0 = 1;
    budget =
      { Cube_attack.default_budget with conflicts = None; dips = Some 4 };
  }

let sarlock_fixture () =
  let c = random_circuit ~seed:150 ~num_inputs:8 () in
  let locked = (LL.Locking.Sarlock.lock ~key_size:6 c).circuit in
  (c, locked, Oracle.of_circuit c)

(* Pinned golden: the exact adaptive cube tree (conditions, statuses,
   per-cube DIP and inherited-DIP counts, re-split inputs) for sarlock6 under
   seed 0 and a dips=4 budget. *)
let sarlock_golden =
  "1=0|stopped|4|0|2;1=0,2=0|stopped|8|4|4;1=0,2=0,4=0|broken|4|12|-;\
   1=0,2=0,4=1|broken|1|12|-;1=0,2=1|stopped|8|4|4;1=0,2=1,4=0|broken|5|12|-;\
   1=0,2=1,4=1|broken|2|12|-;1=1|stopped|4|0|2;1=1,2=0|stopped|8|4|4;\
   1=1,2=0,4=0|broken|4|12|-;1=1,2=0,4=1|broken|1|12|-;1=1,2=1|stopped|8|4|4;\
   1=1,2=1,4=0|broken|3|12|-;1=1,2=1,4=1|broken|3|12|-"

let test_sarlock_adaptive_golden () =
  let c, locked, oracle = sarlock_fixture () in
  let t = Cube_attack.run ~config:sarlock_config locked ~oracle in
  Alcotest.(check string) "cube tree" sarlock_golden (fingerprint t);
  Alcotest.(check bool) "resplits happened" true (Cube_attack.resplits t > 0);
  Alcotest.(check bool) "children inherited DIPs" true
    (Cube_attack.imported_entries t > 0);
  (match Cube_attack.verdict t with
  | Cube_attack.Keys _ -> ()
  | Cube_attack.Incomplete _ -> Alcotest.fail "expected keys");
  Alcotest.(check bool) "composed equivalent" true
    (composed_equivalent c locked t);
  (* Run-to-run: no hidden global state. *)
  let t2 = Cube_attack.run ~config:sarlock_config locked ~oracle in
  Alcotest.(check string) "identical rerun" (fingerprint t) (fingerprint t2)

(* A conflict budget drives the XOR-lock path: XOR cofactors are
   conflict-heavy and DIP-sparse, the opposite difficulty signature. *)
let xor_config =
  {
    Cube_attack.default_config with
    n0 = 1;
    budget =
      { Cube_attack.default_budget with conflicts = Some 8; dips = None };
  }

let xor_fixture () =
  let c = random_circuit ~seed:151 ~num_inputs:8 ~num_outputs:3 ~gates:50 () in
  let locked = (LL.Locking.Xor_lock.lock ~prng:(Prng.create 3) ~num_keys:10 c).circuit in
  (c, locked, Oracle.of_circuit c)

let test_xor_adaptive_deterministic () =
  let c, locked, oracle = xor_fixture () in
  let t = Cube_attack.run ~config:xor_config locked ~oracle in
  (match Cube_attack.verdict t with
  | Cube_attack.Keys _ -> ()
  | Cube_attack.Incomplete _ -> Alcotest.fail "expected keys");
  Alcotest.(check bool) "composed equivalent" true
    (composed_equivalent c locked t);
  let t2 = Cube_attack.run ~config:xor_config locked ~oracle in
  Alcotest.(check string) "identical rerun" (fingerprint t) (fingerprint t2);
  Alcotest.(check (array string)) "identical DIP sequences" (dip_sequences t)
    (dip_sequences t2)

let test_serial_matches_parallel () =
  (* Acceptance: the adaptive cube tree, DIP sequences and keys are
     byte-identical between the serial runner and the pooled runner at
     every domain count — re-splits and forked sessions only depend on
     each cube's path, never on scheduling. *)
  let _, locked, oracle = sarlock_fixture () in
  let serial = Cube_attack.run ~config:sarlock_config locked ~oracle in
  List.iter
    (fun num_domains ->
      let par =
        Cube_attack.run_parallel ~config:sarlock_config ~num_domains locked
          ~oracle
      in
      Alcotest.(check int) "domains recorded" num_domains
        par.Cube_attack.domains_used;
      Alcotest.(check string)
        (Printf.sprintf "identical tree at %d domains" num_domains)
        (fingerprint serial) (fingerprint par);
      Alcotest.(check (array string))
        (Printf.sprintf "identical DIP sequences at %d domains" num_domains)
        (dip_sequences serial) (dip_sequences par))
    [ 1; 2; 4 ]

(* One line per cofactor, sorted by condition: condition|status|key|DIP
   sequence. *)
let cofactor_lines (tasks : Cube_prep.task list) =
  List.map
    (fun (t : Cube_prep.task) ->
      let r = t.result in
      Printf.sprintf "%s|%s|%s|%s"
        (Cube_prep.condition_string t.condition)
        (status_name r)
        (match r.Sat_attack.key with Some k -> Bitvec.to_string k | None -> "-")
        (r.Sat_attack.dips |> List.map Bitvec.to_string |> String.concat ","))
    tasks
  |> List.sort compare

let test_no_budget_matches_split_attack () =
  (* With every budget off the engine is Algorithm 1 (Split_attack is its
     budgets-off preset), so a fixed split at N and a budgets-off run at
     n0 = N must agree byte for byte per cofactor: DIP sequences, keys and
     statuses, serial and pooled.  XOR and LUT locks are used because
     their DIP sequences depend on the solver seed, so a difference in how
     the two paths seed their cofactors shows here — sorted #DIP counts
     on SARLock could not tell. *)
  let n = 2 in
  let config =
    {
      Cube_attack.default_config with
      n0 = n;
      budget =
        { Cube_attack.default_budget with conflicts = None; dips = None };
    }
  in
  let fixture ~seed ~num_inputs ~gates lock =
    let c = random_circuit ~seed ~num_inputs ~num_outputs:3 ~gates () in
    (lock c, Oracle.of_circuit c)
  in
  List.iter
    (fun (name, (locked, oracle)) ->
      let split (s : Split_attack.t) = cofactor_lines (Array.to_list s.tasks) in
      let cube (t : Cube_attack.t) =
        Alcotest.(check int) (name ^ ": no resplits") 0 (Cube_attack.resplits t);
        cofactor_lines
          (Array.to_list (Array.map (fun (c : Cube_attack.cube) -> c.task) t.cubes))
      in
      let serial = split (Split_attack.run ~n locked ~oracle) in
      let pooled = split (Split_attack.run_parallel ~num_domains:2 ~n locked ~oracle) in
      Alcotest.(check int) (name ^ ": 2^n cofactors") (1 lsl n) (List.length serial);
      Alcotest.(check (list string)) (name ^ ": serial") serial
        (cube (Cube_attack.run ~config locked ~oracle));
      Alcotest.(check (list string)) (name ^ ": pooled") pooled
        (cube (Cube_attack.run_parallel ~config ~num_domains:2 locked ~oracle));
      Alcotest.(check (list string)) (name ^ ": pooled == serial") serial pooled)
    [
      ( "xor",
        fixture ~seed:153 ~num_inputs:10 ~gates:80 (fun c ->
            (LL.Locking.Xor_lock.lock ~prng:(Prng.create 5) ~num_keys:16 c).circuit) );
      ( "lut",
        fixture ~seed:124 ~num_inputs:8 ~gates:60 (fun c ->
            (LL.Locking.Lut_lock.lock ~stage1_luts:2 ~stage1_inputs:3 c).circuit) );
    ]

(* The cube whose condition is [condition] minus its last pin. *)
let parent_of (t : Cube_attack.t) (c : Cube_attack.cube) =
  let cond = c.task.Cube_prep.condition in
  let pcond = List.filteri (fun i _ -> i < List.length cond - 1) cond in
  Array.to_list t.Cube_attack.cubes
  |> List.find (fun (p : Cube_attack.cube) -> p.task.Cube_prep.condition = pcond)

let test_children_inherit_ancestor_dips () =
  (* A re-split forks the parent's session: each child's solver holds
     every DIP its ancestors found, so its [imported] count is its
     parent's plus the parent's own DIPs; seed cubes inherit nothing. *)
  let c, locked, oracle = sarlock_fixture () in
  let t = Cube_attack.run ~config:sarlock_config locked ~oracle in
  Alcotest.(check bool) "resplits happened" true (Cube_attack.resplits t > 0);
  Array.iter
    (fun (cube : Cube_attack.cube) ->
      let r = cube.task.Cube_prep.result in
      let name = Cube_prep.condition_string cube.task.condition in
      if cube.depth <= sarlock_config.n0 then
        Alcotest.(check int) (name ^ ": seed inherits nothing") 0 r.Sat_attack.imported
      else begin
        let p = (parent_of t cube).task.Cube_prep.result in
        Alcotest.(check int) (name ^ ": inherits the path")
          (p.Sat_attack.imported + p.Sat_attack.num_dips) r.Sat_attack.imported
      end)
    t.Cube_attack.cubes;
  Alcotest.(check bool) "composed equivalent" true (composed_equivalent c locked t)

(* A cube's DIPs at full input width: the free-input bits in position
   order, the pinned bits from its condition. *)
let full_dips n_in (cube : Cube_attack.cube) =
  let cond = cube.task.Cube_prep.condition in
  List.map
    (fun d ->
      let d = Bitvec.to_bool_array d in
      let next = ref 0 in
      Array.init n_in (fun i ->
          match List.assoc_opt i cond with
          | Some b -> b
          | None ->
              incr next;
              d.(!next - 1)))
    cube.task.Cube_prep.result.Sat_attack.dips

let test_no_cube_rederives_ancestor_dip () =
  (* Children continue their parent's solver, which already excludes
     every ancestor DIP: no cube may find one of them again.  (Before
     forking, a child rebuilt its solver and re-encoded those DIPs.) *)
  List.iter
    (fun (name, (_, locked, oracle), config) ->
      let t = Cube_attack.run ~config locked ~oracle in
      let n_in = LL.Netlist.Circuit.num_inputs locked in
      Alcotest.(check bool) (name ^ ": resplits happened") true (Cube_attack.resplits t > 0);
      Array.iter
        (fun (cube : Cube_attack.cube) ->
          let own = full_dips n_in cube in
          let rec ancestors (c : Cube_attack.cube) =
            if c.depth <= config.Cube_attack.n0 then []
            else
              let p = parent_of t c in
              p :: ancestors p
          in
          List.iter
            (fun a ->
              List.iter
                (fun d ->
                  if List.mem d own then
                    Alcotest.failf "%s: cube %s re-derived a DIP of %s" name
                      (Cube_prep.condition_string cube.task.condition)
                      (Cube_prep.condition_string a.Cube_attack.task.Cube_prep.condition))
                (full_dips n_in a))
            (ancestors cube))
        t.Cube_attack.cubes)
    [
      ("sarlock", sarlock_fixture (), sarlock_config);
      ( "xor",
        xor_fixture (),
        { xor_config with budget = { Cube_attack.default_budget with conflicts = None; dips = Some 1 } } );
    ]

let test_inconsistent_oracle_never_resplit () =
  (* An oracle no key can match: the locked circuit computes x0 xor k0 on
     both outputs, the oracle answers x0 and (not x0).  The solver proves
     the cube unkeyable (Broken, no key); re-splitting cannot help, so
     the engine must not retry it. *)
  let b = Builder.create ~name:"incons" () in
  let x0 = Builder.input b "x0" in
  let x1 = Builder.input b "x1" in
  let k0 = Builder.key_input b "k0" in
  ignore x1;
  Builder.output b "o1" (Builder.xor2 b x0 k0);
  Builder.output b "o2" (Builder.xor2 b x0 k0);
  let locked = Builder.finish b in
  let oracle =
    Oracle.of_function ~num_inputs:2 ~num_outputs:2 (fun xs ->
        [| xs.(0); not xs.(0) |])
  in
  let config =
    {
      Cube_attack.default_config with
      n0 = 0;
      budget = { Cube_attack.default_budget with dips = Some 1 };
    }
  in
  let t = Cube_attack.run ~config locked ~oracle in
  (* The root stops after its first DIP and re-splits once; each child
     then proves its cube unkeyable and — despite having budget left and
     depth headroom — is never re-split again.  Only [Stopped] cubes
     re-split. *)
  Alcotest.(check int) "only the pre-proof stop resplits" 1
    (Cube_attack.resplits t);
  Array.iter
    (fun (c : Cube_attack.cube) ->
      if c.resplit_input <> None then
        Alcotest.(check bool) "resplit cubes were Stopped" true
          (c.task.Cube_prep.result.Sat_attack.status = Sat_attack.Stopped))
    t.Cube_attack.cubes;
  match Cube_attack.verdict t with
  | Cube_attack.Keys _ -> Alcotest.fail "expected failure"
  | Cube_attack.Incomplete counts ->
      Alcotest.(check int) "both leaves classified unsat_no_key" 2
        counts.Cube_prep.unsat_no_key

let test_imported_dip_poisons_receiver () =
  (* A DIP that contradicts key-independent logic: o2 = x0 and x1 does
     not depend on the key, and the oracle answers its negation on every
     input.  The root's first DIP poisons its solver, and the DIP budget
     stops it before the next solve.  Both children continue that solver:
     each ends Broken with no key and no DIP of its own, and neither is
     re-split. *)
  let b = Builder.create ~name:"poison" () in
  let x0 = Builder.input b "x0" in
  let x1 = Builder.input b "x1" in
  let k0 = Builder.key_input b "k0" in
  Builder.output b "o1" (Builder.xor2 b x0 k0);
  Builder.output b "o2" (Builder.and2 b x0 x1);
  let locked = Builder.finish b in
  let oracle =
    Oracle.of_function ~num_inputs:2 ~num_outputs:2 (fun xs ->
        [| xs.(0); not (xs.(0) && xs.(1)) |])
  in
  let config =
    {
      Cube_attack.default_config with
      n0 = 0;
      budget = { Cube_attack.default_budget with conflicts = None; dips = Some 1 };
    }
  in
  let t = Cube_attack.run ~config locked ~oracle in
  let root = t.Cube_attack.cubes.(0) in
  Alcotest.(check string) "root first" "" (Cube_prep.condition_string root.task.condition);
  Alcotest.(check bool) "root re-split" true (root.resplit_input <> None);
  Alcotest.(check int) "root stops after one DIP" 1
    root.task.Cube_prep.result.Sat_attack.num_dips;
  Alcotest.(check int) "one re-split only" 1 (Cube_attack.resplits t);
  Alcotest.(check int) "root and two children" 3 (Array.length t.Cube_attack.cubes);
  Array.iter
    (fun (child : Cube_attack.cube) ->
      let r = child.task.Cube_prep.result in
      Alcotest.(check string) "child broken" "broken" (status_name r);
      Alcotest.(check bool) "no key" true (r.Sat_attack.key = None);
      Alcotest.(check int) "inherited the DIP" 1 r.Sat_attack.imported;
      Alcotest.(check int) "no local DIPs" 0 r.Sat_attack.num_dips)
    (Cube_attack.leaves t);
  let par = Cube_attack.run_parallel ~config ~num_domains:2 locked ~oracle in
  Alcotest.(check string) "serial == parallel" (fingerprint t) (fingerprint par)

let test_depth_cap_forces_completion () =
  (* max_extra_depth = 0 turns budgets off at the seed level: every seed
     cube runs to completion, so the result equals the no-budget run. *)
  let c, locked, oracle = sarlock_fixture () in
  let config =
    { sarlock_config with n0 = 1; max_extra_depth = 0 }
  in
  let t = Cube_attack.run ~config locked ~oracle in
  Alcotest.(check int) "no resplits" 0 (Cube_attack.resplits t);
  Alcotest.(check int) "seed cubes only" 2 (Array.length t.Cube_attack.cubes);
  Alcotest.(check bool) "composed equivalent" true
    (composed_equivalent c locked t)

let test_differential_fuzz () =
  (* Differential: for a sweep of random circuits and schemes, the
     adaptive attack under a tight budget must always produce keys whose
     composition is exhaustively equivalent to the original design. *)
  let schemes =
    [
      ("sarlock", fun c -> (LL.Locking.Sarlock.lock ~key_size:5 c).LL.Locking.Locked.circuit);
      ("antisat", fun c -> (LL.Locking.Antisat.lock ~width:4 c).LL.Locking.Locked.circuit);
      ("xor", fun c -> (LL.Locking.Xor_lock.lock ~num_keys:7 c).LL.Locking.Locked.circuit);
      ("lut", fun c -> (LL.Locking.Lut_lock.lock ~stage1_luts:2 ~stage1_inputs:2 c).LL.Locking.Locked.circuit);
    ]
  in
  List.iteri
    (fun i (name, lock) ->
      let c =
        random_circuit ~seed:(160 + i) ~num_inputs:7 ~num_outputs:2 ~gates:35 ()
      in
      let locked = lock c in
      let oracle = Oracle.of_circuit c in
      let config =
        {
          Cube_attack.default_config with
          n0 = 1;
          budget =
            {
              Cube_attack.default_budget with
              conflicts = Some 16;
              dips = Some 3;
            };
        }
      in
      let t = Cube_attack.run ~config ~seed:i locked ~oracle in
      (match Cube_attack.verdict t with
      | Cube_attack.Keys _ -> ()
      | Cube_attack.Incomplete _ ->
          Alcotest.fail (Printf.sprintf "%s: expected keys" name));
      match Compose.of_cube_attack locked t with
      | None -> Alcotest.fail (Printf.sprintf "%s: no composition" name)
      | Some composed ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: composition exhaustively equivalent" name)
            true
            (exhaustively_equal c composed))
    schemes

let test_shared_pool_reuse () =
  let _, locked, oracle = sarlock_fixture () in
  LL.Runtime.Pool.with_pool ~num_domains:2 (fun pool ->
      let a = Cube_attack.run_parallel ~config:sarlock_config ~pool locked ~oracle in
      let b = Cube_attack.run_parallel ~config:sarlock_config ~pool locked ~oracle in
      Alcotest.(check string) "reused pool, same tree" (fingerprint a)
        (fingerprint b);
      Alcotest.(check int) "pool width reported" 2 a.Cube_attack.domains_used)

let test_invalid_configs_rejected () =
  let _, locked, oracle = sarlock_fixture () in
  let run config = ignore (Cube_attack.run ~config locked ~oracle) in
  Alcotest.check_raises "n0 above the input count"
    (Invalid_argument "Cube_attack: n0 must be in [0, num_inputs]") (fun () ->
      run
        {
          Cube_attack.default_config with
          n0 = LL.Netlist.Circuit.num_inputs locked + 1;
        });
  Alcotest.check_raises "growth below 1"
    (Invalid_argument "Cube_attack: budget growth must be >= 1.0") (fun () ->
      run
        {
          Cube_attack.default_config with
          budget = { Cube_attack.default_budget with growth = 0.5 };
        });
  Alcotest.check_raises "zero dip budget"
    (Invalid_argument "Cube_attack: dip budget must be >= 1") (fun () ->
      run
        {
          Cube_attack.default_config with
          budget = { Cube_attack.default_budget with dips = Some 0 };
        })

let test_split_attack_verdict () =
  (* The satellite fix: Cancelled and Broken-without-key are reported
     distinctly in the merged result. *)
  let c = random_circuit ~seed:155 ~num_inputs:8 () in
  let locked = (LL.Locking.Sarlock.lock ~key_size:8 c).circuit in
  let oracle = Oracle.of_circuit c in
  let ok = Split_attack.run ~n:1 locked ~oracle in
  (match Split_attack.verdict ok with
  | Split_attack.Keys ks -> Alcotest.(check int) "two keys" 2 (Array.length ks)
  | Split_attack.Incomplete _ -> Alcotest.fail "expected keys");
  let config = { Sat_attack.default_config with max_iterations = Some 1 } in
  let failed =
    Split_attack.run_parallel ~config ~num_domains:1 ~cancel_on_failure:true
      ~n:2 locked ~oracle
  in
  match Split_attack.verdict failed with
  | Split_attack.Keys _ -> Alcotest.fail "expected failure"
  | Split_attack.Incomplete counts ->
      Alcotest.(check int) "one task hit its budget" 1
        counts.Cube_prep.iteration_limit;
      Alcotest.(check int) "the rest were cancelled" 3 counts.Cube_prep.cancelled

module Tel = LL.Telemetry.Telemetry

let traced f =
  Tel.reset ();
  Tel.enable ();
  Fun.protect
    ~finally:(fun () ->
      Tel.disable ();
      Tel.reset ())
    (fun () ->
      let r = f () in
      (r, (Tel.snapshot ()).Tel.events))

let count_events events ~kind name =
  Array.fold_left
    (fun n (e : Tel.event) -> if e.Tel.er_kind = kind && e.Tel.er_name = name then n + 1 else n)
    0 events

(* Seed cubes take their sessions from the attack's root session: one
   ["attack.root"] span per attack, and one ["cube.fork"] copy per seed
   cube when there are several.  Each seed cube pins its inputs on its
   copy and ends Broken with a key that [Equiv] proves correct inside
   its cube, and pooled runs find the serial runs' DIP sequences. *)
let test_seed_cubes_fork_the_root () =
  let c = random_circuit ~seed:150 ~num_inputs:8 () in
  let locked = (LL.Locking.Xor_lock.lock ~prng:(Prng.create 3) ~num_keys:8 c).circuit in
  let oracle = Oracle.of_circuit c in
  let dips (t : Split_attack.t) =
    Array.to_list t.tasks
    |> List.map (fun (task : Split_attack.task) ->
           List.map Bitvec.to_string task.result.Sat_attack.dips |> String.concat ",")
  in
  List.iter
    (fun n ->
      let name = Printf.sprintf "n0=%d" n in
      let serial, events = traced (fun () -> Split_attack.run ~n locked ~oracle) in
      Alcotest.(check int) (name ^ ": one root") 1
        (count_events events ~kind:Tel.kind_begin "attack.root");
      Alcotest.(check int) (name ^ ": one fork per seed cube") (1 lsl n)
        (count_events events ~kind:Tel.kind_instant "cube.fork");
      Array.iter
        (fun (task : Split_attack.task) ->
          let cond = task.condition in
          let cube = name ^ " cube " ^ Cube_prep.condition_string cond in
          match task.result.Sat_attack.key with
          | Some key when task.result.Sat_attack.status = Sat_attack.Broken ->
              let bound = LL.Netlist.Instantiate.bind_keys locked key in
              Alcotest.(check bool) (cube ^ ": key correct inside the cube") true
                (Equiv.check (Cofactor.apply c cond) (Cofactor.apply bound cond)
                = Equiv.Equivalent)
          | _ -> Alcotest.failf "%s: not broken" cube)
        serial.tasks;
      let pooled = Split_attack.run_parallel ~num_domains:2 ~n locked ~oracle in
      Alcotest.(check (list string)) (name ^ ": pooled dips == serial") (dips serial)
        (dips pooled))
    [ 1; 2 ]

(* A lone seed cube runs on the root itself, with no copy. *)
let test_lone_seed_cube_takes_the_root () =
  let _, locked, oracle = sarlock_fixture () in
  let _, events =
    traced (fun () -> Cube_attack.run ~config:{ sarlock_config with n0 = 0 } locked ~oracle)
  in
  Alcotest.(check int) "one root" 1 (count_events events ~kind:Tel.kind_begin "attack.root");
  Alcotest.(check int) "forks only at re-splits"
    (count_events events ~kind:Tel.kind_instant "cube.resplit")
    (count_events events ~kind:Tel.kind_instant "cube.fork")

(* With [cancel_on_failure], a seed cube cancelled before it starts
   makes no copy of the root: forks are counted only for started
   cubes. *)
let test_cancelled_seed_cube_makes_no_copy () =
  let c = random_circuit ~seed:155 ~num_inputs:8 () in
  let locked = (LL.Locking.Sarlock.lock ~key_size:8 c).circuit in
  let oracle = Oracle.of_circuit c in
  let config = { Sat_attack.default_config with max_iterations = Some 1 } in
  let t, events =
    traced (fun () ->
        Split_attack.run_parallel ~config ~num_domains:1 ~cancel_on_failure:true ~n:2 locked
          ~oracle)
  in
  let started =
    Array.fold_left
      (fun n (task : Split_attack.task) -> if task.sub_gates > 0 then n + 1 else n)
      0 t.tasks
  in
  Alcotest.(check bool) "some seed cube never started" true (started < Array.length t.tasks);
  Alcotest.(check int) "one fork per started seed cube" started
    (count_events events ~kind:Tel.kind_instant "cube.fork")

let suite =
  [
    Alcotest.test_case "sarlock adaptive golden" `Quick test_sarlock_adaptive_golden;
    Alcotest.test_case "xor adaptive deterministic" `Quick
      test_xor_adaptive_deterministic;
    Alcotest.test_case "serial matches parallel" `Quick test_serial_matches_parallel;
    Alcotest.test_case "seed cubes fork the root" `Quick test_seed_cubes_fork_the_root;
    Alcotest.test_case "lone seed cube takes the root" `Quick
      test_lone_seed_cube_takes_the_root;
    Alcotest.test_case "cancelled seed cube makes no copy" `Quick
      test_cancelled_seed_cube_makes_no_copy;
    Alcotest.test_case "no budget matches split attack" `Quick
      test_no_budget_matches_split_attack;
    Alcotest.test_case "children inherit ancestor dips" `Quick
      test_children_inherit_ancestor_dips;
    Alcotest.test_case "no cube re-derives an ancestor dip" `Quick
      test_no_cube_rederives_ancestor_dip;
    Alcotest.test_case "inconsistent oracle never resplit" `Quick
      test_inconsistent_oracle_never_resplit;
    Alcotest.test_case "imported dip poisons receiver" `Quick
      test_imported_dip_poisons_receiver;
    Alcotest.test_case "depth cap forces completion" `Quick
      test_depth_cap_forces_completion;
    Alcotest.test_case "differential fuzz" `Slow test_differential_fuzz;
    Alcotest.test_case "shared pool reuse" `Quick test_shared_pool_reuse;
    Alcotest.test_case "invalid configs rejected" `Quick test_invalid_configs_rejected;
    Alcotest.test_case "split attack verdict" `Quick test_split_attack_verdict;
  ]
