(* Differential tests of the equivalence decider (budgeted miter, then
   SAT sweeping) against a plain single-miter reference. *)

open Helpers
module Equiv = LL.Attack.Equiv
module Oracle = LL.Attack.Oracle
module Split_attack = LL.Attack.Split_attack
module Cube_attack = LL.Attack.Cube_attack
module Compose = LL.Attack.Compose
module Solver = LL.Sat.Solver
module Tseitin = LL.Sat.Tseitin
module Tel = LL.Telemetry.Telemetry

(* The plain miter: both circuits in one solver, one unbounded solve.
   True iff the circuits are equivalent. *)
let reference a b =
  let solver = Solver.create () in
  let env = Tseitin.create solver in
  let input_lits = Tseitin.fresh_lits env (Circuit.num_inputs a) in
  let oa = Tseitin.encode env a ~input_lits ~key_lits:[||] in
  let ob = Tseitin.encode env b ~input_lits ~key_lits:[||] in
  Solver.add_clause solver
    (Array.to_list (Array.map2 (fun x y -> Tseitin.mk_xor env [| x; y |]) oa ob));
  Solver.solve solver = Solver.Unsat

(* [f ()] with telemetry on; returns its result and a counter reader. *)
let with_counters f =
  Tel.enable ();
  let r = Fun.protect ~finally:Tel.disable f in
  let counters = (Tel.snapshot ()).Tel.counters in
  (r, fun name -> Option.value ~default:0 (List.assoc_opt name counters))

(* The decider agrees with the reference, with and without the random
   simulation in front of it ([samples = 0] leaves every difference to
   SAT); every counterexample is real. *)
let agree name a b =
  let expected = reference a b in
  List.iter
    (fun samples ->
      let label = Printf.sprintf "%s (samples %d)" name samples in
      match Equiv.check ~samples a b with
      | Equiv.Equivalent -> Alcotest.(check bool) label expected true
      | Equiv.Counterexample cex ->
          Alcotest.(check bool) label expected false;
          Alcotest.(check bool) (label ^ ": counterexample is real") false
            (Equiv.equal_outputs a b ~inputs:cex))
    [ 0; 8 ];
  expected

(* A rewrite of [c] with the same function and little shared structure:
   XOR/XNOR expanded into four NANDs, AND/OR/NAND/NOR through De Morgan,
   NOT as a self-NAND, BUF as a double negation, MUX as AND/OR, and every
   output computed in complement and negated again. *)
let rewrite c =
  let b = Builder.create ~name:(c.Circuit.name ^ "_rw") () in
  let inputs = Array.map (fun j -> Builder.input b (Circuit.node_name c j)) c.Circuit.inputs in
  let sig_ = Array.make (Circuit.num_nodes c) inputs.(0) in
  Array.iteri (fun k j -> sig_.(j) <- inputs.(k)) c.Circuit.inputs;
  let nand x y = Builder.nand2 b x y in
  let not_ x = nand x x in
  let xor x y =
    let n = nand x y in
    nand (nand x n) (nand y n)
  in
  let and_all xs = not_ (Builder.or_reduce b (Array.map not_ xs)) in
  let or_all xs = Builder.gate b Gate.Nand (Array.map not_ xs) in
  Array.iteri
    (fun i nd ->
      match nd with
      | Circuit.Const v -> sig_.(i) <- Builder.const b v
      | Circuit.Gate (g, fanins) ->
          let xs = Array.map (fun j -> sig_.(j)) fanins in
          let fold f = Array.fold_left f xs.(0) (Array.sub xs 1 (Array.length xs - 1)) in
          sig_.(i) <-
            (match g with
            | Gate.And -> and_all xs
            | Gate.Nand -> not_ (and_all xs)
            | Gate.Or -> or_all xs
            | Gate.Nor -> not_ (or_all xs)
            | Gate.Xor -> fold xor
            | Gate.Xnor -> not_ (fold xor)
            | Gate.Not -> not_ xs.(0)
            | Gate.Buf -> Builder.not_ b (Builder.not_ b xs.(0))
            | Gate.Mux ->
                or_all [| and_all [| not_ xs.(0); xs.(1) |]; and_all [| xs.(0); xs.(2) |] |]
            | Gate.Lut _ -> Builder.gate b g xs)
      | Circuit.Input | Circuit.Key_input -> ())
    c.Circuit.nodes;
  Array.iter
    (fun (name, j) -> Builder.output b name (Builder.not_ b (not_ sig_.(j))))
    c.Circuit.outputs;
  Builder.finish b

(* Sixteen-input circuits are large enough that the rewrites (and some
   optimised copies) run the plain miter out of its budget. *)
let test_random_circuits () =
  for seed = 0 to 3 do
    let gen seed = random_circuit ~seed ~num_inputs:16 ~num_outputs:8 ~gates:250 () in
    let a = gen (600 + seed) in
    ignore (agree (Printf.sprintf "seed %d vs optimised" seed) a (LL.Synth.Optimize.run a));
    ignore (agree (Printf.sprintf "seed %d vs rewrite" seed) a (rewrite a));
    ignore (agree (Printf.sprintf "seed %d vs another" seed) a (gen (700 + seed)))
  done

let lock ?(size = 8) scheme c =
  let prng = Prng.create 5 in
  let locked =
    match scheme with
    | "xor" -> LL.Locking.Xor_lock.lock ~prng ~num_keys:size c
    | "sll" -> LL.Locking.Sll.lock ~prng ~num_keys:size c
    | "sarlock" -> LL.Locking.Sarlock.lock ~prng ~key_size:6 c
    | "mixed-sarlock" -> LL.Locking.Mixed_sarlock.lock ~prng ~key_size:4 c
    | "antisat" -> LL.Locking.Antisat.lock ~prng ~width:4 c
    | "lut" -> LL.Locking.Lut_lock.lock ~prng ~stage1_luts:2 ~stage1_inputs:2 c
    | s -> invalid_arg s
  in
  locked.LL.Locking.Locked.circuit

let schemes = [ "xor"; "sll"; "sarlock"; "mixed-sarlock"; "antisat"; "lut" ]

(* Split and cube compositions, optimised and not, of [circuit] locked
   by each scheme; returns the nodes the sweeps merged and the solves
   spent deciding the unoptimised compositions. *)
let compositions ?size circuit schemes =
  let c = LL.Bench_suite.Iscas.get circuit in
  let oracle = Oracle.of_circuit c in
  let cfg =
    {
      Cube_attack.default_config with
      n0 = 0;
      budget = { Cube_attack.default_budget with conflicts = None; dips = Some 8 };
    }
  in
  let solves () =
    Option.value ~default:0 (List.assoc_opt "equiv.solves" (Tel.snapshot ()).Tel.counters)
  in
  let unoptimised_solves = ref 0 in
  let (), count =
    with_counters (fun () ->
        List.iter
          (fun scheme ->
            let locked = lock ?size scheme c in
            let s = Split_attack.run ~n:2 locked ~oracle in
            let cube = Cube_attack.run ~config:cfg locked ~oracle in
            List.iter
              (fun optimize ->
                let tag kind =
                  Printf.sprintf "%s %s %s%s" circuit scheme kind
                    (if optimize then "" else " unoptimised")
                in
                let split = Option.get (Compose.of_attack ~optimize locked s) in
                let cubes = Option.get (Compose.of_cube_attack ~optimize locked cube) in
                let before = solves () in
                Alcotest.(check bool) (tag "split") true (agree (tag "split") c split);
                Alcotest.(check bool) (tag "cube") true (agree (tag "cube") c cubes);
                if not optimize then
                  unoptimised_solves := !unoptimised_solves + solves () - before)
              [ true; false ])
          schemes)
  in
  (count "equiv.merged", !unoptimised_solves)

(* An unoptimised composition instantiates one copy of the locked
   circuit per cofactor with constant keys.  The encoder maps most
   copies onto the original: constants fold, and a MUX whose two
   branches encode to one literal is that literal, so most of these
   miters close with no solve.  The c432 compositions take 16 solves
   (without the MUX fold, 22). *)
let test_compositions () =
  let _, solves = compositions "c432" schemes in
  Printf.printf "c432 unoptimised compositions: %d equiv solves\n" solves;
  Alcotest.(check bool) (Printf.sprintf "%d solves <= 16" solves) true (solves <= 16)

(* On c880 the LUT compositions outgrow the miter budget. *)
let test_swept_compositions () =
  let merged, _ = compositions "c880" [ "lut" ] in
  Alcotest.(check bool) "the sweep merged nodes" true (merged > 0)

(* The fixed split's composition with its keys replaced by [keys]. *)
let compose_with locked (s : Split_attack.t) keys =
  let tasks =
    Array.map2
      (fun (t : Split_attack.task) k ->
        { t with Split_attack.result = { t.result with LL.Attack.Sat_attack.key = Some k } })
      s.Split_attack.tasks keys
  in
  Option.get (Compose.of_attack locked { s with Split_attack.tasks })

(* One key bit flipped in one cofactor: the first such mutant whose
   function differs must be refuted with a real counterexample. *)
let test_mutated_composition () =
  List.iter
    (fun (circuit, size, schemes) ->
      let c = LL.Bench_suite.Iscas.get circuit in
      let oracle = Oracle.of_circuit c in
      List.iter
        (fun scheme ->
          let locked = lock ~size scheme c in
          let s = Split_attack.run ~n:2 locked ~oracle in
          let keys = Option.get (Split_attack.keys s) in
          let mutant k bit =
            let keys = Array.copy keys in
            let key = keys.(k) in
            keys.(k) <- Bitvec.init (Bitvec.length key) (fun i -> Bitvec.get key i <> (i = bit));
            compose_with locked s keys
          in
          let rec first k bit =
            if k >= Array.length keys then
              Alcotest.failf "%s %s: no key bit changes the function" circuit scheme
            else if bit >= Bitvec.length keys.(k) then first (k + 1) 0
            else
              let m = mutant k bit in
              if reference c m then first k (bit + 1) else m
          in
          let label = circuit ^ " " ^ scheme in
          Alcotest.(check bool) (label ^ " mutant differs") false (agree label c (first 0 0)))
        schemes)
    [ ("c432", 8, schemes); ("c880", 8, [ "lut" ]) ]

(* An XOR-heavy circuit against its rewrite: the plain miter runs out of
   its budget, so the sweep decides — through merges of complemented
   nodes, since the rewrite computes every output in complement. *)
let test_rewrite_sweeps () =
  let c = LL.Bench_suite.Iscas.get "c499" in
  let rw = rewrite c in
  let v, count = with_counters (fun () -> Equiv.check c rw) in
  Alcotest.(check bool) "equivalent" true (v = Equiv.Equivalent);
  Alcotest.(check bool) "the sweep merged nodes" true (count "equiv.merged" > 0);
  Alcotest.(check bool) "proofs were solved" true (count "equiv.solves" > count "equiv.merged")

(* The rewrite with one output flipped on a single pattern of its first
   sixteen inputs: random simulation misses it and the miter budget runs
   out, so the sweep must refute the flipped output's node instead of
   merging it, and the final miter finds the pattern. *)
let test_rare_difference_sweeps () =
  let c = LL.Bench_suite.Iscas.get "c499" in
  let rw = rewrite c in
  let b = Builder.create ~name:"rare" () in
  let inputs = Array.map (fun j -> Builder.input b (Circuit.node_name c j)) c.Circuit.inputs in
  let outs = LL.Netlist.Instantiate.append b rw ~inputs ~keys:[||] in
  let rare = Builder.and_reduce b (Array.sub inputs 0 16) in
  Array.iteri
    (fun o (name, _) ->
      Builder.output b name (if o = 0 then Builder.xor2 b outs.(0) rare else outs.(o)))
    c.Circuit.outputs;
  let flipped = Builder.finish b in
  let v, count = with_counters (fun () -> Equiv.check c flipped) in
  (match v with
  | Equiv.Counterexample cex ->
      Alcotest.(check bool) "counterexample is real" false (Equiv.equal_outputs c flipped ~inputs:cex)
  | Equiv.Equivalent -> Alcotest.fail "rare difference missed");
  Alcotest.(check bool) "the sweep refuted a pair" true (count "equiv.refuted" > 0)

let test_bounded_counts_every_phase () =
  let c = LL.Bench_suite.Iscas.get "c499" in
  let rw = rewrite c in
  List.iter
    (fun limit ->
      let v, count = with_counters (fun () -> Equiv.check_bounded ~conflict_limit:limit c rw) in
      let used = count "sat.conflicts" in
      match v with
      | Equiv.Unknown ->
          if used < limit then Alcotest.failf "Unknown after %d of %d conflicts" used limit
      | Equiv.Proved_equivalent ->
          if used > limit then Alcotest.failf "%d conflicts spent under a limit of %d" used limit
      | Equiv.Refuted _ -> Alcotest.fail "rewrite refuted")
    [ 1; 10; 100; 199; 200; 201; 250; 400; 1000; 100_000 ];
  match Equiv.check_bounded ~conflict_limit:100_000 c rw with
  | Equiv.Proved_equivalent -> ()
  | _ -> Alcotest.fail "a generous limit must prove the rewrite"

let test_deterministic () =
  let c = LL.Bench_suite.Iscas.get "c432" in
  let locked = lock "sarlock" c in
  let s = Split_attack.run ~n:2 locked ~oracle:(Oracle.of_circuit c) in
  let keys = Option.get (Split_attack.keys s) in
  let wrong = Array.map (fun k -> Bitvec.init (Bitvec.length k) (fun _ -> false)) keys in
  let composed = compose_with locked s wrong in
  List.iter
    (fun (a, b) ->
      let run () = Equiv.check ~samples:0 a b in
      let first = run () in
      Alcotest.(check bool) "same verdict and counterexample" true (first = run ()))
    [ (c, composed); (c, rewrite c); (c, LL.Bench_suite.Iscas.get "c432") ]

let suite =
  [
    Alcotest.test_case "random circuits match the plain miter" `Quick test_random_circuits;
    Alcotest.test_case "every scheme's compositions match" `Quick test_compositions;
    Alcotest.test_case "swept compositions match" `Quick test_swept_compositions;
    Alcotest.test_case "one flipped key bit is refuted" `Quick test_mutated_composition;
    Alcotest.test_case "complemented rewrite sweeps" `Quick test_rewrite_sweeps;
    Alcotest.test_case "rare difference is refuted" `Quick test_rare_difference_sweeps;
    Alcotest.test_case "bounded counts every phase" `Quick test_bounded_counts_every_phase;
    Alcotest.test_case "deterministic" `Quick test_deterministic;
  ]
