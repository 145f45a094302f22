open Helpers
module Solver = Ll_sat.Solver
module Tseitin = Ll_sat.Tseitin
module Lit = Ll_sat.Lit

(* The central property: for any circuit and any input/key assignment, the
   CNF under unit-forced ports is satisfiable and the output literals carry
   the values of the interpreter, which shares no code with the encoder's
   compiled program. *)
let encodes_correctly c seed =
  let g = Prng.create seed in
  let solver = Solver.create () in
  let env = Tseitin.create solver in
  let keys = Circuit.num_keys c in
  let input_lits = Tseitin.fresh_lits env (Circuit.num_inputs c) in
  let key_lits = Tseitin.fresh_lits env keys in
  let outs = Tseitin.encode env c ~input_lits ~key_lits in
  let inputs = Array.init (Circuit.num_inputs c) (fun _ -> Prng.bool g) in
  let key_vals = Array.init keys (fun _ -> Prng.bool g) in
  Array.iteri (fun i l -> Tseitin.force env l inputs.(i)) input_lits;
  Array.iteri (fun i l -> Tseitin.force env l key_vals.(i)) key_lits;
  match Solver.solve solver with
  | Solver.Unsat -> false
  | Solver.Sat ->
      let want = reference_outputs c ~inputs ~keys:key_vals in
      Array.for_all Fun.id (Array.mapi (fun i o -> Solver.value solver o = want.(i)) outs)

let test_full_adder () =
  for seed = 0 to 20 do
    Alcotest.(check bool) "encoding matches simulation" true
      (encodes_correctly (full_adder_circuit ()) seed)
  done

let test_all_gate_kinds () =
  (* One circuit exercising every gate constructor including LUT and MUX. *)
  let b = Builder.create () in
  let x = Builder.input b "x" and y = Builder.input b "y" and z = Builder.input b "z" in
  let t = Builder.const b true in
  let gates =
    [|
      Builder.gate b Gate.And [| x; y; z |];
      Builder.gate b Gate.Or [| x; y; z |];
      Builder.gate b Gate.Nand [| x; y |];
      Builder.gate b Gate.Nor [| x; y |];
      Builder.gate b Gate.Xor [| x; y; z |];
      Builder.gate b Gate.Xnor [| x; y |];
      Builder.not_ b x;
      Builder.buf b y;
      Builder.mux b ~select:x ~low:y ~high:z;
      Builder.gate b (Gate.Lut (Bitvec.of_string "10010110")) [| x; y; z |];
      Builder.and2 b x t;
    |]
  in
  Array.iteri (fun i g -> Builder.output b (Printf.sprintf "o%d" i) g) gates;
  let c = Builder.finish b in
  for seed = 0 to 30 do
    Alcotest.(check bool) "all gates encode" true (encodes_correctly c seed)
  done

let test_miter_unsat_for_equal_circuits () =
  (* Encoding the same circuit twice over shared inputs and asserting a
     difference must be unsatisfiable. *)
  let c = full_adder_circuit () in
  let solver = Solver.create () in
  let env = Tseitin.create solver in
  let input_lits = Tseitin.fresh_lits env 3 in
  let o1 = Tseitin.encode env c ~input_lits ~key_lits:[||] in
  let o2 = Tseitin.encode env c ~input_lits ~key_lits:[||] in
  let diffs =
    Array.map2
      (fun a bl ->
        let d = (Tseitin.fresh_lits env 1).(0) in
        Solver.add_clause solver [ Lit.negate d; a; bl ];
        Solver.add_clause solver [ Lit.negate d; Lit.negate a; Lit.negate bl ];
        Solver.add_clause solver [ d; Lit.negate a; bl ];
        Solver.add_clause solver [ d; a; Lit.negate bl ];
        d)
      o1 o2
  in
  Solver.add_clause solver (Array.to_list diffs);
  Alcotest.(check bool) "unsat" true (Solver.solve solver = Solver.Unsat)

let test_force_equal () =
  let solver = Solver.create () in
  let env = Tseitin.create solver in
  let lits = Tseitin.fresh_lits env 2 in
  Tseitin.force_equal env lits.(0) lits.(1);
  Tseitin.force env lits.(0) true;
  Alcotest.(check bool) "sat" true (Solver.solve solver = Solver.Sat);
  Alcotest.(check bool) "equal" true (Solver.value solver lits.(1))

let test_lit_true_cached () =
  let solver = Solver.create () in
  let env = Tseitin.create solver in
  Alcotest.(check int) "same literal" (Tseitin.lit_true env) (Tseitin.lit_true env)

let test_port_count_mismatch () =
  let c = full_adder_circuit () in
  let solver = Solver.create () in
  let env = Tseitin.create solver in
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Tseitin.encode: input literal count mismatch") (fun () ->
      ignore (Tseitin.encode env c ~input_lits:[||] ~key_lits:[||]))

(* Tseitin.copy onto a Solver.copy: the copied memo answers every gate
   the original already encoded (same literals, no new variable or
   clause), and what either env encodes afterwards stays its own. *)
let test_copy_reuses_memo () =
  let c = random_circuit ~seed:41 ~num_inputs:5 ~num_outputs:3 ~gates:40 () in
  let solver = Solver.create () in
  let env = Tseitin.create solver in
  let input_lits = Tseitin.fresh_lits env (Circuit.num_inputs c) in
  let outs = Tseitin.encode env c ~input_lits ~key_lits:[||] in
  let t = Tseitin.lit_true env in
  let solver' = Solver.copy solver in
  let env' = Tseitin.copy env solver' in
  let size s = (Solver.num_vars s, Solver.num_clauses s, (Solver.stats s).Solver.arena_words) in
  let before = size solver' in
  let outs' = Tseitin.encode env' c ~input_lits ~key_lits:[||] in
  Alcotest.(check (array int)) "same output literals" outs outs';
  Alcotest.(check int) "same constant literal" t (Tseitin.lit_true env');
  Alcotest.(check (triple int int int)) "no variable or clause emitted" before (size solver');
  (* A gate new to the copy: the original neither sees its variable nor
     its memo entry. *)
  let x' = (Tseitin.fresh_lits env' 1).(0) in
  let g' = Tseitin.mk_and env' [| x'; input_lits.(0) |] in
  Alcotest.(check (triple int int int)) "original untouched" before (size solver);
  let x = (Tseitin.fresh_lits env 1).(0) in
  Alcotest.(check int) "same fresh variable" x x';
  let g = Tseitin.mk_and env [| x; input_lits.(0) |] in
  Alcotest.(check int) "original encodes the gate itself" g' g;
  Alcotest.(check int) "original grew by two variables" (Solver.num_vars solver)
    (Solver.num_vars solver')

(* [random_all_gates] (keys, [Const] nodes, LUTs, MUXes) with two more
   outputs, a MUX whose branches are one node and a gate over a
   constant, and a gate no output reads. *)
let all_gates_circuit ~seed ~gates =
  let num_inputs = 4 and num_keys = 2 in
  let c = random_all_gates ~seed ~num_inputs ~num_keys ~gates ~num_outputs:3 () in
  (* [random_all_gates] puts [Const false] and [Const true] after the ports. *)
  let const_true = num_inputs + num_keys + 1 in
  let n = Circuit.num_nodes c in
  let g = Prng.create seed in
  let pick () = Prng.int g n in
  let a = pick () in
  let extra =
    [|
      Circuit.Gate (Gate.Mux, [| pick (); a; a |]);
      Circuit.Gate (Gate.And, [| pick (); const_true |]);
      Circuit.Gate (Gate.Xor, [| pick (); pick () |]);
    |]
  in
  Circuit.create ~name:"all_gates"
    ~nodes:(Array.append c.Circuit.nodes extra)
    ~node_names:(Array.init (n + 3) (fun i -> Printf.sprintf "n%d" i))
    ~outputs:(Array.append c.Circuit.outputs [| ("mux_eq", n); ("and_const", n + 1) |])

let prop_random_circuits =
  qcheck_case ~count:60 "random circuits encode correctly"
    QCheck2.Gen.(triple bool (int_bound 100000) (int_bound 60))
    (fun (all_gates, seed, gates) ->
      let c =
        if all_gates then all_gates_circuit ~seed ~gates:(5 + gates)
        else random_circuit ~seed ~num_inputs:5 ~num_outputs:3 ~gates:(5 + gates) ()
      in
      encodes_correctly c (seed + 7))

let suite =
  [
    Alcotest.test_case "full adder" `Quick test_full_adder;
    Alcotest.test_case "all gate kinds" `Quick test_all_gate_kinds;
    Alcotest.test_case "miter of equal circuits unsat" `Quick
      test_miter_unsat_for_equal_circuits;
    Alcotest.test_case "force_equal" `Quick test_force_equal;
    Alcotest.test_case "lit_true cached" `Quick test_lit_true_cached;
    Alcotest.test_case "port count mismatch" `Quick test_port_count_mismatch;
    Alcotest.test_case "copy reuses memo" `Quick test_copy_reuses_memo;
    prop_random_circuits;
  ]
