(* Shared fixtures and generators for the test suite. *)

module LL = Logiclock
module Circuit = LL.Netlist.Circuit
module Builder = LL.Netlist.Builder
module Gate = LL.Netlist.Gate
module Eval = LL.Netlist.Eval
module Bitvec = LL.Util.Bitvec
module Prng = LL.Util.Prng

let bitvec_testable =
  Alcotest.testable (fun fmt v -> Format.pp_print_string fmt (Bitvec.to_string v)) Bitvec.equal

(* A tiny 1-bit full adder: 3 inputs, 2 outputs. *)
let full_adder_circuit () =
  let b = Builder.create ~name:"fa" () in
  let a = Builder.input b "a" in
  let bb = Builder.input b "b" in
  let cin = Builder.input b "cin" in
  let axb = Builder.xor2 b a bb in
  let sum = Builder.xor2 b axb cin in
  let carry = Builder.or2 b (Builder.and2 b a bb) (Builder.and2 b axb cin) in
  Builder.output b "sum" sum;
  Builder.output b "cout" carry;
  Builder.finish b

(* A 2-output circuit with redundancy for the synthesis passes. *)
let redundant_circuit () =
  let b = Builder.create ~name:"red" () in
  let x = Builder.input b "x" in
  let y = Builder.input b "y" in
  let t = Builder.const b true in
  let a1 = Builder.and2 b x y in
  let a2 = Builder.and2 b x y in
  (* duplicate of a1 *)
  let nn = Builder.not_ b (Builder.not_ b x) in
  (* double negation *)
  let with_const = Builder.and2 b a1 t in
  (* AND with true *)
  Builder.output b "o1" (Builder.or2 b a2 with_const);
  Builder.output b "o2" nn;
  Builder.finish b

let random_circuit ?(seed = 7) ?(num_inputs = 5) ?(num_outputs = 3) ?(gates = 30) () =
  LL.Bench_suite.Generator.random_circuit ~seed ~num_inputs ~num_outputs ~gates ()

(* Random circuits over every gate kind — including the n-ary gates,
   [Mux] and [Lut], which the shared [random_circuit] helper never
   emits. *)
let random_all_gates ~seed ~num_inputs ~num_keys ~gates ~num_outputs () =
  let g = Prng.create seed in
  let nodes = ref [] and count = ref 0 in
  let add nd =
    nodes := nd :: !nodes;
    incr count
  in
  for _ = 1 to num_inputs do
    add Circuit.Input
  done;
  for _ = 1 to num_keys do
    add Circuit.Key_input
  done;
  add (Circuit.Const false);
  add (Circuit.Const true);
  for _ = 1 to gates do
    let pick () = Prng.int g !count in
    let nary gate =
      let k = 1 + Prng.int g 4 in
      Circuit.Gate (gate, Array.init k (fun _ -> pick ()))
    in
    let nd =
      match Prng.int g 10 with
      | 0 -> nary Gate.And
      | 1 -> nary Gate.Or
      | 2 -> nary Gate.Nand
      | 3 -> nary Gate.Nor
      | 4 -> nary Gate.Xor
      | 5 -> nary Gate.Xnor
      | 6 -> Circuit.Gate (Gate.Not, [| pick () |])
      | 7 -> Circuit.Gate (Gate.Buf, [| pick () |])
      | 8 -> Circuit.Gate (Gate.Mux, [| pick (); pick (); pick () |])
      | _ ->
          let k = 1 + Prng.int g 3 in
          let table = Bitvec.init (1 lsl k) (fun _ -> Prng.bool g) in
          Circuit.Gate (Gate.Lut table, Array.init k (fun _ -> pick ()))
    in
    add nd
  done;
  let nodes = Array.of_list (List.rev !nodes) in
  let node_names = Array.mapi (fun i _ -> Printf.sprintf "n%d" i) nodes in
  let outputs =
    Array.init num_outputs (fun o ->
        (Printf.sprintf "out%d" o, Prng.int g (Array.length nodes)))
  in
  Circuit.create ~name:"rand_all" ~nodes ~node_names ~outputs

(* Reference output values through the interpreter, which does not go
   through the compiled kernel. *)
let reference_outputs c ~inputs ~keys =
  let values = Eval.eval_all_nodes c ~inputs ~keys in
  Array.map (fun j -> values.(j)) (Circuit.output_nodes c)

(* Exhaustive functional equality for small key-free circuits. *)
let exhaustively_equal c1 c2 =
  let n = Circuit.num_inputs c1 in
  assert (n <= 16);
  let equal = ref true in
  for v = 0 to (1 lsl n) - 1 do
    let inputs = Bitvec.to_bool_array (Bitvec.of_int ~width:n v) in
    if Eval.eval c1 ~inputs ~keys:[||] <> Eval.eval c2 ~inputs ~keys:[||] then equal := false
  done;
  !equal

(* Functional equality on [trials] random patterns (for larger circuits). *)
let randomly_equal ?(trials = 128) ?(seed = 11) c1 c2 =
  let g = Prng.create seed in
  let n = Circuit.num_inputs c1 in
  let equal = ref true in
  for _ = 1 to trials do
    let inputs = Array.init n (fun _ -> Prng.bool g) in
    if Eval.eval c1 ~inputs ~keys:[||] <> Eval.eval c2 ~inputs ~keys:[||] then equal := false
  done;
  !equal

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let qcheck_case ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)
