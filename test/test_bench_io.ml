open Helpers
module Bench_io = LL.Netlist.Bench_io

let c17_text =
  "# c17\n\
   INPUT(G1)\n\
   INPUT(G2)\n\
   INPUT(G3)\n\
   INPUT(G6)\n\
   INPUT(G7)\n\
   OUTPUT(G22)\n\
   OUTPUT(G23)\n\
   G10 = NAND(G1, G3)\n\
   G11 = NAND(G3, G6)\n\
   G16 = NAND(G2, G11)\n\
   G19 = NAND(G11, G7)\n\
   G22 = NAND(G10, G16)\n\
   G23 = NAND(G16, G19)\n"

let test_parse_c17 () =
  let c = Bench_io.parse_string ~name:"c17" c17_text in
  Alcotest.(check int) "inputs" 5 (Circuit.num_inputs c);
  Alcotest.(check int) "outputs" 2 (Circuit.num_outputs c);
  Alcotest.(check int) "gates" 6 (Circuit.gate_count c);
  (* Must agree with the embedded c17. *)
  Alcotest.(check bool) "matches embedded c17" true
    (exhaustively_equal c (LL.Bench_suite.Iscas.c17 ()))

let test_out_of_order_definitions () =
  let text = "OUTPUT(y)\ny = NOT(w)\nw = AND(a, b)\nINPUT(a)\nINPUT(b)\n" in
  let c = Bench_io.parse_string text in
  Alcotest.(check int) "gates" 2 (Circuit.gate_count c);
  let out = Eval.eval c ~inputs:[| true; true |] ~keys:[||] in
  Alcotest.(check bool) "nand behaviour" false out.(0)

let test_key_inputs_detected () =
  let text = "INPUT(a)\nINPUT(keyinput0)\nOUTPUT(y)\ny = XOR(a, keyinput0)\n" in
  let c = Bench_io.parse_string text in
  Alcotest.(check int) "one key" 1 (Circuit.num_keys c);
  Alcotest.(check int) "one input" 1 (Circuit.num_inputs c)

let test_comments_and_blanks () =
  let text = "\n# leading comment\nINPUT(a)  # trailing\n\nOUTPUT(y)\ny = BUF(a)\n" in
  let c = Bench_io.parse_string text in
  Alcotest.(check int) "inputs" 1 (Circuit.num_inputs c)

let test_cycle_detected () =
  let text = "INPUT(a)\nOUTPUT(y)\ny = AND(a, z)\nz = NOT(y)\n" in
  Alcotest.(check bool) "cycle raises" true
    (try
       ignore (Bench_io.parse_string text);
       false
     with Bench_io.Parse_error _ | Circuit.Ill_formed _ -> true)

let test_undefined_signal () =
  let text = "INPUT(a)\nOUTPUT(y)\ny = AND(a, ghost)\n" in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Bench_io.parse_string text);
       false
     with Bench_io.Parse_error _ | Circuit.Ill_formed _ -> true)

let test_unknown_gate () =
  let text = "INPUT(a)\nOUTPUT(y)\ny = FROB(a)\n" in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Bench_io.parse_string text);
       false
     with Bench_io.Parse_error _ -> true)

let test_duplicate_definition () =
  let text = "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\ny = BUF(a)\n" in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Bench_io.parse_string text);
       false
     with Bench_io.Parse_error _ -> true)

let test_lut_extension_roundtrip () =
  let b = Builder.create ~name:"lutc" () in
  let x = Builder.input b "x" in
  let y = Builder.input b "y" in
  let lut = Builder.gate b (Gate.Lut (Bitvec.of_string "0110")) [| x; y |] in
  Builder.output b "o" lut;
  let c = Builder.finish b in
  let c2 = Bench_io.parse_string (Bench_io.to_string c) in
  Alcotest.(check bool) "function preserved" true (exhaustively_equal c c2)

let test_roundtrip_random () =
  let c = random_circuit ~seed:21 ~num_inputs:6 ~num_outputs:4 ~gates:60 () in
  let c2 = Bench_io.parse_string (Bench_io.to_string c) in
  Alcotest.(check int) "inputs" (Circuit.num_inputs c) (Circuit.num_inputs c2);
  Alcotest.(check int) "outputs" (Circuit.num_outputs c) (Circuit.num_outputs c2);
  Alcotest.(check bool) "function preserved" true (exhaustively_equal c c2)

let test_roundtrip_locked () =
  let c = random_circuit ~seed:22 () in
  let locked = LL.Locking.Xor_lock.lock ~num_keys:4 c in
  let c2 = Bench_io.parse_string (Bench_io.to_string locked.LL.Locking.Locked.circuit) in
  Alcotest.(check int) "keys preserved" 4 (Circuit.num_keys c2);
  let key = Bitvec.to_bool_array locked.correct_key in
  let g = Prng.create 1 in
  let ok = ref true in
  for _ = 1 to 64 do
    let inputs = Array.init (Circuit.num_inputs c) (fun _ -> Prng.bool g) in
    if
      Eval.eval locked.circuit ~inputs ~keys:key <> Eval.eval c2 ~inputs ~keys:key
    then ok := false
  done;
  Alcotest.(check bool) "function preserved under key" true !ok

let test_roundtrip_rewritten_output () =
  (* SARLock re-drives an output wire whose old driver keeps the name: the
     writer must rename the internal node and emit an alias (regression
     test for the duplicate-definition bug). *)
  let c = LL.Bench_suite.Iscas.c17 () in
  let locked = LL.Locking.Sarlock.lock ~key:(Bitvec.of_string "101") ~key_size:3 c in
  let text = Bench_io.to_string locked.LL.Locking.Locked.circuit in
  let c2 = Bench_io.parse_string text in
  Alcotest.(check int) "keys preserved" 3 (Circuit.num_keys c2);
  let ok = ref true in
  for v = 0 to 31 do
    for k = 0 to 7 do
      let inputs = Array.init 5 (fun i -> (v lsr i) land 1 = 1) in
      let keys = Array.init 3 (fun i -> (k lsr i) land 1 = 1) in
      if Eval.eval locked.circuit ~inputs ~keys <> Eval.eval c2 ~inputs ~keys then ok := false
    done
  done;
  Alcotest.(check bool) "keyed function preserved" true !ok

let test_file_roundtrip () =
  let c = random_circuit ~seed:23 () in
  let path = Filename.temp_file "lltest" ".bench" in
  Bench_io.write_file path c;
  let c2 = Bench_io.parse_file path in
  Sys.remove path;
  Alcotest.(check bool) "function preserved" true (exhaustively_equal c c2)

let test_const_emission () =
  let b = Builder.create () in
  let x = Builder.input b "x" in
  let t = Builder.const b true in
  Builder.output b "o" (Builder.and2 b x t);
  let c = Builder.finish b in
  let c2 = Bench_io.parse_string (Bench_io.to_string c) in
  Alcotest.(check bool) "const survives" true (exhaustively_equal c c2)

let prop_roundtrip_random_circuits =
  qcheck_case ~count:40 "random circuits roundtrip through .bench"
    QCheck2.Gen.(pair (int_bound 100000) (int_bound 60))
    (fun (seed, gates) ->
      let c = random_circuit ~seed ~num_inputs:5 ~num_outputs:3 ~gates:(5 + gates) () in
      exhaustively_equal c (Bench_io.parse_string (Bench_io.to_string c)))

(* Fuzzing: [parse_string] must either return a circuit or raise one of
   its two documented exceptions, whatever the text.  The seed is a keyed
   netlist with a LUT gate as the writer prints it; the cases are its
   every prefix and random 1-4 character edits of it. *)
let fuzz_seed =
  let b = Builder.create ~name:"fuzz" () in
  let x = Builder.input b "x" and y = Builder.input b "y" and z = Builder.input b "z" in
  let k0 = Builder.key_input b "keyinput0" and k1 = Builder.key_input b "keyinput1" in
  let lut = Builder.gate b (Gate.Lut (Bitvec.of_string "01101001")) [| x; y; k0 |] in
  Builder.output b "o" (Builder.xor2 b lut (Builder.mux b ~select:k1 ~low:z ~high:x));
  Builder.output b "p" (Builder.nand2 b y z);
  Bench_io.to_string (Builder.finish b)

let parse_or_reject text =
  match Bench_io.parse_string text with
  | _ -> ()
  | exception Bench_io.Parse_error _ -> ()
  | exception Circuit.Ill_formed _ -> ()

let test_fuzz_prefixes () =
  Alcotest.(check bool) "seed has a LUT" true (contains fuzz_seed "LUT_");
  for n = 0 to String.length fuzz_seed do
    match parse_or_reject (String.sub fuzz_seed 0 n) with
    | () -> ()
    | exception e -> Alcotest.failf "prefix of %d chars: %s" n (Printexc.to_string e)
  done

(* An edit at [pos] (taken modulo the text length): 0 inserts [ch], 1
   deletes a character, 2 replaces one with [ch]. *)
let apply_edit text (pos, kind, ch) =
  let n = String.length text in
  let pos = pos mod (n + 1) in
  let before = String.sub text 0 pos in
  let after k = String.sub text (pos + k) (n - pos - k) in
  match kind with
  | 0 -> before ^ String.make 1 ch ^ after 0
  | _ when pos = n -> text
  | 1 -> before ^ after 1
  | _ -> before ^ String.make 1 ch ^ after 1

let prop_fuzz_mutations =
  qcheck_case ~count:2000 ".bench mutations parse or are rejected"
    QCheck2.Gen.(
      list_size (int_range 1 4)
        (triple (int_bound 4096) (int_bound 2)
           (oneof [ oneofl [ '('; ')'; ','; '='; '#'; '_'; ' '; '\n'; '0'; '1' ]; char ])))
    (fun edits ->
      parse_or_reject (List.fold_left apply_edit fuzz_seed edits);
      true)

let suite =
  [
    Alcotest.test_case "parse c17" `Quick test_parse_c17;
    prop_roundtrip_random_circuits;
    Alcotest.test_case "out of order definitions" `Quick test_out_of_order_definitions;
    Alcotest.test_case "key inputs detected" `Quick test_key_inputs_detected;
    Alcotest.test_case "comments and blanks" `Quick test_comments_and_blanks;
    Alcotest.test_case "cycle detected" `Quick test_cycle_detected;
    Alcotest.test_case "undefined signal" `Quick test_undefined_signal;
    Alcotest.test_case "unknown gate" `Quick test_unknown_gate;
    Alcotest.test_case "duplicate definition" `Quick test_duplicate_definition;
    Alcotest.test_case "lut extension roundtrip" `Quick test_lut_extension_roundtrip;
    Alcotest.test_case "roundtrip random" `Quick test_roundtrip_random;
    Alcotest.test_case "roundtrip locked" `Quick test_roundtrip_locked;
    Alcotest.test_case "roundtrip rewritten output" `Quick test_roundtrip_rewritten_output;
    Alcotest.test_case "file roundtrip" `Quick test_file_roundtrip;
    Alcotest.test_case "const emission" `Quick test_const_emission;
    Alcotest.test_case "fuzz: every prefix parses or is rejected" `Quick test_fuzz_prefixes;
    prop_fuzz_mutations;
  ]
