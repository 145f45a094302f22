open Helpers
module Testbench = LL.Netlist.Testbench

let test_structure () =
  let tb = Testbench.generate ~vectors:4 (full_adder_circuit ()) in
  Alcotest.(check bool) "module" true (contains tb "module fa_tb;");
  Alcotest.(check bool) "dut instance" true (contains tb "fa dut(");
  Alcotest.(check bool) "stimulus reg" true (contains tb "reg [2:0] stimulus;");
  Alcotest.(check bool) "response wire" true (contains tb "wire [1:0] response;");
  Alcotest.(check bool) "pass message" true (contains tb "PASS: 4 vectors");
  Alcotest.(check bool) "finish" true (contains tb "$finish;")

let test_vector_count () =
  let tb = Testbench.generate ~vectors:7 (full_adder_circuit ()) in
  (* One '#1;' delay per vector. *)
  let count = ref 0 in
  String.iteri
    (fun i ch ->
      if ch = '#' && i + 1 < String.length tb && tb.[i + 1] = '1' then incr count)
    tb;
  Alcotest.(check int) "7 vectors" 7 !count

let test_expected_values_correct () =
  (* Check one specific stimulus/response pair against the simulator. *)
  let c = full_adder_circuit () in
  let tb = Testbench.generate ~vectors:16 ~seed:5 c in
  (* Recompute the first vector from the same PRNG. *)
  let prng = Prng.create 5 in
  let inputs = Array.init 3 (fun _ -> Prng.bool prng) in
  let expected = Eval.eval c ~inputs ~keys:[||] in
  let in_lit = String.init 3 (fun i -> if inputs.(2 - i) then '1' else '0') in
  let out_lit = String.init 2 (fun o -> if expected.(1 - o) then '1' else '0') in
  Alcotest.(check bool) "stimulus emitted" true (contains tb ("stimulus = 3'b" ^ in_lit));
  Alcotest.(check bool) "expected response emitted" true
    (contains tb ("!== 2'b" ^ out_lit))

let test_locked_requires_key () =
  let c = random_circuit ~seed:210 () in
  let locked = LL.Locking.Xor_lock.lock ~num_keys:3 c in
  Alcotest.(check bool) "raises without key" true
    (try
       ignore (Testbench.generate locked.circuit);
       false
     with Invalid_argument _ -> true);
  let tb = Testbench.generate ~key:locked.correct_key locked.circuit in
  Alcotest.(check bool) "key register driven" true (contains tb "key = 3'b")

let test_key_width_checked () =
  let c = random_circuit ~seed:211 () in
  let locked = LL.Locking.Xor_lock.lock ~num_keys:3 c in
  Alcotest.(check bool) "raises on width" true
    (try
       ignore (Testbench.generate ~key:(Bitvec.create 2) locked.circuit);
       false
     with Invalid_argument _ -> true)

let test_file_written () =
  let path = Filename.temp_file "lltest" "_tb.v" in
  Testbench.write_file ~vectors:2 path (full_adder_circuit ());
  let ic = open_in path in
  let len = in_channel_length ic in
  close_in ic;
  Sys.remove path;
  Alcotest.(check bool) "non-empty" true (len > 200)

let suite =
  [
    Alcotest.test_case "structure" `Quick test_structure;
    Alcotest.test_case "vector count" `Quick test_vector_count;
    Alcotest.test_case "expected values correct" `Quick test_expected_values_correct;
    Alcotest.test_case "locked requires key" `Quick test_locked_requires_key;
    Alcotest.test_case "key width checked" `Quick test_key_width_checked;
    Alcotest.test_case "file written" `Quick test_file_written;
  ]
