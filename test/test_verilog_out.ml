open Helpers
module Verilog_out = LL.Netlist.Verilog_out

let test_module_structure () =
  let v = Verilog_out.to_string (full_adder_circuit ()) in
  Alcotest.(check bool) "module line" true (contains v "module fa(");
  Alcotest.(check bool) "endmodule" true (contains v "endmodule");
  Alcotest.(check bool) "inputs" true (contains v "input a;");
  Alcotest.(check bool) "outputs" true (contains v "output sum_o;");
  Alcotest.(check bool) "xor instance" true (contains v "xor g");
  Alcotest.(check bool) "output assign" true (contains v "assign sum_o = ")

let test_key_ports_marked () =
  let c = random_circuit ~seed:150 () in
  let locked = (LL.Locking.Xor_lock.lock ~num_keys:2 c).circuit in
  let v = Verilog_out.to_string locked in
  Alcotest.(check bool) "key comment" true (contains v "// key port");
  Alcotest.(check bool) "keyinput port" true (contains v "input keyinput0;")

let test_mux_and_lut_rendering () =
  let b = Builder.create ~name:"m" () in
  let x = Builder.input b "x" and y = Builder.input b "y" and s = Builder.input b "s" in
  Builder.output b "om" (Builder.mux b ~select:s ~low:x ~high:y);
  Builder.output b "ol" (Builder.gate b (Gate.Lut (Bitvec.of_string "0110")) [| x; y |]);
  let c = Builder.finish b in
  let v = Verilog_out.to_string c in
  Alcotest.(check bool) "ternary mux" true (contains v " ? ");
  Alcotest.(check bool) "lut minterms" true (contains v " | ")

let test_identifier_mangling () =
  let b = Builder.create ~name:"weird name" () in
  let x = Builder.input b "3bad" in
  let w = Builder.gate ~name:"a-b" b Gate.Not [| x |] in
  Builder.output b "out" w;
  let c = Builder.finish b in
  let v = Verilog_out.to_string c in
  Alcotest.(check bool) "module mangled" true (contains v "module weird_name(");
  Alcotest.(check bool) "no raw dash" false (contains v "a-b")

let test_const_rendering () =
  let b = Builder.create () in
  let x = Builder.input b "x" in
  let t = Builder.const b true in
  Builder.output b "o" (Builder.and2 b x t);
  let c = Builder.finish b in
  let v = Verilog_out.to_string c in
  Alcotest.(check bool) "const one" true (contains v "1'b1")

let test_file_written () =
  let c = full_adder_circuit () in
  let path = Filename.temp_file "lltest" ".v" in
  Verilog_out.write_file path c;
  let ic = open_in path in
  let len = in_channel_length ic in
  close_in ic;
  Sys.remove path;
  Alcotest.(check bool) "non-empty" true (len > 100)

let suite =
  [
    Alcotest.test_case "module structure" `Quick test_module_structure;
    Alcotest.test_case "key ports marked" `Quick test_key_ports_marked;
    Alcotest.test_case "mux and lut rendering" `Quick test_mux_and_lut_rendering;
    Alcotest.test_case "identifier mangling" `Quick test_identifier_mangling;
    Alcotest.test_case "const rendering" `Quick test_const_rendering;
    Alcotest.test_case "file written" `Quick test_file_written;
  ]
