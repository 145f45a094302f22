(* Reproduces the paper's Fig. 1: (a) the error distribution of a tiny
   SARLock-locked circuit (|I| = |K| = 3, correct key 101), and (b) the
   multi-key MUX composition that unlocks the design with two incorrect
   keys.

   Run with: dune exec examples/error_distribution.exe *)

module LL = Logiclock
module Bitvec = LL.Util.Bitvec
module Analysis = LL.Attack.Analysis

let () =
  (* A small 3-input design, locked with SARLock and the correct key 101
     (bit 0 first, so the integer value is 5). *)
  let original =
    LL.Bench_suite.Generator.random_circuit ~seed:3 ~num_inputs:3 ~num_outputs:2 ~gates:8 ()
  in
  let locked =
    LL.Locking.Sarlock.lock ~key:(Bitvec.of_string "101") ~key_size:3 original
  in
  Format.printf "Fig. 1(a) — error distribution (rows: keys, columns: inputs 0..7):@.";
  let m = Analysis.error_matrix ~original ~locked:locked.LL.Locking.Locked.circuit () in
  Format.printf "%a@." Analysis.pp m;
  Format.printf "globally correct keys : %s@."
    (String.concat ", " (List.map string_of_int (Analysis.correct_keys m)));

  (* The one-key premise breaks down per sub-function: many incorrect keys
     unlock each half of the input space (split on the MSB, input 2). *)
  let half0 = Analysis.unlocking_keys m ~condition:[ (2, false) ] in
  let half1 = Analysis.unlocking_keys m ~condition:[ (2, true) ] in
  let show keys = String.concat ", " (List.map string_of_int keys) in
  Format.printf "keys unlocking msb=0  : %s@." (show half0);
  Format.printf "keys unlocking msb=1  : %s@." (show half1);

  (* Fig. 1(b): pick one (incorrect) key per half and compose them with a
     MUX selected by the MSB.  The result is equivalent to the original. *)
  let pick keys avoid =
    match List.find_opt (fun k -> k <> avoid) keys with
    | Some k -> k
    | None -> avoid
  in
  let correct = Bitvec.to_int locked.correct_key in
  let k0 = pick half0 correct and k1 = pick half1 correct in
  Format.printf "@.Fig. 1(b) — composing incorrect keys %d (msb=0) and %d (msb=1):@." k0 k1;
  let composed =
    LL.Attack.Compose.build_cubes locked.circuit
      ~cubes:
        [|
          ([ (2, false) ], Bitvec.of_int ~width:3 k0);
          ([ (2, true) ], Bitvec.of_int ~width:3 k1);
        |]
  in
  match LL.Attack.Equiv.check original composed with
  | LL.Attack.Equiv.Equivalent ->
      Format.printf
        "the MUX-composed netlist is functionally EQUIVALENT to the original design@.";
      Format.printf "(neither key is the correct key %d — the one-key premise fails)@." correct
  | LL.Attack.Equiv.Counterexample cex ->
      Format.printf "composition failed on input %s (unexpected)@."
        (Bitvec.to_string (Bitvec.of_bool_array cex))
