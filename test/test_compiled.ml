(* The compiled flat-netlist kernel: differential fuzz against the
   reference interpreter (scalar, packed, bitvec), SAT-checked
   equivalence of the cofactor emitter against the circuit-rebuild
   (Simplify+Sweep) constraint path, liveness of the backward sweep, and
   scratch ownership rules. *)

open Helpers
module Compiled = LL.Netlist.Compiled
module Solver = LL.Sat.Solver
module Tseitin = LL.Sat.Tseitin
module Lit = LL.Sat.Lit
module Simplify = LL.Synth.Simplify
module Sweep = LL.Synth.Sweep

let bool_array = Alcotest.(array bool)

let test_scalar_vs_reference () =
  for seed = 0 to 19 do
    let c =
      random_all_gates ~seed ~num_inputs:(3 + (seed mod 4)) ~num_keys:(seed mod 3)
        ~gates:(10 + (3 * seed)) ~num_outputs:4 ()
    in
    let p = Compiled.compile c in
    let g = Prng.create (1000 + seed) in
    for _ = 1 to 16 do
      let inputs = Array.init (Circuit.num_inputs c) (fun _ -> Prng.bool g) in
      let keys = Array.init (Circuit.num_keys c) (fun _ -> Prng.bool g) in
      Alcotest.check bool_array "scalar kernel = interpreter"
        (reference_outputs c ~inputs ~keys)
        (Compiled.eval p ~inputs ~keys)
    done
  done

let test_lanes_vs_scalar () =
  for seed = 0 to 9 do
    let c =
      random_all_gates ~seed:(100 + seed) ~num_inputs:4 ~num_keys:2
        ~gates:(15 + (4 * seed)) ~num_outputs:3 ()
    in
    let p = Compiled.compile c in
    let g = Prng.create (2000 + seed) in
    let n_in = Circuit.num_inputs c and n_key = Circuit.num_keys c in
    (* 64 random patterns, packed one per lane. *)
    let pats =
      Array.init 64 (fun _ ->
          ( Array.init n_in (fun _ -> Prng.bool g),
            Array.init n_key (fun _ -> Prng.bool g) ))
    in
    let pack sel width =
      Array.init width (fun p ->
          let w = ref 0L in
          for l = 0 to 63 do
            if (sel pats.(l)).(p) then w := Int64.logor !w (Int64.shift_left 1L l)
          done;
          !w)
    in
    let out_lanes =
      Compiled.eval_lanes p ~inputs:(pack fst n_in) ~keys:(pack snd n_key)
    in
    for l = 0 to 63 do
      let inputs, keys = pats.(l) in
      let expect = reference_outputs c ~inputs ~keys in
      let got =
        Array.map
          (fun w -> Int64.logand (Int64.shift_right_logical w l) 1L = 1L)
          out_lanes
      in
      Alcotest.check bool_array "packed lane = interpreter" expect got
    done
  done

let test_eval_bv () =
  let c = random_all_gates ~seed:42 ~num_inputs:5 ~num_keys:3 ~gates:40 ~num_outputs:4 () in
  let p = Compiled.compile c in
  let g = Prng.create 77 in
  for _ = 1 to 32 do
    let inputs = Bitvec.random g 5 and keys = Bitvec.random g 3 in
    let expect =
      reference_outputs c ~inputs:(Bitvec.to_bool_array inputs)
        ~keys:(Bitvec.to_bool_array keys)
    in
    Alcotest.check bitvec_testable "eval_bv = interpreter" (Bitvec.of_bool_array expect)
      (Compiled.eval_bv p ~inputs ~keys)
  done

(* The cofactor emitter must define, for every output, the same key
   function as encoding the Simplify+Sweep rebuilt circuit.  Both
   encodings share the same key literals in one solver, so equivalence
   of each output pair is provable by two UNSAT queries. *)
let test_cofactor_emitter_equiv () =
  for seed = 0 to 11 do
    let c =
      random_all_gates ~seed:(300 + seed) ~num_inputs:4 ~num_keys:4
        ~gates:(20 + (5 * seed)) ~num_outputs:3 ()
    in
    let n_in = Circuit.num_inputs c and n_key = Circuit.num_keys c in
    let p = Compiled.compile c in
    let s = Compiled.scratch p in
    let solver = Solver.create () in
    let env = Tseitin.create solver in
    let key_lits = Tseitin.fresh_lits env n_key in
    let g = Prng.create (4000 + seed) in
    for _ = 1 to 4 do
      let dip = Array.init n_in (fun _ -> Prng.bool g) in
      Compiled.cofactor_into p s ~inputs:dip;
      let outs_k = Tseitin.encode_cofactored env p s ~key_lits in
      let small =
        Sweep.run (Simplify.run ~bind:(List.init n_in (fun i -> (i, dip.(i)))) c)
      in
      let outs_r = Tseitin.encode env small ~input_lits:[||] ~key_lits in
      Array.iteri
        (fun o lk ->
          let lr = outs_r.(o) in
          let unsat assumptions =
            Solver.solve ~assumptions solver = Solver.Unsat
          in
          Alcotest.(check bool)
            (Printf.sprintf "seed %d output %d: kernel&&~rebuild unsat" seed o)
            true
            (unsat [ lk; Lit.negate lr ]);
          Alcotest.(check bool)
            (Printf.sprintf "seed %d output %d: ~kernel&&rebuild unsat" seed o)
            true
            (unsat [ Lit.negate lk; lr ]))
        outs_k
    done
  done

(* Constant outputs of the ternary pass agree with the rebuilt circuit's
   folded constants. *)
let test_cofactor_constants () =
  for seed = 0 to 7 do
    let c =
      random_all_gates ~seed:(500 + seed) ~num_inputs:5 ~num_keys:2 ~gates:30
        ~num_outputs:4 ()
    in
    let n_in = Circuit.num_inputs c in
    let p = Compiled.compile c in
    let s = Compiled.scratch p in
    let g = Prng.create (6000 + seed) in
    let dip = Array.init n_in (fun _ -> Prng.bool g) in
    Compiled.cofactor_into p s ~inputs:dip;
    let small =
      Sweep.run (Simplify.run ~bind:(List.init n_in (fun i -> (i, dip.(i)))) c)
    in
    let small_outs = Circuit.output_nodes small in
    Array.iteri
      (fun o j ->
        match Circuit.node small j with
        | Circuit.Const v ->
            Alcotest.(check int)
              (Printf.sprintf "seed %d output %d const" seed o)
              (if v then 1 else 0)
              (Compiled.output_tern p s o)
        | _ ->
            Alcotest.(check int)
              (Printf.sprintf "seed %d output %d symbolic" seed o)
              2 (Compiled.output_tern p s o))
      small_outs
  done

(* A MUX whose select collapses under the cofactor keeps only the chosen
   branch alive; the dead branch must not be encoded. *)
let test_mux_liveness () =
  let b = Builder.create ~name:"muxlive" () in
  let x = Builder.input b "x" in
  let k0 = Builder.key_input b "k0" in
  let k1 = Builder.key_input b "k1" in
  let m = Builder.mux b ~select:x ~low:k0 ~high:k1 in
  Builder.output b "y" m;
  let c = Builder.finish b in
  let p = Compiled.compile c in
  let s = Compiled.scratch p in
  (* x = false selects the low branch (k0). *)
  Compiled.cofactor_into p s ~inputs:[| false |];
  Alcotest.(check bool) "k0 live" true (Compiled.is_live s 1);
  Alcotest.(check bool) "k1 dead" false (Compiled.is_live s 2);
  Compiled.cofactor_into p s ~inputs:[| true |];
  Alcotest.(check bool) "k0 dead" false (Compiled.is_live s 1);
  Alcotest.(check bool) "k1 live" true (Compiled.is_live s 2)

let test_scratch_rules () =
  let c1 = random_all_gates ~seed:1 ~num_inputs:3 ~num_keys:1 ~gates:10 ~num_outputs:2 () in
  let c2 = random_all_gates ~seed:2 ~num_inputs:3 ~num_keys:1 ~gates:12 ~num_outputs:2 () in
  let p1 = Compiled.compile c1 and p2 = Compiled.compile c2 in
  let s1 = Compiled.scratch p1 in
  (* Wrong-program scratch is rejected. *)
  Alcotest.check_raises "foreign scratch"
    (Invalid_argument "Compiled: scratch belongs to another program") (fun () ->
      Compiled.eval_into p2 s1 ~inputs:[| false; false; false |] ~keys:[| false |]);
  (* Reuse: a second eval through the same scratch is not polluted by the
     first. *)
  let inputs1 = [| true; false; true |] and inputs2 = [| false; true; false |] in
  Compiled.eval_into p1 s1 ~inputs:inputs1 ~keys:[| true |];
  let first = Compiled.read_outputs p1 s1 in
  Compiled.eval_into p1 s1 ~inputs:inputs2 ~keys:[| false |];
  Compiled.eval_into p1 s1 ~inputs:inputs1 ~keys:[| true |];
  Alcotest.check bool_array "scratch reuse deterministic" first
    (Compiled.read_outputs p1 s1)

(* Incremental exactness: one scratch reused across a random sequence of
   scalar, bit-vector, packed and ternary calls must match a fresh
   scratch after every call — node values, ternary values, liveness and
   the X count, each against the ports of the last call of its kind (a
   packed call must leave both untouched).  Steps flip no port, one, a
   few or redraw them all, so the incremental scan and both full-sweep
   fallbacks run. *)
let incremental_matches_fresh (seed, steps) =
  let num_inputs = 4 + (seed mod 13) and num_keys = seed mod 5 in
  let c =
    random_all_gates ~seed ~num_inputs ~num_keys ~gates:(20 + (seed mod 120))
      ~num_outputs:(1 + (seed mod 4)) ()
  in
  let p = Compiled.compile c in
  let n = p.Compiled.num_nodes in
  (* [eval_bv] runs on the domain's cached scratch, so reuse that one. *)
  let reused = Compiled.local_scratch p in
  let g = Prng.create (seed + 17) in
  let inputs = Array.init num_inputs (fun _ -> Prng.bool g) in
  let keys = Array.init num_keys (fun _ -> Prng.bool g) in
  let change a =
    let len = Array.length a in
    if len > 0 then
      match Prng.int g 4 with
      | 0 -> ()
      | 1 ->
          let i = Prng.int g len in
          a.(i) <- not a.(i)
      | 2 ->
          for _ = 1 to 2 + Prng.int g 2 do
            let i = Prng.int g len in
            a.(i) <- not a.(i)
          done
      | _ -> Array.iteri (fun i _ -> a.(i) <- Prng.bool g) a
  in
  let scalar_ports = ref None and ternary_ports = ref None in
  let ok = ref true in
  let check () =
    Option.iter
      (fun (inputs, keys) ->
        let fresh = Compiled.scratch p in
        Compiled.eval_into p fresh ~inputs ~keys;
        for i = 0 to n - 1 do
          if Compiled.node_val reused i <> Compiled.node_val fresh i then ok := false
        done)
      !scalar_ports;
    Option.iter
      (fun inputs ->
        let fresh = Compiled.scratch p in
        Compiled.cofactor_into p fresh ~inputs;
        for i = 0 to n - 1 do
          if Compiled.tern_val reused i <> Compiled.tern_val fresh i then ok := false;
          if Compiled.is_live reused i <> Compiled.is_live fresh i then ok := false
        done;
        if Compiled.unknown_count reused <> Compiled.unknown_count fresh then ok := false)
      !ternary_ports
  in
  for _ = 1 to steps do
    change inputs;
    change keys;
    (match Prng.int g 4 with
    | 0 ->
        Compiled.eval_into p reused ~inputs ~keys;
        scalar_ports := Some (Array.copy inputs, Array.copy keys)
    | 1 ->
        ignore
          (Compiled.eval_bv p ~inputs:(Bitvec.of_bool_array inputs)
             ~keys:(Bitvec.of_bool_array keys));
        scalar_ports := Some (Array.copy inputs, Array.copy keys)
    | 2 ->
        let lane b = if b then -1L else 0L in
        Compiled.eval_lanes_into p reused ~inputs:(Array.map lane inputs)
          ~keys:(Array.map lane keys)
    | _ ->
        Compiled.cofactor_into p reused ~inputs;
        ternary_ports := Some (Array.copy inputs));
    check ()
  done;
  !ok

let test_incremental_exact =
  qcheck_case ~count:200 "incremental = fresh sweep"
    QCheck2.Gen.(pair (int_bound 100000) (int_range 1 60))
    incremental_matches_fresh

let test_cached_memo () =
  let c = random_all_gates ~seed:3 ~num_inputs:3 ~num_keys:0 ~gates:8 ~num_outputs:1 () in
  let p1 = Compiled.cached c and p2 = Compiled.cached c in
  Alcotest.(check bool) "same compiled program" true (p1 == p2)

(* The domain's scratch cache holds each scratch weakly by its program:
   a live program keeps getting the same scratch, a dropped one takes its
   scratch with it. *)
let test_local_scratch_dies_with_program () =
  let c = random_all_gates ~seed:4 ~num_inputs:3 ~num_keys:1 ~gates:10 ~num_outputs:2 () in
  let live = Compiled.compile c in
  let s = Compiled.local_scratch live in
  Alcotest.(check bool) "same scratch for a live program" true (Compiled.local_scratch live == s);
  let slot = Weak.create 1 in
  let[@inline never] use_and_drop () =
    let p = Compiled.compile c in
    Weak.set slot 0 (Some (Compiled.local_scratch p));
    Compiled.eval_into p (Compiled.local_scratch p) ~inputs:[| true; false; true |] ~keys:[| true |]
  in
  use_and_drop ();
  Gc.full_major ();
  Alcotest.(check bool) "scratch of a dropped program collected" false (Weak.check slot 0);
  Alcotest.(check bool) "live program keeps its scratch" true (Compiled.local_scratch live == s)

let suite =
  [
    Alcotest.test_case "scalar kernel vs interpreter" `Quick test_scalar_vs_reference;
    Alcotest.test_case "packed lanes vs interpreter" `Quick test_lanes_vs_scalar;
    Alcotest.test_case "eval_bv" `Quick test_eval_bv;
    Alcotest.test_case "cofactor emitter equivalence" `Quick test_cofactor_emitter_equiv;
    Alcotest.test_case "cofactor constants" `Quick test_cofactor_constants;
    Alcotest.test_case "mux liveness" `Quick test_mux_liveness;
    Alcotest.test_case "scratch rules" `Quick test_scratch_rules;
    Alcotest.test_case "cached memo" `Quick test_cached_memo;
    Alcotest.test_case "local scratch dies with its program" `Quick
      test_local_scratch_dies_with_program;
    test_incremental_exact;
  ]
