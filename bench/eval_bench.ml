(* Compiled-kernel benchmark rig: BENCH_eval.json.

   Two families of numbers, both produced by the flat-netlist kernel
   ([Ll_netlist.Compiled]) against its predecessors:

   - simulation throughput: patterns/sec through the interpreter
     ([Eval.eval_all_nodes]), the scalar kernel ([eval_into]) and the
     64-lane packed kernel ([eval_lanes_into]) on the same circuit —
     the packed-vs-scalar ratio is the headline number;
   - per-DIP constraint generation: DIPs/sec and GC minor words per DIP
     for the circuit-rebuild path (Simplify.run ~bind + Sweep.run, then
     Tseitin.encode) against the kernel path (cofactor_into +
     encode_cofactored), each into its own fresh solver, and the kernel
     path's deterministic node-evaluation count.

   All workloads are seed-fixed; numbers are comparable across runs and
   machines up to clock speed. *)

module LL = Logiclock
module Circuit = LL.Netlist.Circuit
module Compiled = LL.Netlist.Compiled
module Eval = LL.Netlist.Eval
module Bitvec = LL.Util.Bitvec
module Prng = LL.Util.Prng
module Timer = LL.Util.Timer
module Solver = LL.Sat.Solver
module Tseitin = LL.Sat.Tseitin
module Tel = LL.Telemetry.Telemetry

let records : Bench_record.record list ref = ref []

let timed f =
  let m0 = Gc.minor_words () in
  let t0 = Timer.monotonic () in
  f ();
  let wall = Timer.monotonic () -. t0 in
  (wall, Gc.minor_words () -. m0)

(* ------------------------------------------------------------------ *)
(* Simulation throughput                                               *)
(* ------------------------------------------------------------------ *)

(* [reps] scalar patterns, [reps/64] (rounded up) packed calls.  The
   input patterns rotate through a fixed pre-drawn set so the loops time
   the kernels, not the PRNG. *)
let sim_throughput ~reps c =
  let n_in = Circuit.num_inputs c and n_key = Circuit.num_keys c in
  let g = Prng.create 0x51ED in
  let pool = 64 in
  let bool_pats =
    Array.init pool (fun _ ->
        ( Array.init n_in (fun _ -> Prng.bool g),
          Array.init n_key (fun _ -> Prng.bool g) ))
  in
  let lane_pats =
    Array.init pool (fun _ ->
        ( Array.init n_in (fun _ -> Prng.bits64 g),
          Array.init n_key (fun _ -> Prng.bits64 g) ))
  in
  let sink = ref false in
  let interp_wall, _ =
    timed (fun () ->
        for r = 0 to reps - 1 do
          let inputs, keys = bool_pats.(r land (pool - 1)) in
          let values = Eval.eval_all_nodes c ~inputs ~keys in
          sink := !sink <> values.(Array.length values - 1)
        done)
  in
  let p = Compiled.compile c in
  let s = Compiled.scratch p in
  let scalar_wall, _ =
    timed (fun () ->
        for r = 0 to reps - 1 do
          let inputs, keys = bool_pats.(r land (pool - 1)) in
          Compiled.eval_into p s ~inputs ~keys;
          sink := !sink <> Compiled.output_val p s 0
        done)
  in
  let packed_calls = (reps + 63) / 64 in
  let packed_wall, _ =
    timed (fun () ->
        for r = 0 to packed_calls - 1 do
          let inputs, keys = lane_pats.(r land (pool - 1)) in
          Compiled.eval_lanes_into p s ~inputs ~keys;
          sink := !sink <> (Compiled.output_lanes p s 0 = 0L)
        done)
  in
  ignore !sink;
  ( float_of_int reps /. interp_wall,
    float_of_int reps /. scalar_wall,
    float_of_int (packed_calls * 64) /. packed_wall )

(* ------------------------------------------------------------------ *)
(* Per-DIP constraint generation                                       *)
(* ------------------------------------------------------------------ *)

(* Both paths add, for each pre-drawn DIP, the constraint
   "locked(dip, K) = response" to a fresh solver through the shared
   Tseitin cache — exactly the work one attack iteration pays beyond
   solving.  Responses are simulated with the all-false key up front. *)
let constraint_generation ~dips locked =
  let n_in = Circuit.num_inputs locked and n_key = Circuit.num_keys locked in
  let g = Prng.create 0xD1F5 in
  let dip_pats =
    Array.init dips (fun _ -> Array.init n_in (fun _ -> Prng.bool g))
  in
  let prog = Compiled.compile locked in
  let responses =
    Array.map
      (fun dip -> Compiled.eval prog ~inputs:dip ~keys:(Array.make n_key false))
      dip_pats
  in
  let rebuild_wall, rebuild_minor =
    timed (fun () ->
        let solver = Solver.create () in
        let env = Tseitin.create solver in
        let key_lits = Tseitin.fresh_lits env n_key in
        Array.iteri
          (fun d dip ->
            let small =
              LL.Synth.Sweep.run
                (LL.Synth.Simplify.run
                   ~bind:(List.init n_in (fun i -> (i, dip.(i))))
                   locked)
            in
            let outs = Tseitin.encode env small ~input_lits:[||] ~key_lits in
            Array.iteri (fun o l -> Tseitin.force env l responses.(d).(o)) outs)
          dip_pats)
  in
  let kernel_path () =
    let solver = Solver.create () in
    let env = Tseitin.create solver in
    let key_lits = Tseitin.fresh_lits env n_key in
    let scratch = Compiled.scratch prog in
    Array.iteri
      (fun d dip ->
        Compiled.cofactor_into prog scratch ~inputs:dip;
        let outs = Tseitin.encode_cofactored env prog scratch ~key_lits in
        Array.iteri (fun o l -> Tseitin.force env l responses.(d).(o)) outs)
      dip_pats
  in
  let kernel_wall, kernel_minor = timed kernel_path in
  (* The kernel's work, counted in a separate untimed pass so telemetry
     does not perturb the rates: deterministic for the seed-fixed DIPs. *)
  Tel.enable ();
  kernel_path ();
  let snap = Tel.snapshot () in
  Tel.disable ();
  let node_evals =
    Option.value ~default:0 (List.assoc_opt "kernel.node_evals" snap.Tel.counters)
  in
  ( float_of_int dips /. rebuild_wall,
    float_of_int dips /. kernel_wall,
    rebuild_minor /. float_of_int dips,
    kernel_minor /. float_of_int dips,
    node_evals )

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

let bench ~name ~reps ~dips locked =
  let m0 = Gc.minor_words () in
  let t0 = Timer.monotonic () in
  let interp_ps, scalar_ps, packed_ps = sim_throughput ~reps locked in
  let rebuild_dps, kernel_dps, rebuild_wpd, kernel_wpd, kernel_node_evals =
    constraint_generation ~dips locked
  in
  let bench_wall = Timer.monotonic () -. t0 in
  let m1 = Gc.minor_words () in
  let packed_vs_scalar = packed_ps /. scalar_ps in
  let kernel_vs_rebuild = kernel_dps /. rebuild_dps in
  let record =
    Bench_record.
      [
        ("name", str name);
        ("gates", int (Circuit.gate_count locked));
        ("num_keys", int (Circuit.num_keys locked));
        ("sim_patterns", int reps);
        ("interp_patterns_per_s", fixed 1 interp_ps);
        ("scalar_patterns_per_s", fixed 1 scalar_ps);
        ("packed_patterns_per_s", fixed 1 packed_ps);
        ("packed_vs_scalar", fixed 3 packed_vs_scalar);
        ("dips", int dips);
        ("rebuild_dips_per_s", fixed 3 rebuild_dps);
        ("kernel_dips_per_s", fixed 3 kernel_dps);
        ("kernel_vs_rebuild", fixed 3 kernel_vs_rebuild);
        ("rebuild_minor_words_per_dip", fixed 1 rebuild_wpd);
        ("kernel_minor_words_per_dip", fixed 1 kernel_wpd);
        ("kernel_node_evals", int kernel_node_evals);
      ]
    @ Bench_gc.json_fields ~minor_words:(m1 -. m0) ~wall_s:bench_wall
  in
  records := record :: !records;
  Printf.printf
    "  %-20s %8.0f interp/s %9.0f scalar/s %11.0f packed/s (%5.1fx)\n\
    \  %-20s %8.1f rebuild dips/s %8.1f kernel dips/s (%5.1fx), minor w/dip %8.0f -> %7.0f\n%!"
    name interp_ps scalar_ps packed_ps packed_vs_scalar "" rebuild_dps kernel_dps
    kernel_vs_rebuild rebuild_wpd kernel_wpd

let sarlock name ~key_size =
  let c = LL.Bench_suite.Iscas.get name in
  (LL.Locking.Sarlock.lock ~prng:(Prng.create 17) ~key_size c).LL.Locking.Locked.circuit

let xorlock name ~num_keys =
  let c = LL.Bench_suite.Iscas.get name in
  (LL.Locking.Xor_lock.lock ~prng:(Prng.create 17) ~num_keys c).LL.Locking.Locked.circuit

let run ~smoke =
  if smoke then begin
    bench ~name:"c432/sarlock8" ~reps:20_000 ~dips:50 (sarlock "c432" ~key_size:8);
    bench ~name:"c432/xor12" ~reps:20_000 ~dips:50 (xorlock "c432" ~num_keys:12)
  end
  else begin
    bench ~name:"c432/sarlock8" ~reps:200_000 ~dips:400 (sarlock "c432" ~key_size:8);
    bench ~name:"c880/sarlock12" ~reps:100_000 ~dips:300 (sarlock "c880" ~key_size:12);
    bench ~name:"c1355/xor16" ~reps:100_000 ~dips:300 (xorlock "c1355" ~num_keys:16);
    bench ~name:"c7552/sarlock12" ~reps:20_000 ~dips:100 (sarlock "c7552" ~key_size:12)
  end;
  Bench_record.write "BENCH_eval.json" (List.rev !records)
