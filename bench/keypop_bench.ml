(* Key-population grid: BENCH_keypop.json.

   The paper's one-key premise is that a cofactor of a locked circuit
   admits exactly one correct key; the grid measures the opposite.  For
   every (circuit, scheme, N) cell — generated bench circuits x
   {XOR, SARLock, Anti-SAT, LUT, mixed} x N in {0..4} fixed split
   inputs — it computes the exact per-cofactor correct-key population
   with the reordering BDD engine ([Ll_bdd.Exact.cofactor_key_counts],
   auto-reorder on) and reports the population range, the remaining
   key-space entropy (log2 of the largest cofactor population), the
   engine's peak node count / reorder / GC work, and wall times.

   Two built-in cross-checks ride along, both statically configured per
   cell so every run emits the same record shape:

   - fixed-order wall: the same analysis with reordering off, giving the
     sift speedup (cells where the fixed order risks blowup skip the
     comparison and emit 0.0);
   - packed-simulation enumeration: [Ll_attack.Analysis.cofactor_key_counts]
     sweeps the full key x input space through the 64-lane kernel and
     must reproduce the BDD counts exactly — on gen16/xor10 that sweep is
     2^26 patterns x keys, beyond the old 2^24 error_matrix cap.

   Besides the two generated circuits the grid carries two achilles rows
   (OR of disjoint AND pairs with the pairs maximally separated in the
   port order), where the identity variable order is exponential and
   dynamic reordering is the difference between milliseconds and
   not finishing.

   All workloads are seed-fixed and the engine is deterministic, so the
   counts, node statistics and reorder counts are exact-match fields for
   the regression gate; only walls and GC numbers are noisy. *)

module LL = Logiclock
module Circuit = LL.Netlist.Circuit
module Bitvec = LL.Util.Bitvec
module Prng = LL.Util.Prng
module Timer = LL.Util.Timer
module Exact = LL.Bdd.Exact
module Analysis = LL.Attack.Analysis
module Fanout = LL.Attack.Fanout
module Generator = LL.Bench_suite.Generator
module Builder = LL.Netlist.Builder

let records : Bench_record.record list ref = ref []

let timed f =
  let t0 = Timer.monotonic () in
  let r = f () in
  (Timer.monotonic () -. t0, r)

(* ------------------------------------------------------------------ *)
(* Grid definition                                                     *)
(* ------------------------------------------------------------------ *)

let gen12 () =
  Generator.random_circuit ~seed:0xA1 ~name:"gen12" ~num_inputs:12 ~num_outputs:4
    ~gates:60 ()

let gen16 () =
  Generator.random_circuit ~seed:0xB2 ~name:"gen16" ~num_inputs:16 ~num_outputs:5
    ~gates:120 ()

(* OR of disjoint AND pairs (a_i and b_i) with every a before every b in
   the port order: the classic reordering workload.  The identity
   variable order needs ~2^w nodes; sifting brings each pair adjacent
   and the function collapses to ~3w nodes. *)
let achilles w =
  let b = Builder.create ~name:(Printf.sprintf "ach%d" w) () in
  let a_in = Array.init w (fun i -> Builder.input b (Printf.sprintf "a%d" i)) in
  let b_in = Array.init w (fun i -> Builder.input b (Printf.sprintf "b%d" i)) in
  let pairs = Array.init w (fun i -> Builder.and2 b a_in.(i) b_in.(i)) in
  Builder.output b "y0" (Builder.or_reduce b pairs);
  Builder.finish b

let schemes c =
  let prng seed = Prng.create seed in
  [
    ("xor10", (LL.Locking.Xor_lock.lock ~prng:(prng 0x11) ~num_keys:10 c).circuit);
    ("sarlock8", (LL.Locking.Sarlock.lock ~prng:(prng 0x12) ~key_size:8 c).circuit);
    ("antisat5", (LL.Locking.Antisat.lock ~prng:(prng 0x13) ~width:5 c).circuit);
    ( "lut2x2",
      (LL.Locking.Lut_lock.lock ~prng:(prng 0x14) ~stage1_luts:2 ~stage1_inputs:2 c)
        .circuit );
    ( "mixed8",
      (LL.Locking.Mixed_sarlock.lock ~prng:(prng 0x15) ~key_size:8 c).circuit );
  ]

let split_ns = [ 0; 1; 2; 3; 4 ]

(* Static per-cell configuration — never derived from runtime behaviour,
   so the record shape and every boolean are identical across runs.  On
   the achilles rows the identity order is exponential by construction:
   ach10/xor10 keeps the fixed-order run (the ~10x sift speedup cell),
   every ach14 cell skips it (fixed order exceeds 4.7M peak nodes
   already at w = 12 and does not finish at w = 14 — those cells only
   complete because sifting is on).  The simulation cross-check covers
   each (circuit, scheme) at small N plus the beyond-cap gen16/xor10
   sweep (2^26 input x key space) explicitly. *)
let run_fixed ~circuit ~scheme =
  match (circuit, scheme) with
  | "ach10", s -> s = "xor10"
  | "ach14", _ -> false
  | _ -> true

let run_sim ~circuit ~scheme ~n =
  match (circuit, scheme) with
  | "gen12", _ -> n <= 2
  | "gen16", "xor10" -> n = 2
  | "gen16", "sarlock8" -> n = 0
  | _ -> false

(* ------------------------------------------------------------------ *)
(* One grid cell                                                       *)
(* ------------------------------------------------------------------ *)

let float_counts_equal exact sim =
  Array.length exact = Array.length sim
  && Array.for_all2 (fun e s -> e = float_of_int s) exact sim

let cell ~circuit_name ~scheme ~original ~locked ~n =
  let m0 = Gc.minor_words () in
  let fixed_inputs = Fanout.select locked ~n in
  let wall_sift, kp =
    timed (fun () ->
        Exact.cofactor_key_counts ~auto_reorder:true ~original ~locked
          ~fixed_inputs ())
  in
  let wall_fixed, fixed_kp =
    if run_fixed ~circuit:circuit_name ~scheme then
      let w, r =
        timed (fun () ->
            Exact.cofactor_key_counts ~original ~locked ~fixed_inputs ())
      in
      (w, Some r)
    else (0.0, None)
  in
  (match fixed_kp with
  | Some r ->
      if r.Exact.counts <> kp.Exact.counts then begin
        Printf.eprintf "%s/%s N=%d: sifted counts differ from fixed order\n"
          circuit_name scheme n;
        exit 1
      end
  | None -> ());
  let sim_checked = run_sim ~circuit:circuit_name ~scheme ~n in
  let sim_wall, sim_counts =
    if sim_checked then
      let w, r =
        timed (fun () -> Analysis.cofactor_key_counts ~original ~locked ~fixed_inputs ())
      in
      (w, Some r)
    else (0.0, None)
  in
  let exact_matches_sim =
    match sim_counts with
    | Some s -> float_counts_equal kp.Exact.counts s
    | None -> true
  in
  if not exact_matches_sim then begin
    Printf.eprintf "%s/%s N=%d: BDD counts differ from packed enumeration\n"
      circuit_name scheme n;
    exit 1
  end;
  let cmin = Array.fold_left min infinity kp.Exact.counts in
  let cmax = Array.fold_left max 0.0 kp.Exact.counts in
  let m1 = Gc.minor_words () in
  let wall_total = wall_sift +. wall_fixed +. sim_wall in
  let name = Printf.sprintf "%s/%s/n%d" circuit_name scheme n in
  let keyspace_log2 = if cmax > 0.0 then Float.log2 cmax else -1.0 in
  let sift_speedup = if wall_fixed > 0.0 then wall_fixed /. wall_sift else 0.0 in
  let record =
    Bench_record.
      [
        ("name", str name);
        ("n_fixed", int n);
        ("num_inputs", int (Circuit.num_inputs locked));
        ("num_keys", int (Circuit.num_keys locked));
        ("cells", int (Array.length kp.Exact.counts));
        ("correct_keys_min", fixed 0 cmin);
        ("correct_keys_max", fixed 0 cmax);
        ("keyspace_log2", fixed 4 keyspace_log2);
        ("bdd_peak_nodes", int kp.Exact.peak_nodes);
        ("bdd_reorders", int kp.Exact.reorders);
        ("bdd_gc_runs", int kp.Exact.gc_runs);
        ("bdd_nodes_freed", int kp.Exact.nodes_freed);
        ("wall_sift_s", fixed 6 wall_sift);
        ("wall_fixed_s", fixed 6 wall_fixed);
        ("sift_speedup", fixed 3 sift_speedup);
        ("sim_checked", bool sim_checked);
        ("exact_matches_sim", bool exact_matches_sim);
        ("sim_wall_s", fixed 6 sim_wall);
      ]
    @ Bench_gc.json_fields ~minor_words:(m1 -. m0) ~wall_s:wall_total
  in
  records := record :: !records;
  Printf.printf
    "  %-18s N=%d   keys %4.0f..%-6.0f (log2 %5.2f)   peak %7d nodes, %2d reorder(s)   %.3f s%s%s\n%!"
    name n cmin cmax keyspace_log2 kp.Exact.peak_nodes kp.Exact.reorders wall_sift
    (if wall_fixed > 0.0 then Printf.sprintf "   fixed %.3f s (x%.2f)" wall_fixed sift_speedup
     else "")
    (if sim_checked then Printf.sprintf "   sim ok (%.3f s)" sim_wall else "")

let run ~smoke =
  ignore smoke;
  List.iter
    (fun (circuit_name, c) ->
      List.iter
        (fun (scheme, locked) ->
          List.iter
            (fun n -> cell ~circuit_name ~scheme ~original:c ~locked ~n)
            split_ns)
        (schemes c))
    [
      ("gen12", gen12 ()); ("gen16", gen16 ());
      ("ach10", achilles 10); ("ach14", achilles 14);
    ];
  Bench_record.write "BENCH_keypop.json" (List.rev !records)
