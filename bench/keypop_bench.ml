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

type record = {
  name : string;  (* circuit/scheme/nN — unique per grid cell *)
  n_fixed : int;
  num_inputs : int;
  num_keys : int;
  cells : int;
  correct_keys_min : float;
  correct_keys_max : float;
  keyspace_log2 : float;  (* log2 of the largest cofactor population *)
  bdd_peak_nodes : int;
  bdd_reorders : int;
  bdd_gc_runs : int;
  bdd_nodes_freed : int;
  wall_sift_s : float;
  wall_fixed_s : float;  (* 0.0 when the fixed-order run is skipped *)
  sift_speedup : float;  (* wall_fixed / wall_sift, 0.0 when skipped *)
  sim_checked : bool;
  exact_matches_sim : bool;  (* vacuously true when not checked *)
  sim_wall_s : float;
  gc_json : string;
}

let records : record list ref = ref []

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
  let r =
    {
      name = Printf.sprintf "%s/%s/n%d" circuit_name scheme n;
      n_fixed = n;
      num_inputs = Circuit.num_inputs locked;
      num_keys = Circuit.num_keys locked;
      cells = Array.length kp.Exact.counts;
      correct_keys_min = cmin;
      correct_keys_max = cmax;
      keyspace_log2 = (if cmax > 0.0 then Float.log2 cmax else -1.0);
      bdd_peak_nodes = kp.Exact.peak_nodes;
      bdd_reorders = kp.Exact.reorders;
      bdd_gc_runs = kp.Exact.gc_runs;
      bdd_nodes_freed = kp.Exact.nodes_freed;
      wall_sift_s = wall_sift;
      wall_fixed_s = wall_fixed;
      sift_speedup = (if wall_fixed > 0.0 then wall_fixed /. wall_sift else 0.0);
      sim_checked;
      exact_matches_sim;
      sim_wall_s = sim_wall;
      gc_json =
        Bench_gc.json_fields
          ~minor_words:(m1 -. m0)
          ~wall_s:wall_total;
    }
  in
  records := r :: !records;
  Printf.printf
    "  %-18s N=%d   keys %4.0f..%-6.0f (log2 %5.2f)   peak %7d nodes, %2d reorder(s)   %.3f s%s%s\n%!"
    r.name n cmin cmax r.keyspace_log2 r.bdd_peak_nodes r.bdd_reorders wall_sift
    (if wall_fixed > 0.0 then Printf.sprintf "   fixed %.3f s (x%.2f)" wall_fixed r.sift_speedup
     else "")
    (if sim_checked then Printf.sprintf "   sim ok (%.3f s)" sim_wall else "")

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let json_of_record r =
  Printf.sprintf
    "  {\n\
    \    \"name\": %S,\n\
    \    \"n_fixed\": %d,\n\
    \    \"num_inputs\": %d,\n\
    \    \"num_keys\": %d,\n\
    \    \"cells\": %d,\n\
    \    \"correct_keys_min\": %.0f,\n\
    \    \"correct_keys_max\": %.0f,\n\
    \    \"keyspace_log2\": %.4f,\n\
    \    \"bdd_peak_nodes\": %d,\n\
    \    \"bdd_reorders\": %d,\n\
    \    \"bdd_gc_runs\": %d,\n\
    \    \"bdd_nodes_freed\": %d,\n\
    \    \"wall_sift_s\": %.6f,\n\
    \    \"wall_fixed_s\": %.6f,\n\
    \    \"sift_speedup\": %.3f,\n\
    \    \"sim_checked\": %b,\n\
    \    \"exact_matches_sim\": %b,\n\
    \    \"sim_wall_s\": %.6f,\n\
    \    %s\n\
    \  }"
    r.name r.n_fixed r.num_inputs r.num_keys r.cells r.correct_keys_min
    r.correct_keys_max r.keyspace_log2 r.bdd_peak_nodes r.bdd_reorders
    r.bdd_gc_runs r.bdd_nodes_freed r.wall_sift_s r.wall_fixed_s r.sift_speedup
    r.sim_checked r.exact_matches_sim r.sim_wall_s r.gc_json

let json_well_formed s =
  let depth = ref 0 and ok = ref true and in_str = ref false and esc = ref false in
  String.iter
    (fun ch ->
      if !in_str then begin
        if !esc then esc := false
        else if ch = '\\' then esc := true
        else if ch = '"' then in_str := false
      end
      else
        match ch with
        | '"' -> in_str := true
        | '[' | '{' -> incr depth
        | ']' | '}' ->
            decr depth;
            if !depth < 0 then ok := false
        | _ -> ())
    s;
  !ok && !depth = 0 && not !in_str

let write_json () =
  if !records <> [] then begin
    let body =
      Printf.sprintf "[\n%s\n]\n"
        (String.concat ",\n" (List.rev_map json_of_record !records))
    in
    LL.Util.Fileio.write_atomic_string "BENCH_keypop.json" body;
    if not (json_well_formed body) then begin
      Printf.eprintf "BENCH_keypop.json: malformed JSON emitted\n";
      exit 1
    end;
    Printf.printf "\nwrote BENCH_keypop.json (%d record(s))\n" (List.length !records)
  end

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
  write_json ()
