(* SAT-core benchmark rig: BENCH_sat.json.

   Measures the CDCL solver in isolation on two fixed instance families:

   - "miter": the key-duplicated, synthesized miter of a locked circuit —
     exactly the CNF the SAT attack iterates on — driven through a fixed
     number of incremental model-blocking rounds (each SAT model's input
     assignment is blocked and the instance re-solved), which exercises
     incremental clause addition, learnt-clause retention and arena GC;
   - "dimacs": generated CNF replays loaded through [Dimacs.load_into]
     (random 3-SAT near the phase transition, pigeonhole principle
     instances), solved once for the counts and then replayed from
     scratch for the wall time (see [dimacs_min_wall]).

   Every record reports wall time, propagations/sec, conflicts/sec and
   exact minor-heap allocation deltas ([Gc.minor_words] on this
   domain), so data-layout changes in the solver show up as
   allocation-per-conflict movements that are tracked across PRs.  All
   instances are seed-fixed: numbers are comparable between runs and
   machines up to clock speed. *)

module LL = Logiclock
module Solver = LL.Sat.Solver
module Lit = LL.Sat.Lit
module Dimacs = LL.Sat.Dimacs
module Tseitin = LL.Sat.Tseitin
module Circuit = LL.Netlist.Circuit
module Oracle = LL.Attack.Oracle
module Sat_attack = LL.Attack.Sat_attack
module Prng = LL.Util.Prng
module Timer = LL.Util.Timer
module Tel = LL.Telemetry.Telemetry

let records : Bench_record.record list ref = ref []

(* Wraps [Solver.solve] to log the restart/propagation delta of each
   incremental round; workloads thread [per_round] through and return it
   so records expose the per-round trajectory next to the per-round wall
   times ("round_s") recovered from telemetry spans. *)
let tracked_solve per_round solver =
  let s0 = Solver.stats solver in
  let r = Solver.solve solver in
  let s1 = Solver.stats solver in
  per_round :=
    ( s1.Solver.restarts - s0.Solver.restarts,
      s1.Solver.propagations - s0.Solver.propagations )
    :: !per_round;
  r

(* [f] builds the solver and runs the workload; Gc deltas cover both so
   encoding allocations are visible too (they are part of what an attack
   iteration pays).  Each workload runs under a fresh telemetry session:
   the solver counters, the per-solve trajectory and the LBD distribution
   in the record all come out of the closing snapshot.  Returns the
   run's wall time and the finisher that records and prints the result
   with its rates taken over a given wall time. *)
let measure_run ~name ~kind f =
  Tel.enable ();
  let m0 = Gc.minor_words () in
  let t0 = Timer.monotonic () in
  let solver, result, per_round = f () in
  let first_wall = Timer.monotonic () -. t0 in
  let m1 = Gc.minor_words () in
  let snap = Tel.snapshot () in
  Tel.disable ();
  let counter n = Option.value ~default:0 (List.assoc_opt n snap.Tel.counters) in
  let round_s =
    Tel.spans snap
    |> List.filter (fun (s : Tel.span) -> s.Tel.sp_name = "sat.solve")
    |> List.map (fun (s : Tel.span) -> float_of_int s.Tel.sp_dur_ns *. 1e-9)
    |> Array.of_list
  in
  let lbd_mean =
    match List.assoc_opt "sat.lbd" snap.Tel.histograms with
    | Some h when h.Tel.h_count > 0 -> h.Tel.h_sum /. float_of_int h.Tel.h_count
    | _ -> 0.0
  in
  let st = Solver.stats solver in
  let rounds = Array.of_list (List.rev per_round) in
  let conflicts = counter "sat.conflicts" and propagations = counter "sat.propagations" in
  let minor_words = m1 -. m0 in
  let per_conflict w = if conflicts > 0 then w /. float_of_int conflicts else 0.0 in
  let finish ~wall =
    let per_sec n = if wall > 0.0 then float_of_int n /. wall else 0.0 in
    let record =
      Bench_record.
        [
          ("name", str name);
          ("kind", str kind);
          ("result", str result);
          ("wall_s", fixed 6 wall);
          ("conflicts", int conflicts);
          ("propagations", int propagations);
          ("decisions", int (counter "sat.decisions"));
          ("restarts", int (counter "sat.restarts"));
          ("deleted_clauses", int st.Solver.deleted_clauses);
          ("arena_gcs", int st.Solver.arena_gcs);
          ( "arena_words",
            int
              (match List.assoc_opt "sat.arena_words" snap.Tel.gauges with
              | Some w -> int_of_float w
              | None -> st.Solver.arena_words) );
          ("propagations_per_s", fixed 1 (per_sec propagations));
          ("conflicts_per_s", fixed 1 (per_sec conflicts));
          ("gc_minor_words", fixed 0 minor_words);
          ("minor_words_per_conflict", fixed 1 (per_conflict minor_words));
          ("lbd_mean", fixed 3 lbd_mean);
          ("simp_subsumed", int st.Solver.simp_subsumed);
          ("simp_self_subsumed", int st.Solver.simp_self_subsumed);
          ("simp_eliminated_vars", int st.Solver.simp_eliminated_vars);
          ("simp_vivified", int st.Solver.simp_vivified);
          ("round_s", fixeds 6 round_s);
          ("round_restarts", ints (Array.map fst rounds));
          ("round_propagations", ints (Array.map snd rounds));
        ]
      @ Bench_gc.json_fields ~minor_words ~wall_s:wall
    in
    records := record :: !records;
    Printf.printf
      "  %-26s %8.3f s %10.0f props/s %8.0f confls/s %10.0f minor w/confl  %s\n%!" name
      wall (per_sec propagations) (per_sec conflicts) (per_conflict minor_words) result
  in
  (first_wall, finish)

let measure ~name ~kind f =
  let wall, finish = measure_run ~name ~kind f in
  finish ~wall

(* ------------------------------------------------------------------ *)
(* Miter workloads                                                     *)
(* ------------------------------------------------------------------ *)

let miter_workload ~rounds locked () =
  let solver = Solver.create () in
  let env = Tseitin.create solver in
  let miter = LL.Synth.Optimize.run (LL.Attack.Miter.dup_key locked) in
  let input_lits = Tseitin.fresh_lits env (Circuit.num_inputs miter) in
  let key_lits = Tseitin.fresh_lits env (Circuit.num_keys miter) in
  let diff =
    match Tseitin.encode env miter ~input_lits ~key_lits with
    | [| d |] -> d
    | _ -> assert false
  in
  LL.Sat.Solver.add_clause solver [ diff ];
  let per_round = ref [] in
  let sat_rounds = ref 0 in
  let finished = ref false in
  let i = ref 0 in
  while (not !finished) && !i < rounds do
    incr i;
    match tracked_solve per_round solver with
    | Solver.Unsat -> finished := true
    | Solver.Sat ->
        incr sat_rounds;
        (* Block this input assignment and go again. *)
        Solver.add_clause solver
          (Array.to_list
             (Array.map
                (fun l -> if Solver.value solver l then Lit.negate l else l)
                input_lits))
  done;
  ( solver,
    Printf.sprintf "%d sat round(s)%s" !sat_rounds (if !finished then ", closed" else ""),
    !per_round )

let miter_suite ~smoke =
  Printf.printf "\nlocking miters (model-blocking rounds):\n";
  let iscas = LL.Bench_suite.Iscas.get in
  let sarlock seed k c =
    (LL.Locking.Sarlock.lock ~prng:(Prng.create seed) ~key_size:k c).LL.Locking.Locked.circuit
  in
  let xorlock seed k c =
    (LL.Locking.Xor_lock.lock ~prng:(Prng.create seed) ~num_keys:k c).LL.Locking.Locked.circuit
  in
  let lutlock seed c =
    (LL.Locking.Lut_lock.lock ~prng:(Prng.create seed) ~stage1_luts:4 ~stage1_inputs:3 c)
      .LL.Locking.Locked.circuit
  in
  let suite =
    if smoke then
      [
        ("c432/sarlock8", miter_workload ~rounds:8 (sarlock 11 8 (iscas "c432")));
        ("c432/xor8", miter_workload ~rounds:8 (xorlock 5 8 (iscas "c432")));
      ]
    else
      [
        ("c432/sarlock8", miter_workload ~rounds:64 (sarlock 11 8 (iscas "c432")));
        ("c880/sarlock10", miter_workload ~rounds:64 (sarlock 7 10 (iscas "c880")));
        ("c880/xor16", miter_workload ~rounds:48 (xorlock 5 16 (iscas "c880")));
        ("c1355/xor12", miter_workload ~rounds:32 (xorlock 9 12 (iscas "c1355")));
        ("c880/lut4x3", miter_workload ~rounds:32 (lutlock 13 (iscas "c880")));
        ("c1908/sarlock8", miter_workload ~rounds:32 (sarlock 3 8 (iscas "c1908")));
      ]
  in
  List.iter (fun (name, f) -> measure ~name ~kind:"miter" f) suite

(* ------------------------------------------------------------------ *)
(* DIMACS replays                                                      *)
(* ------------------------------------------------------------------ *)

let random_3sat ~seed ~nvars ~ratio =
  let g = Prng.create seed in
  let n_clauses = int_of_float (ratio *. float_of_int nvars) in
  let clauses =
    List.init n_clauses (fun _ ->
        List.init 3 (fun _ -> Lit.make (Prng.int g nvars) (Prng.bool g)))
  in
  { Dimacs.num_vars = nvars; clauses }

let pigeonhole ~holes =
  (* PHP(holes+1, holes): provably unsatisfiable. *)
  let n = holes in
  let var i j = (i * n) + j in
  let clauses = ref [] in
  for i = 0 to n do
    clauses := List.init n (fun j -> Lit.pos (var i j)) :: !clauses
  done;
  for j = 0 to n - 1 do
    for i1 = 0 to n do
      for i2 = i1 + 1 to n do
        clauses := [ Lit.neg (var i1 j); Lit.neg (var i2 j) ] :: !clauses
      done
    done
  done;
  { Dimacs.num_vars = (n + 1) * n; clauses = List.rev !clauses }

let dimacs_workload cnf () =
  (* Round-trip through the printer/parser so the loader path itself is
     part of the replay. *)
  let cnf = Dimacs.parse_string (Dimacs.to_string cnf) in
  let solver = Solver.create () in
  Dimacs.load_into solver cnf;
  let per_round = ref [] in
  let result =
    match tracked_solve per_round solver with Solver.Sat -> "sat" | Solver.Unsat -> "unsat"
  in
  (solver, result, !per_round)

(* A smoke replay lasts about a millisecond, too short a window for its
   rate to survive the scheduler: the emitters run beside the test suite
   under [dune runtest], and on a busy host a whole 20 ms burst of
   replays can run at a tenth of full speed.  So each DIMACS record times
   its instance over replays adding up to [dimacs_min_wall] seconds and
   reports the median replay and its rates.  The counts and allocations
   come from the first, measured replay.  Timing replays run only once
   every instance has been measured: run in between, they would shift
   the GC phase the next instance's allocation deltas are taken in by a
   load-dependent amount. *)
let dimacs_min_wall = 0.2

let median_wall ~first_wall f =
  Tel.enable ();
  let walls = ref [ first_wall ] and total = ref first_wall in
  while !total < dimacs_min_wall do
    let t0 = Timer.monotonic () in
    ignore (f ());
    let dt = Timer.monotonic () -. t0 in
    total := !total +. dt;
    walls := dt :: !walls
  done;
  Tel.disable ();
  let walls = Array.of_list !walls in
  Array.sort Float.compare walls;
  walls.(Array.length walls / 2)

let dimacs_suite ~smoke =
  Printf.printf "\nDIMACS replays:\n";
  let suite =
    if smoke then
      [
        ("3sat/n60/s1", dimacs_workload (random_3sat ~seed:1 ~nvars:60 ~ratio:4.26));
        ("php/6", dimacs_workload (pigeonhole ~holes:5));
      ]
    else
      [
        ("3sat/n150/s1", dimacs_workload (random_3sat ~seed:1 ~nvars:150 ~ratio:4.26));
        ("3sat/n150/s2", dimacs_workload (random_3sat ~seed:2 ~nvars:150 ~ratio:4.26));
        ("3sat/n200/s3", dimacs_workload (random_3sat ~seed:3 ~nvars:200 ~ratio:4.26));
        ("3sat/n250/s4", dimacs_workload (random_3sat ~seed:4 ~nvars:250 ~ratio:4.26));
        ("php/7", dimacs_workload (pigeonhole ~holes:6));
        ("php/8", dimacs_workload (pigeonhole ~holes:7));
      ]
  in
  List.map (fun (name, f) -> (f, measure_run ~name ~kind:"dimacs" f)) suite
  |> List.iter (fun (f, (first_wall, finish)) -> finish ~wall:(median_wall ~first_wall f))

(* ------------------------------------------------------------------ *)
(* Inprocessing on/off comparison                                      *)
(*                                                                     *)
(* Two workload shapes, both run twice — inprocessing enabled and      *)
(* disabled — and reported as paired records:                          *)
(*                                                                     *)
(* - "blocking": model-blocking rounds on a raw (un-synthesized)       *)
(*   Tseitin miter.  Each solve is trivial, so the comparison isolates *)
(*   what the first preprocessing session removes: the clause-count    *)
(*   reduction is the headline number.                                 *)
(* - "attack": the full oracle-guided SAT attack with [solver_simp]    *)
(*   toggled.  XOR-locked instances are conflict-heavy, which is where *)
(*   inprocessing pays for itself; the DIPs/s speedup is the headline  *)
(*   number.                                                           *)
(*                                                                     *)
(* The records land in BENCH_sat.json next to the solver records.     *)
(* ------------------------------------------------------------------ *)

(* One side of a comparison: the same workload run with the inprocessing
   engine enabled or disabled. *)
type simp_side = {
  ss_wall : float;  (* solve-loop wall time (encoding excluded) *)
  ss_props : int;
  ss_confls : int;
  ss_clauses : int;  (* problem clauses attached after the workload *)
  ss_learnts : int;
  ss_rounds : int;  (* SAT rounds completed — the DIP-rate analogue *)
}

let simp_records : Bench_record.record list ref = ref []

let simp_miter_run ~rounds ~simp locked =
  (* Unlike [miter_workload] the miter is NOT pre-optimized by the synth
     passes: the raw Tseitin stream is exactly the redundancy the
     inprocessing engine exists to remove, and leaving it in place gives
     the on/off comparison a visible clause-count delta. *)
  let solver = Solver.create ~simp () in
  let env = Tseitin.create solver in
  let miter = LL.Attack.Miter.dup_key locked in
  let input_lits = Tseitin.fresh_lits env (Circuit.num_inputs miter) in
  let key_lits = Tseitin.fresh_lits env (Circuit.num_keys miter) in
  let diff =
    match Tseitin.encode env miter ~input_lits ~key_lits with
    | [| d |] -> d
    | _ -> assert false
  in
  Solver.add_clause solver [ diff ];
  let t0 = Timer.monotonic () in
  let sat_rounds = ref 0 in
  let finished = ref false in
  let i = ref 0 in
  while (not !finished) && !i < rounds do
    incr i;
    match Solver.solve solver with
    | Solver.Unsat -> finished := true
    | Solver.Sat ->
        incr sat_rounds;
        Solver.add_clause solver
          (Array.to_list
             (Array.map
                (fun l -> if Solver.value solver l then Lit.negate l else l)
                input_lits))
  done;
  let wall = Timer.monotonic () -. t0 in
  let st = Solver.stats solver in
  ( solver,
    {
      ss_wall = wall;
      ss_props = st.Solver.propagations;
      ss_confls = st.Solver.conflicts;
      ss_clauses = Solver.num_clauses solver;
      ss_learnts = Solver.num_learnts solver;
      ss_rounds = !sat_rounds;
    } )

let simp_compare ~name ~rounds locked =
  let m0 = Gc.minor_words () in
  let _, off = simp_miter_run ~rounds ~simp:false locked in
  let on_solver, on = simp_miter_run ~rounds ~simp:true locked in
  let m1 = Gc.minor_words () in
  let gc_fields =
    Bench_gc.json_fields
      ~minor_words:(m1 -. m0)
      ~wall_s:(off.ss_wall +. on.ss_wall)
  in
  let st = Solver.stats on_solver in
  let rate w n = if w > 0.0 then float_of_int n /. w else 0.0 in
  let speedup a b = if b > 0.0 then a /. b else 0.0 in
  let off_props_s = rate off.ss_wall off.ss_props in
  let on_props_s = rate on.ss_wall on.ss_props in
  let off_dips_s = rate off.ss_wall off.ss_rounds in
  let on_dips_s = rate on.ss_wall on.ss_rounds in
  let clause_reduction =
    (* Both sides add the identical clause stream (same encoding, same
       number of blocking clauses), so any difference in the attached
       problem-clause count is what subsumption + elimination removed. *)
    if off.ss_clauses > 0 then
      float_of_int (off.ss_clauses - on.ss_clauses) /. float_of_int off.ss_clauses
    else 0.0
  in
  Printf.printf
    "  %-26s off %7.3f s %9d clauses | on %7.3f s %9d clauses (-%.1f%%)\n\
    \  %-26s wall x%.2f, DIP rounds/s x%.2f, props/s x%.2f; subsumed %d, \
     strengthened %d, eliminated %d vars, vivified %d\n%!"
    name off.ss_wall off.ss_clauses on.ss_wall on.ss_clauses
    (100.0 *. clause_reduction) ""
    (speedup off.ss_wall on.ss_wall)
    (speedup on_dips_s off_dips_s)
    (speedup on_props_s off_props_s)
    st.Solver.simp_subsumed st.Solver.simp_self_subsumed
    st.Solver.simp_eliminated_vars st.Solver.simp_vivified;
  let record =
    Bench_record.
      [
        ("name", str name);
        ("kind", str "simp_compare");
        ("workload", str "blocking");
        ("rounds", int rounds);
        ("off_wall_s", fixed 6 off.ss_wall);
        ("off_propagations", int off.ss_props);
        ("off_conflicts", int off.ss_confls);
        ("off_clauses", int off.ss_clauses);
        ("off_learnts", int off.ss_learnts);
        ("off_propagations_per_s", fixed 1 off_props_s);
        ("off_dips_per_s", fixed 1 off_dips_s);
        ("on_wall_s", fixed 6 on.ss_wall);
        ("on_propagations", int on.ss_props);
        ("on_conflicts", int on.ss_confls);
        ("on_clauses", int on.ss_clauses);
        ("on_learnts", int on.ss_learnts);
        ("on_propagations_per_s", fixed 1 on_props_s);
        ("on_dips_per_s", fixed 1 on_dips_s);
        ("clause_reduction", fixed 4 clause_reduction);
        ("wall_speedup", fixed 3 (speedup off.ss_wall on.ss_wall));
        ("dips_per_s_speedup", fixed 3 (speedup on_dips_s off_dips_s));
        ("propagations_per_s_speedup", fixed 3 (speedup on_props_s off_props_s));
        ("simp_subsumed", int st.Solver.simp_subsumed);
        ("simp_self_subsumed", int st.Solver.simp_self_subsumed);
        ("simp_eliminated_vars", int st.Solver.simp_eliminated_vars);
        ("simp_vivified", int st.Solver.simp_vivified);
      ]
    @ gc_fields
  in
  simp_records := record :: !simp_records

(* Full SAT attack (oracle-guided DIP loop) with the solver's
   inprocessing toggled via [Sat_attack.config.solver_simp].  The DIP
   trajectories legitimately diverge between the two sides — the
   simplified clause database steers branching elsewhere — so both DIP
   counts are reported and the rate (DIPs per second of attack wall
   time) is the comparable number. *)
let simp_attack_compare ~name locked ~oracle =
  let run simp =
    let config = { Sat_attack.default_config with solver_simp = simp } in
    let t0 = Timer.monotonic () in
    let r = Sat_attack.run ~config locked ~oracle in
    (Timer.monotonic () -. t0, r)
  in
  let m0 = Gc.minor_words () in
  let off_w, off = run false in
  let on_w, on = run true in
  let m1 = Gc.minor_words () in
  let gc_fields =
    Bench_gc.json_fields
      ~minor_words:(m1 -. m0)
      ~wall_s:(off_w +. on_w)
  in
  let rate w n = if w > 0.0 then float_of_int n /. w else 0.0 in
  let speedup a b = if b > 0.0 then a /. b else 0.0 in
  let off_dips_s = rate off_w off.Sat_attack.num_dips in
  let on_dips_s = rate on_w on.Sat_attack.num_dips in
  Printf.printf
    "  %-26s off %7.3f s %4d dips %6d confl | on %7.3f s %4d dips %6d confl  \
     wall x%.2f, dips/s x%.2f\n%!"
    name off_w off.Sat_attack.num_dips off.Sat_attack.solver_conflicts on_w
    on.Sat_attack.num_dips on.Sat_attack.solver_conflicts
    (speedup off_w on_w)
    (speedup on_dips_s off_dips_s);
  let record =
    Bench_record.
      [
        ("name", str name);
        ("kind", str "simp_compare");
        ("workload", str "attack");
        ("off_wall_s", fixed 6 off_w);
        ("off_dips", int off.Sat_attack.num_dips);
        ("off_conflicts", int off.Sat_attack.solver_conflicts);
        ("off_solve_s", fixed 6 off.Sat_attack.solve_time);
        ("off_dips_per_s", fixed 2 off_dips_s);
        ("on_wall_s", fixed 6 on_w);
        ("on_dips", int on.Sat_attack.num_dips);
        ("on_conflicts", int on.Sat_attack.solver_conflicts);
        ("on_solve_s", fixed 6 on.Sat_attack.solve_time);
        ("on_dips_per_s", fixed 2 on_dips_s);
        ("wall_speedup", fixed 3 (speedup off_w on_w));
        ("dips_per_s_speedup", fixed 3 (speedup on_dips_s off_dips_s));
      ]
    @ gc_fields
  in
  simp_records := record :: !simp_records

let simp_suite ~smoke =
  let iscas = LL.Bench_suite.Iscas.get in
  let sarlock seed k c =
    (LL.Locking.Sarlock.lock ~prng:(Prng.create seed) ~key_size:k c).LL.Locking.Locked.circuit
  in
  let xorlock seed k c =
    (LL.Locking.Xor_lock.lock ~prng:(Prng.create seed) ~num_keys:k c).LL.Locking.Locked.circuit
  in
  Printf.printf "\ninprocessing on/off (model-blocking miters, raw Tseitin):\n";
  let blocking =
    if smoke then
      [
        ("c432/sarlock8", 64, sarlock 11 8 (iscas "c432"));
        ("c880/xor16", 64, xorlock 5 16 (iscas "c880"));
      ]
    else
      [
        ("c432/sarlock8", 128, sarlock 11 8 (iscas "c432"));
        ("c880/sarlock10", 128, sarlock 7 10 (iscas "c880"));
        ("c880/xor16", 96, xorlock 5 16 (iscas "c880"));
        ("c1355/xor12", 64, xorlock 9 12 (iscas "c1355"));
      ]
  in
  List.iter (fun (name, rounds, locked) -> simp_compare ~name ~rounds locked) blocking;
  Printf.printf "\ninprocessing on/off (full SAT attack, DIP loop):\n";
  let attack =
    if smoke then [ ("c880/xor16/s7", xorlock 7 16 (iscas "c880")) ]
    else
      [
        ("c880/xor16/s7", xorlock 7 16 (iscas "c880"));
        ("c1908/xor16/s5", xorlock 5 16 (iscas "c1908"));
        ("c2670/xor16/s5", xorlock 5 16 (iscas "c2670"));
      ]
  in
  List.iter
    (fun (name, locked) ->
      (* The oracle is the unlocked circuit itself; [iscas] is re-fetched
         from the instance name prefix. *)
      let base = String.sub name 0 (String.index name '/') in
      simp_attack_compare ~name locked ~oracle:(Oracle.of_circuit (iscas base)))
    attack

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let run ~smoke =
  miter_suite ~smoke;
  dimacs_suite ~smoke;
  simp_suite ~smoke;
  (* Solver records first, then the simp on/off comparison pairs (kind
     "simp_compare") in one array. *)
  Bench_record.write "BENCH_sat.json" (List.rev !records @ List.rev !simp_records)
