module Solver = Ll_sat.Solver
module Lit = Ll_sat.Lit
module Prng = Ll_util.Prng
open Helpers

let fresh_vars s n = Array.init n (fun _ -> Solver.new_var s)

let test_trivial_sat () =
  let s = Solver.create () in
  let v = Solver.new_var s in
  Solver.add_clause s [ Lit.pos v ];
  Alcotest.(check bool) "sat" true (Solver.solve s = Solver.Sat);
  Alcotest.(check bool) "model" true (Solver.model_var s v)

let test_trivial_unsat () =
  let s = Solver.create () in
  let v = Solver.new_var s in
  Solver.add_clause s [ Lit.pos v ];
  Solver.add_clause s [ Lit.neg v ];
  Alcotest.(check bool) "unsat" true (Solver.solve s = Solver.Unsat);
  Alcotest.(check bool) "not ok" false (Solver.ok s)

let test_empty_clause () =
  let s = Solver.create () in
  ignore (Solver.new_var s);
  Solver.add_clause s [];
  Alcotest.(check bool) "unsat" true (Solver.solve s = Solver.Unsat)

let test_empty_formula_sat () =
  let s = Solver.create () in
  ignore (fresh_vars s 3);
  Alcotest.(check bool) "sat" true (Solver.solve s = Solver.Sat)

let test_implication_chain () =
  let s = Solver.create () in
  let vs = fresh_vars s 50 in
  for i = 0 to 48 do
    Solver.add_clause s [ Lit.neg vs.(i); Lit.pos vs.(i + 1) ]
  done;
  Solver.add_clause s [ Lit.pos vs.(0) ];
  Alcotest.(check bool) "sat" true (Solver.solve s = Solver.Sat);
  Array.iter (fun v -> Alcotest.(check bool) "all forced true" true (Solver.model_var s v)) vs

let test_model_satisfies () =
  (* Random instances: whenever Sat, the model must satisfy all clauses. *)
  let g = Prng.create 17 in
  for _ = 1 to 200 do
    let nvars = 3 + Prng.int g 10 in
    let s = Solver.create () in
    let vs = fresh_vars s nvars in
    let clauses =
      List.init (5 + Prng.int g 40) (fun _ ->
          List.init (1 + Prng.int g 3) (fun _ ->
              Lit.make vs.(Prng.int g nvars) (Prng.bool g)))
    in
    List.iter (Solver.add_clause s) clauses;
    match Solver.solve s with
    | Solver.Unsat -> ()
    | Solver.Sat ->
        List.iter
          (fun clause ->
            Alcotest.(check bool) "clause satisfied" true
              (List.exists (fun l -> Solver.value s l) clause))
          clauses
  done

let brute_force nvars clauses =
  let rec try_assignment m =
    if m >= 1 lsl nvars then false
    else
      let ok =
        List.for_all
          (fun c ->
            List.exists
              (fun l ->
                let v = (m lsr Lit.var l) land 1 = 1 in
                if Lit.is_pos l then v else not v)
              c)
          clauses
      in
      ok || try_assignment (m + 1)
  in
  try_assignment 0

let test_agrees_with_brute_force () =
  let g = Prng.create 23 in
  for _ = 1 to 300 do
    let nvars = 1 + Prng.int g 7 in
    let s = Solver.create () in
    let vs = fresh_vars s nvars in
    let clauses =
      List.init (1 + Prng.int g 25) (fun _ ->
          List.init (1 + Prng.int g 3) (fun _ ->
              Lit.make vs.(Prng.int g nvars) (Prng.bool g)))
    in
    List.iter (Solver.add_clause s) clauses;
    let want = brute_force nvars clauses in
    let got = Solver.solve s = Solver.Sat in
    Alcotest.(check bool) "agreement" want got
  done

(* Add the clauses of PHP(n+1, n) — provably unsatisfiable — to [s]. *)
let add_pigeonhole s n =
  let v = Array.init (n + 1) (fun _ -> Array.init n (fun _ -> Solver.new_var s)) in
  for i = 0 to n do
    Solver.add_clause s (List.init n (fun j -> Lit.pos v.(i).(j)))
  done;
  for j = 0 to n - 1 do
    for i1 = 0 to n do
      for i2 = i1 + 1 to n do
        Solver.add_clause s [ Lit.neg v.(i1).(j); Lit.neg v.(i2).(j) ]
      done
    done
  done

let test_pigeonhole_unsat () =
  (* Exercises learning/restarts. *)
  let s = Solver.create () in
  add_pigeonhole s 5;
  Alcotest.(check bool) "unsat" true (Solver.solve s = Solver.Unsat)

let test_assumptions () =
  let s = Solver.create () in
  let a = Solver.new_var s and b = Solver.new_var s in
  Solver.add_clause s [ Lit.neg a; Lit.pos b ];
  Alcotest.(check bool) "a & ~b unsat" true
    (Solver.solve ~assumptions:[ Lit.pos a; Lit.neg b ] s = Solver.Unsat);
  Alcotest.(check bool) "a & b sat" true
    (Solver.solve ~assumptions:[ Lit.pos a; Lit.pos b ] s = Solver.Sat);
  (* The solver must remain usable: assumptions do not poison the formula. *)
  Alcotest.(check bool) "still sat without assumptions" true (Solver.solve s = Solver.Sat);
  Alcotest.(check bool) "ok" true (Solver.ok s)

let test_incremental_solving () =
  let s = Solver.create () in
  let vs = fresh_vars s 4 in
  Solver.add_clause s [ Lit.pos vs.(0); Lit.pos vs.(1) ];
  Alcotest.(check bool) "sat 1" true (Solver.solve s = Solver.Sat);
  Solver.add_clause s [ Lit.neg vs.(0) ];
  Alcotest.(check bool) "sat 2" true (Solver.solve s = Solver.Sat);
  Alcotest.(check bool) "forced" true (Solver.model_var s vs.(1));
  Solver.add_clause s [ Lit.neg vs.(1) ];
  Alcotest.(check bool) "unsat 3" true (Solver.solve s = Solver.Unsat)

let test_vars_added_between_solves () =
  let s = Solver.create () in
  let a = Solver.new_var s in
  Solver.add_clause s [ Lit.pos a ];
  Alcotest.(check bool) "sat" true (Solver.solve s = Solver.Sat);
  let b = Solver.new_var s in
  Solver.add_clause s [ Lit.neg a; Lit.pos b ];
  Alcotest.(check bool) "still sat" true (Solver.solve s = Solver.Sat);
  Alcotest.(check bool) "b forced" true (Solver.model_var s b)

let test_duplicate_and_tautological_literals () =
  let s = Solver.create () in
  let a = Solver.new_var s in
  (* Tautology must not constrain anything. *)
  Solver.add_clause s [ Lit.pos a; Lit.neg a ];
  (* Duplicates collapse. *)
  Solver.add_clause s [ Lit.neg a; Lit.neg a ];
  Alcotest.(check bool) "sat" true (Solver.solve s = Solver.Sat);
  Alcotest.(check bool) "a false" false (Solver.model_var s a)

let test_unknown_variable_rejected () =
  let s = Solver.create () in
  Alcotest.check_raises "unknown var" (Invalid_argument "Solver.add_clause: unknown variable")
    (fun () -> Solver.add_clause s [ Lit.pos 0 ])

let test_conflict_limit () =
  let s = Solver.create () in
  add_pigeonhole s 8;
  Alcotest.(check bool) "limit fires" true
    (try
       ignore (Solver.solve ~conflict_limit:10 s);
       false
     with Solver.Conflict_limit -> true)

let test_stats_progress () =
  let s = Solver.create () in
  let vs = fresh_vars s 20 in
  let g = Prng.create 9 in
  for _ = 1 to 80 do
    Solver.add_clause s
      (List.init 3 (fun _ -> Lit.make vs.(Prng.int g 20) (Prng.bool g)))
  done;
  ignore (Solver.solve s);
  let st = Solver.stats s in
  Alcotest.(check bool) "propagations counted" true (st.Solver.propagations > 0)

let test_xor_chain_instance () =
  (* Encode x0 xor x1 xor ... xor x9 = 1 via pairwise clauses and count
     that a model has odd parity. *)
  let s = Solver.create () in
  let vs = fresh_vars s 10 in
  let acc = ref vs.(0) in
  for i = 1 to 9 do
    let o = Solver.new_var s in
    let a = Lit.pos !acc and b = Lit.pos vs.(i) and out = Lit.pos o in
    Solver.add_clause s [ Lit.negate out; a; b ];
    Solver.add_clause s [ Lit.negate out; Lit.negate a; Lit.negate b ];
    Solver.add_clause s [ out; Lit.negate a; b ];
    Solver.add_clause s [ out; a; Lit.negate b ];
    acc := o
  done;
  Solver.add_clause s [ Lit.pos !acc ];
  Alcotest.(check bool) "sat" true (Solver.solve s = Solver.Sat);
  let parity = Array.fold_left (fun p v -> p <> Solver.model_var s v) false vs in
  Alcotest.(check bool) "odd parity" true parity

let test_arena_gc_unsat_pressure () =
  (* PHP(8, 7) drives the learnt database past the reduction threshold
     several times: reduce_db must delete clauses and compact the clause
     arena without losing the refutation. *)
  let s = Solver.create () in
  add_pigeonhole s 7;
  Alcotest.(check bool) "unsat" true (Solver.solve s = Solver.Unsat);
  let st = Solver.stats s in
  Alcotest.(check bool) "learnts deleted" true (st.Solver.deleted_clauses > 0);
  Alcotest.(check bool) "arena compacted" true (st.Solver.arena_gcs >= 1);
  Alcotest.(check bool) "arena non-trivial" true (st.Solver.arena_words > 0)

let test_model_correct_under_arena_gc () =
  (* Hard satisfiable 3-SAT near the phase transition: the arena is
     compacted mid-search, relocating crefs in watch lists and reasons.
     The final model must still satisfy every original clause.
     Inprocessing is disabled so the instance stays hard enough that
     reduce_db reliably triggers compaction (the simp-enabled path is
     exercised by the simp test suite). *)
  List.iter
    (fun seed ->
      let nvars = 180 in
      let g = Prng.create seed in
      let s = Solver.create ~simp:false () in
      let vs = fresh_vars s nvars in
      let clauses =
        List.init (int_of_float (4.2 *. float_of_int nvars)) (fun _ ->
            List.init 3 (fun _ -> Lit.make vs.(Prng.int g nvars) (Prng.bool g)))
      in
      List.iter (Solver.add_clause s) clauses;
      Alcotest.(check bool) "sat" true (Solver.solve s = Solver.Sat);
      Alcotest.(check bool) "arena gc fired" true ((Solver.stats s).Solver.arena_gcs >= 1);
      List.iter
        (fun clause ->
          Alcotest.(check bool) "clause satisfied" true
            (List.exists (fun l -> Solver.value s l) clause))
        clauses)
    [ 2; 11 ]

let prop_random_3sat =
  qcheck_case ~count:150 "random 3-SAT agrees with brute force"
    QCheck2.Gen.(int_bound 1000000)
    (fun seed ->
      let g = Prng.create seed in
      let nvars = 1 + Prng.int g 8 in
      let s = Solver.create () in
      let vs = Array.init nvars (fun _ -> Solver.new_var s) in
      let clauses =
        List.init (1 + Prng.int g 35) (fun _ ->
            List.init (1 + Prng.int g 3) (fun _ ->
                Lit.make vs.(Prng.int g nvars) (Prng.bool g)))
      in
      List.iter (Solver.add_clause s) clauses;
      brute_force nvars clauses = (Solver.solve s = Solver.Sat))

(* Clause intake: duplicate literals, complementary pairs, literals fixed
   at the root and variables a simplification session eliminated.  Three
   variable groups keep the expected root assignment computable: [r]
   holds root units, [e] feeds variable elimination (its clauses never
   mention [f]), and [f] is created after the session, so its root values
   are exactly the unit-propagation closure of the test clauses over
   [r] and [f], which the property recomputes. *)
let prop_clause_intake =
  qcheck_case ~count:300 "clause intake normalises like a literal set"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let g = Prng.create seed in
      let s = Solver.create ~seed () in
      let nr = 1 + Prng.int g 3 and ne = 3 + Prng.int g 6 and nf = 2 + Prng.int g 4 in
      let r = fresh_vars s nr and e = fresh_vars s ne in
      let root = Hashtbl.create 16 in
      let units = List.map (fun v -> [ Lit.make v (Prng.bool g) ]) (Array.to_list r) in
      List.iter
        (fun c ->
          let l = List.hd c in
          Hashtbl.replace root (Lit.var l) (Lit.is_pos l))
        units;
      let lit_of vs = Lit.make vs.(Prng.int g (Array.length vs)) (Prng.bool g) in
      let re = Array.append r e in
      let e_clauses =
        List.init (ne + Prng.int g (2 * ne)) (fun _ -> List.init (2 + Prng.int g 2) (fun _ -> lit_of re))
      in
      List.iter (Solver.add_clause s) (units @ e_clauses);
      ignore (Solver.solve s);
      let f = fresh_vars s nf in
      let rf = Array.append r f in
      let nvars = Solver.num_vars s in
      (* Root value of [l]: Some true / Some false / None. *)
      let value l =
        Option.map (fun b -> b = Lit.is_pos l) (Hashtbl.find_opt root (Lit.var l))
      in
      let rf_clauses = ref [] and conflict = ref false in
      let rec propagate () =
        let changed = ref false in
        List.iter
          (fun c ->
            if not (List.exists (fun l -> value l = Some true) c) then
              match List.sort_uniq compare (List.filter (fun l -> value l = None) c) with
              | [] -> conflict := true
              | [ u ] ->
                  Hashtbl.replace root (Lit.var u) (Lit.is_pos u);
                  changed := true
              | _ -> ())
          !rf_clauses;
        if !changed && not !conflict then propagate ()
      in
      let ok = ref true and all = ref (units @ e_clauses) in
      for _ = 1 to 10 + Prng.int g 20 do
        let from_e = Prng.int g 4 = 0 in
        let pool = if from_e then re else rf in
        let base = List.init (1 + Prng.int g 4) (fun _ -> lit_of pool) in
        let extra =
          List.filter_map
            (fun l ->
              match Prng.int g 6 with
              | 0 -> Some l (* duplicate *)
              | 1 -> Some (Lit.negate l) (* complementary pair *)
              | _ -> None)
            base
        in
        let c = base @ extra in
        let c = if Prng.bool g then List.rev c else c in
        let before = Solver.num_clauses s and was_ok = Solver.ok s in
        Solver.add_clause s c;
        all := c :: !all;
        if not from_e then begin
          (* normalised: distinct root-unassigned literals, unless the
             clause is satisfied or a tautology *)
          let absorbed =
            List.exists (fun l -> value l = Some true) c
            || List.exists (fun l -> List.mem (Lit.negate l) c) c
          in
          let kept = List.sort_uniq compare (List.filter (fun l -> value l = None) c) in
          let grows = was_ok && (not absorbed) && List.length kept >= 2 in
          if Solver.num_clauses s - before <> (if grows then 1 else 0) then ok := false;
          rf_clauses := c :: !rf_clauses;
          propagate ()
        end
      done;
      (* (a refuted solver absorbs every clause unread) *)
      let unknown =
        match Solver.add_clause s [ lit_of rf; Lit.pos nvars ] with
        | () -> not (Solver.ok s)
        | exception Invalid_argument m -> m = "Solver.add_clause: unknown variable"
      in
      let want = brute_force nvars !all in
      let got = Solver.solve s = Solver.Sat in
      let model_ok =
        (not got) || List.for_all (fun c -> List.exists (fun l -> Solver.value s l) c) !all
      in
      !ok && unknown && want = got && model_ok)

let prop_incremental_differential =
  (* Two solve calls with a clause batch added in between, both checked
     against brute force: exercises arena growth and watch-list extension
     across incremental solves. *)
  qcheck_case ~count:100 "incremental solves agree with brute force"
    QCheck2.Gen.(int_bound 1000000)
    (fun seed ->
      let g = Prng.create seed in
      let nvars = 1 + Prng.int g 7 in
      let s = Solver.create () in
      let vs = fresh_vars s nvars in
      let batch () =
        List.init (1 + Prng.int g 12) (fun _ ->
            List.init (1 + Prng.int g 4) (fun _ ->
                Lit.make vs.(Prng.int g nvars) (Prng.bool g)))
      in
      let c1 = batch () in
      List.iter (Solver.add_clause s) c1;
      let first_ok = brute_force nvars c1 = (Solver.solve s = Solver.Sat) in
      let c2 = batch () in
      List.iter (Solver.add_clause s) c2;
      let second_ok = brute_force nvars (c1 @ c2) = (Solver.solve s = Solver.Sat) in
      first_ok && second_ok)

(* Solver.copy: a copy taken right after a solve (the model still on the
   trail) must behave exactly like an uncopied twin that went through the
   same history — same answers, models and statistics — and clauses and
   solves applied to the copy must leave the original untouched.  The
   instances are large enough for learning, restarts and variable
   elimination; a few frozen variables are mentioned again later, and
   later clauses re-mention eliminated ones, which forces restores. *)
let prop_copy_differential =
  qcheck_case ~count:60 "copy behaves like an uncopied twin"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let g = Prng.create seed in
      let nvars = 20 + Prng.int g 40 in
      let lit () = Lit.make (Prng.int g nvars) (Prng.bool g) in
      let batch n = List.init n (fun _ -> List.init 3 (fun _ -> lit ())) in
      let frozen = List.init 4 (fun _ -> Prng.int g nvars) in
      let assumptions () = List.init (Prng.int g 3) (fun _ -> lit ()) in
      let c1 = batch (3 * nvars + Prng.int g nvars) in
      let c2 = batch (1 + Prng.int g nvars) and a2 = assumptions () in
      let c3 = batch (1 + Prng.int g nvars) and a3 = assumptions () in
      let build () =
        let s = Solver.create ~seed () in
        ignore (fresh_vars s nvars);
        List.iter (Solver.freeze_var s) frozen;
        List.iter (Solver.add_clause s) c1;
        ignore (Solver.solve s);
        s
      in
      let step s clauses assumptions =
        List.iter (Solver.add_clause s) clauses;
        let r = Solver.solve ~assumptions s in
        let model =
          if r = Solver.Sat then
            List.init nvars (fun v ->
                try Some (Solver.model_var s v) with Invalid_argument _ -> None)
          else []
        in
        (r, model, Solver.stats s)
      in
      let original = build () and twin = build () in
      let copy = Solver.copy original in
      let copy_2 = step copy c2 a2 in
      let twin_2 = step twin c2 a2 in
      let original_2 = step original c2 a2 in
      let copy_3 = step copy c3 a3 in
      let original_3 = step original c3 a3 in
      copy_2 = twin_2 && original_2 = twin_2 && copy_3 = original_3)

let suite =
  [
    Alcotest.test_case "trivial sat" `Quick test_trivial_sat;
    Alcotest.test_case "trivial unsat" `Quick test_trivial_unsat;
    Alcotest.test_case "empty clause" `Quick test_empty_clause;
    Alcotest.test_case "empty formula sat" `Quick test_empty_formula_sat;
    Alcotest.test_case "implication chain" `Quick test_implication_chain;
    Alcotest.test_case "model satisfies" `Quick test_model_satisfies;
    Alcotest.test_case "agrees with brute force" `Quick test_agrees_with_brute_force;
    Alcotest.test_case "pigeonhole unsat" `Quick test_pigeonhole_unsat;
    Alcotest.test_case "assumptions" `Quick test_assumptions;
    Alcotest.test_case "incremental solving" `Quick test_incremental_solving;
    Alcotest.test_case "vars added between solves" `Quick test_vars_added_between_solves;
    Alcotest.test_case "duplicate/tautological literals" `Quick
      test_duplicate_and_tautological_literals;
    Alcotest.test_case "unknown variable rejected" `Quick test_unknown_variable_rejected;
    Alcotest.test_case "conflict limit" `Quick test_conflict_limit;
    Alcotest.test_case "stats progress" `Quick test_stats_progress;
    Alcotest.test_case "xor chain instance" `Quick test_xor_chain_instance;
    Alcotest.test_case "arena gc under unsat pressure" `Quick test_arena_gc_unsat_pressure;
    Alcotest.test_case "model correct under arena gc" `Quick test_model_correct_under_arena_gc;
    prop_random_3sat;
    prop_incremental_differential;
    prop_clause_intake;
    prop_copy_differential;
  ]
