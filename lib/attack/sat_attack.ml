module Circuit = Ll_netlist.Circuit
module Compiled = Ll_netlist.Compiled
module Bitvec = Ll_util.Bitvec
module Timer = Ll_util.Timer
module Solver = Ll_sat.Solver
module Tseitin = Ll_sat.Tseitin
module Lit = Ll_sat.Lit
module Tel = Ll_telemetry.Telemetry

let m_dips = Tel.Metric.counter "attack.dips"

let m_oracle_queries = Tel.Metric.counter "attack.oracle_queries"

let h_dip_solve = Tel.Metric.histogram "attack.dip_solve_s"

type progress = {
  pg_dips : int;
  pg_conflicts : int;
  pg_elapsed : float;
  pg_candidate : unit -> Bitvec.t option;
}

type config = {
  max_iterations : int option;
  time_limit : float option;
  interrupt : (unit -> bool) option;
  solver_seed : int;
  solver_simp : bool;
  stop : (progress -> bool) option;
}

let default_config =
  {
    max_iterations = None;
    time_limit = None;
    interrupt = None;
    solver_seed = 0;
    solver_simp = true;
    stop = None;
  }

type status = Broken | Iteration_limit | Time_limit | Cancelled | Stopped

type result = {
  status : status;
  key : Bitvec.t option;
  dips : Bitvec.t list;
  num_dips : int;
  rounds : int;
  oracle_queries : int;
  total_time : float;
  solve_time : float;
  solver_conflicts : int;
  imported : int;
}

(* ------------------------------------------------------------------ *)
(* Shared preparation                                                 *)
(* ------------------------------------------------------------------ *)

(* Everything about the locked circuit that every (sub-)attack instance
   needs and that no instance mutates: the synthesized key-duplicated
   miter, the key-dependence split of the outputs, the compiled key cone
   for per-DIP cofactoring and the compiled key-independent cone for
   oracle consistency checks.  The split attack builds this once and runs
   one instance per cofactor cube; scratch buffers are per-run (and hence
   per-domain), never shared. *)
type prep = {
  p_locked : Circuit.t;
  p_miter : Compiled.t;  (** compiled once; every session walks it *)
  p_n_in : int;
  p_n_key : int;
  p_dep_pos : int array;  (** positions of the key-dependent outputs *)
  p_all_dep : bool;
  p_cone_prog : Compiled.t;
  p_indep : (Compiled.t * int array) option;
}

let prepare locked =
  if Circuit.num_keys locked = 0 then
    invalid_arg "Sat_attack.prepare: circuit has no keys";
  let n_in = Circuit.num_inputs locked and n_key = Circuit.num_keys locked in
  (* The two key-sharing copies are built as one circuit and synthesized
     before encoding: structural hashing merges all key-independent logic
     shared by the copies, which shrinks the miter dramatically (for
     point-function schemes it collapses to the key cones). *)
  let miter = Ll_synth.Optimize.run (Miter.dup_key locked) in
  assert (Circuit.num_keys miter = 2 * n_key);
  (* Per-DIP constraints only bind the key: restrict the circuit, once, to
     the outputs in the transitive fanout of a key input.  Key-independent
     outputs collapse to the oracle response on every DIP anyway (they
     contribute no clauses), so re-simplifying them each iteration is pure
     overhead; they are instead checked against the oracle by one linear
     simulation pass per DIP, which preserves the Broken diagnosis when an
     inconsistent oracle contradicts key-free logic. *)
  let output_key_dep =
    let kc = Ll_netlist.Cone.key_controlled locked in
    Array.map (fun j -> kc.(j)) (Circuit.output_nodes locked)
  in
  let all_dep = Array.for_all (fun b -> b) output_key_dep in
  (* A pathological lock can leave every output key-independent (the key
     drives only logic outside the output cones); the split would then
     build an empty key cone, so fall back to the whole-circuit path: the
     optimized miter has no key-dependent difference, the first solve is
     UNSAT, and the attack closes immediately (any key unlocks). *)
  let all_dep = all_dep || not (Array.exists (fun b -> b) output_key_dep) in
  let key_cone =
    if all_dep then locked
    else
      let outputs =
        Array.to_list locked.Circuit.outputs
        |> List.filteri (fun i _ -> output_key_dep.(i))
        |> Array.of_list
      in
      Ll_synth.Sweep.run
        (Circuit.create ~name:locked.Circuit.name ~nodes:locked.Circuit.nodes
           ~node_names:locked.Circuit.node_names ~outputs)
  in
  (* The key cone is compiled once; every DIP then runs one in-place
     ternary cofactor sweep over the flat program (no intermediate
     circuits) before the emitter adds its constraints. *)
  let cone_prog = Compiled.compile key_cone in
  let positions keep =
    Array.to_list output_key_dep
    |> List.mapi (fun i dep -> (i, dep))
    |> List.filter_map (fun (i, dep) -> if keep dep then Some i else None)
    |> Array.of_list
  in
  let indep =
    if all_dep then None
    else begin
      let outputs =
        Array.to_list locked.Circuit.outputs
        |> List.filteri (fun i _ -> not output_key_dep.(i))
        |> Array.of_list
      in
      let indep_cone =
        Ll_synth.Sweep.run
          (Circuit.create ~name:locked.Circuit.name ~nodes:locked.Circuit.nodes
             ~node_names:locked.Circuit.node_names ~outputs)
      in
      Some (Compiled.compile indep_cone, positions (fun dep -> not dep))
    end
  in
  {
    p_locked = locked;
    p_miter = Compiled.compile miter;
    p_n_in = n_in;
    p_n_key = n_key;
    p_dep_pos = positions Fun.id;
    p_all_dep = all_dep;
    p_cone_prog = cone_prog;
    p_indep = indep;
  }

let prep_inputs prep = prep.p_n_in

let prep_gates prep = Circuit.gate_count prep.p_miter.Compiled.source

(* ------------------------------------------------------------------ *)
(* Per-DIP constraint emission                                        *)
(* ------------------------------------------------------------------ *)

(* Encode "C_l(dip, K) = y" for one key-literal vector: the key cone was
   compiled once up front and the current DIP's cofactor sits in
   [scratch]; the emitter encodes just its live key logic and forces its
   outputs to the key cone's part of the oracle response. *)
let add_dip_constraint env prog scratch ~key_lits ~cone_response =
  let outs = Tseitin.encode_cofactored env prog scratch ~key_lits in
  Array.iteri (fun i o -> Tseitin.force env o cone_response.(i)) outs

(* ------------------------------------------------------------------ *)
(* Sessions                                                           *)
(* ------------------------------------------------------------------ *)

(* A session is one cube's live solver: the miter encoded once, the
   guarded difference clause, the cube's pins as root units and every
   DIP constraint added so far.  An attack builds one unpinned root
   session ({!root}) and every cube continues a session taken from its
   parent: a seed cube forks the root, a re-split child its parent's
   stopped session.  The DIP loop below drives a session until it ends;
   a [Stopped] one is handed back so the cube engine can fork it into
   the children of a re-split instead of rebuilding them. *)
type session = {
  s_prep : prep;
  s_solver : Solver.t;
  s_env : Tseitin.env;
  s_input_lits : Lit.t array;
  s_key1 : Lit.t array;
  s_key2 : Lit.t array;
  s_act : Lit.t;  (** guard of the difference clause *)
  s_condition : (int * bool) list;  (** pinned inputs, in pin order *)
  s_inherited : int;  (** DIPs ancestors added to the solver *)
}

let check_pins prep condition pins =
  ignore
    (List.fold_left
       (fun seen ((pos, _) as pin) ->
         if pos < 0 || pos >= prep.p_n_in then
           invalid_arg "Sat_attack.run: condition position";
         if List.mem_assoc pos seen then invalid_arg "Sat_attack.run: duplicate condition";
         pin :: seen)
       condition pins)

let check_run prep oracle =
  let locked = prep.p_locked in
  if Circuit.num_inputs locked <> Oracle.num_inputs oracle then
    invalid_arg "Sat_attack.run: oracle input count mismatch";
  if Circuit.num_outputs locked <> Oracle.num_outputs oracle then
    invalid_arg "Sat_attack.run: oracle output count mismatch"

let root ?(config = default_config) prep =
  let n_in = prep.p_n_in and n_key = prep.p_n_key in
  let solver = Solver.create ~seed:config.solver_seed ~simp:config.solver_simp () in
  let env = Tseitin.create solver in
  let input_lits = Tseitin.fresh_lits env n_in in
  let key_lits = Tseitin.fresh_lits env (2 * n_key) in
  let diff =
    let prog = prep.p_miter in
    let scratch = Compiled.scratch prog in
    Compiled.constants_into prog scratch;
    match Tseitin.encode_program env prog scratch ~input_lits ~key_lits with
    | [| d |] -> d
    | _ -> assert false
  in
  (* Guarded difference clause: act -> diff.  The activation variable is
     used as an assumption on every solve, so it must survive variable
     elimination. *)
  let act = (Tseitin.fresh_lits env 1).(0) in
  Solver.freeze_var solver (Lit.var act);
  Solver.add_clause solver [ Lit.negate act; diff ];
  (* The session the first solve would open, run now, so that every
     cube forked from this root shares it instead of repeating it.  The
     encoder froze the input ports, so no input a cube pins later has
     been eliminated. *)
  if Tel.enabled () then begin
    Tel.span_begin ~a0:(Solver.num_clauses solver) "attack.root";
    Solver.simplify solver;
    Tel.span_end ~v:(Solver.num_clauses solver) ()
  end
  else Solver.simplify solver;
  {
    s_prep = prep;
    s_solver = solver;
    s_env = env;
    s_input_lits = input_lits;
    s_key1 = Array.sub key_lits 0 n_key;
    s_key2 = Array.sub key_lits n_key n_key;
    s_act = act;
    s_condition = [];
    s_inherited = 0;
  }

let condition session = session.s_condition

let fork ?seed session =
  let solver = Solver.copy ?seed session.s_solver in
  { session with s_solver = solver; s_env = Tseitin.copy session.s_env solver }

let arena_words session = (Solver.stats session.s_solver).Solver.arena_words

(* Drive [session] through the DIP loop, one DIP per round: check the
   limits, solve the miter, query the oracle on the DIP, cofactor the key
   cone under it and encode its constraint.  Every count of the result,
   and every budget, starts at zero here: a forked session reports only
   what it did itself. *)
let drive config session ~oracle ~started =
  let prep = session.s_prep in
  let solver = session.s_solver and env = session.s_env in
  let input_lits = session.s_input_lits in
  let key1 = session.s_key1 and key2 = session.s_key2 and act = session.s_act in
  let n_in = prep.p_n_in and n_key = prep.p_n_key in
  let free_pos =
    Array.of_list
      (List.filter
         (fun i -> not (List.mem_assoc i session.s_condition))
         (List.init n_in Fun.id))
  in
  let conflicts0 = (Solver.stats solver).Solver.conflicts in
  let conflicts () = (Solver.stats solver).Solver.conflicts - conflicts0 in
  Progress.set_key_bits n_key;
  (* Scratch for the in-place ternary cofactor sweep of the current DIP,
     owned by this run's domain. *)
  let scratch = Compiled.scratch prep.p_cone_prog in
  let indep =
    match prep.p_indep with
    | None -> None
    | Some (prog, pos) -> Some (prog, Compiled.scratch prog, Array.make n_key false, pos)
  in
  let indep_outputs_match dip response =
    match indep with
    | None -> true
    | Some (prog, scratch, zero_keys, pos) ->
        Compiled.eval_into prog scratch ~inputs:dip ~keys:zero_keys;
        let ok = ref true in
        Array.iteri
          (fun j i ->
            if Compiled.output_val prog scratch j <> response.(i) then ok := false)
          pos;
        !ok
  in
  (* The response restricted to the key cone's outputs, in a buffer the
     encoder reads before the next DIP overwrites it. *)
  let cone_buf = Array.make (Array.length prep.p_dep_pos) false in
  let cone_response_of response =
    if prep.p_all_dep then response
    else begin
      for k = 0 to Array.length cone_buf - 1 do
        cone_buf.(k) <- response.(prep.p_dep_pos.(k))
      done;
      cone_buf
    end
  in
  (* Add what DIP [dip] with oracle response [response] says about the
     key.  A response that contradicts key-independent logic leaves no
     key: poison the solver so the attack reports Broken with no
     surviving key, as the unrestricted encoding would have.  Both key
     copies are constrained to reproduce the response; the DIP's
     cofactor must already sit in [scratch]. *)
  let add_dip dip response =
    if not (indep_outputs_match dip response) then Solver.add_clause solver [];
    let prog = prep.p_cone_prog in
    let cone_response = cone_response_of response in
    add_dip_constraint env prog scratch ~key_lits:key1 ~cone_response;
    add_dip_constraint env prog scratch ~key_lits:key2 ~cone_response
  in
  let solve_time = ref 0.0 in
  let timed_solve assumptions =
    let r, dt = Timer.time (fun () -> Solver.solve ~assumptions solver) in
    solve_time := !solve_time +. dt;
    if Tel.enabled () then Tel.Metric.observe h_dip_solve dt;
    r
  in
  let over_time () =
    match config.time_limit with
    | Some limit -> Timer.monotonic () -. started > limit
    | None -> false
  in
  let over_iterations i =
    match config.max_iterations with Some m -> i >= m | None -> false
  in
  let interrupted () =
    match config.interrupt with Some f -> f () | None -> false
  in
  (* Key extraction: a key satisfying every DIP constraint so far, read
     with the difference guard released.  Once the miter is UNSAT it is
     functionally correct. *)
  let extract_key () =
    match timed_solve [ Lit.negate act ] with
    | Solver.Sat -> Some (Bitvec.init n_key (fun k -> Solver.value solver key1.(k)))
    | Solver.Unsat -> None
  in
  let dips_rev = ref [] in
  let num_dips = ref 0 in
  (* The [stop] hook, polled between rounds like the other limits.
     Conflict counts are deterministic for a fixed seed, so budgets
     expressed in them make re-split decisions reproducible; wall-clock
     budgets trade that for responsiveness. *)
  let stop_requested () =
    match config.stop with
    | None -> false
    | Some f ->
        f
          {
            pg_dips = !num_dips;
            pg_conflicts = conflicts ();
            pg_elapsed = Timer.monotonic () -. started;
            pg_candidate = extract_key;
          }
  in
  let finish status key =
    {
      status;
      key;
      dips = List.rev !dips_rev;
      num_dips = !num_dips;
      rounds = !num_dips;
      oracle_queries = !num_dips;
      total_time = Timer.monotonic () -. started;
      solve_time = !solve_time;
      solver_conflicts = conflicts ();
      imported = session.s_inherited;
    }
  in
  let rec round () =
    if over_iterations !num_dips then finish Iteration_limit None
    else if over_time () then finish Time_limit None
    else if interrupted () then finish Cancelled None
    else if stop_requested () then finish Stopped None
    else begin
      (* One span per round: a0 = round index; closed with v = the
         cofactored cone's symbolic (key-dependent) node count (Sat) or -1
         (Unsat, i.e. the final solve that proves no DIP remains). *)
      if Tel.enabled () then Tel.span_begin ~a0:!num_dips "attack.dip";
      match timed_solve [ act ] with
      | Solver.Unsat ->
          (* No DIP left: extract any surviving key. *)
          let key = extract_key () in
          if Tel.enabled () then Tel.span_end ~v:(-1) ();
          finish Broken key
      | Solver.Sat ->
          let dip = Array.map (fun l -> Solver.value solver l) input_lits in
          let response = Oracle.query oracle dip in
          Compiled.cofactor_into prep.p_cone_prog scratch ~inputs:dip;
          Tel.Metric.add m_oracle_queries 1;
          add_dip dip response;
          Tel.Metric.add m_dips 1;
          incr num_dips;
          if Tel.enabled () then
            Tel.log_line
              (Printf.sprintf "iter %d: dip=%s response=%s" !num_dips
                 (Bitvec.to_string (Bitvec.of_bool_array dip))
                 (Bitvec.to_string (Bitvec.of_bool_array response)));
          (* Sub-attacks report DIPs over their free inputs, in original
             relative order — the cube part is implied by the condition. *)
          let narrow =
            if Array.length free_pos = n_in then dip else Array.map (fun p -> dip.(p)) free_pos
          in
          dips_rev := Bitvec.of_bool_array narrow :: !dips_rev;
          Progress.add_dips 1;
          if Tel.enabled () then Tel.span_end ~v:(Compiled.unknown_count scratch) ();
          round ()
    end
  in
  let r = round () in
  (* [stop] is polled only between rounds, so a stopped session holds a
     whole number of DIP constraints: it is safe to fork. *)
  match r.status with
  | Stopped -> (r, Some { session with s_inherited = session.s_inherited + r.num_dips })
  | Broken | Iteration_limit | Time_limit | Cancelled -> (r, None)

(* Pin [pins] on [session] (cubes pin the shared miter's inputs as root
   units instead of re-synthesizing a cofactored circuit) and run the
   DIP loop on it, timing budgets from [started]. *)
let continue config session ~pins ~oracle ~started =
  check_run session.s_prep oracle;
  check_pins session.s_prep session.s_condition pins;
  List.iter
    (fun (pos, b) -> Tseitin.force session.s_env session.s_input_lits.(pos) b)
    pins;
  Progress.add_imported session.s_inherited;
  drive config { session with s_condition = session.s_condition @ pins } ~oracle ~started

let resume ?(config = default_config) session ~pins ~oracle =
  continue config session ~pins ~oracle ~started:(Timer.monotonic ())

let run ?(config = default_config) locked ~oracle =
  if Circuit.num_keys locked = 0 then invalid_arg "Sat_attack.run: circuit has no keys";
  let started = Timer.monotonic () in
  fst (continue config (root ~config (prepare locked)) ~pins:[] ~oracle ~started)
