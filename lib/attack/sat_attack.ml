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

let h_batch_dips = Tel.Metric.histogram "attack.batch_dips"

type dip_batch = {
  q : int;
  q_max : int;
  adaptive : bool;
}

let default_dip_batch = { q = 1; q_max = 1; adaptive = false }

let batched ?(adaptive = true) ?(q_max = 64) q =
  if q < 1 || q > 64 then invalid_arg "Sat_attack.batched: q must be in [1, 64]";
  { q; q_max = min 64 (max q q_max); adaptive }

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
  dip_batch : dip_batch;
  stop : (progress -> bool) option;
}

let default_config =
  {
    max_iterations = None;
    time_limit = None;
    interrupt = None;
    solver_seed = 0;
    solver_simp = true;
    dip_batch = default_dip_batch;
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
(* The batched DIP pipeline                                           *)
(* ------------------------------------------------------------------ *)

(* One round of the attack is an explicit four-phase state machine:

     Solve -> Enumerate -> Oracle_sweep -> Encode -> Solve -> ...

   [Solve] runs the main miter solve under the activation assumption and
   either finishes the attack (Unsat: extract the key) or hands its model
   to [Enumerate], which blocks each found input assignment under a fresh
   per-round guard literal and re-solves until up to [q] distinct DIPs are
   in hand.  [Oracle_sweep] answers all of them in one packed pass and
   runs the per-DIP ternary cofactor sweeps, and [Encode] appends every
   model-blocking constraint as one arena batch, retires the round's
   guard and updates the adaptive [q].  Each phase is a [step_*] function over the mutable session below:
   the driver is a trivial loop, and a future resumable-job daemon can
   interleave sessions at phase granularity. *)

type round_state = {
  mutable b_dips : bool array array;  (** models found this round, [0..b_k) *)
  mutable b_k : int;
  mutable b_budget : int;  (** enumeration target for this round *)
  mutable b_en : Lit.t option;  (** per-round enumeration guard *)
  mutable b_early_unsat : bool;  (** enumeration ran dry before the budget *)
  mutable b_enum_time : float;  (** time in enumeration solves *)
  mutable b_main_dt : float;  (** time of this round's main solve *)
  mutable b_wit1 : bool array array;  (** witness key A per model (adaptive) *)
  mutable b_wit2 : bool array array;  (** witness key B per model (adaptive) *)
  mutable b_responses : bool array array;
}

type phase = Solve | Enumerate | Oracle_sweep | Encode | Finished of result

(* ------------------------------------------------------------------ *)
(* Sessions                                                           *)
(* ------------------------------------------------------------------ *)

(* A session is one cube's live solver: the miter encoded once, the
   cube's pins as root units, the guarded difference clause and every
   DIP constraint added so far.  The DIP loop below drives a session
   until it ends; a [Stopped] one is handed back so the cube engine can
   fork it into the children of a re-split instead of rebuilding them. *)
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

let check_pin prep condition (pos, _) =
  if pos < 0 || pos >= prep.p_n_in then invalid_arg "Sat_attack.run: condition position";
  if List.mem_assoc pos condition then invalid_arg "Sat_attack.run: duplicate condition"

let check_run config prep oracle =
  let locked = prep.p_locked in
  if Circuit.num_inputs locked <> Oracle.num_inputs oracle then
    invalid_arg "Sat_attack.run: oracle input count mismatch";
  if Circuit.num_outputs locked <> Oracle.num_outputs oracle then
    invalid_arg "Sat_attack.run: oracle output count mismatch";
  let db = config.dip_batch in
  if db.q < 1 || db.q > 64 || db.q_max < db.q || db.q_max > 64 then
    invalid_arg "Sat_attack.run: dip_batch q must satisfy 1 <= q <= q_max <= 64"

let open_session config prep ~condition =
  ignore
    (List.fold_left
       (fun seen pin ->
         check_pin prep seen pin;
         pin :: seen)
       [] condition);
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
  (* The cofactor cube: pinned primary inputs become root units, so the
     shared miter encoding — built once by {!prepare} for all cubes — is
     specialised by the solver instead of by re-synthesizing and
     re-encoding a cofactored circuit per cube. *)
  List.iter (fun (pos, b) -> Tseitin.force env input_lits.(pos) b) condition;
  (* Guarded difference clause: act -> diff.  The activation variable is
     used as an assumption on every solve, so it must survive variable
     elimination. *)
  let act = (Tseitin.fresh_lits env 1).(0) in
  Solver.freeze_var solver (Lit.var act);
  Solver.add_clause solver [ Lit.negate act; diff ];
  {
    s_prep = prep;
    s_solver = solver;
    s_env = env;
    s_input_lits = input_lits;
    s_key1 = Array.sub key_lits 0 n_key;
    s_key2 = Array.sub key_lits n_key n_key;
    s_act = act;
    s_condition = condition;
    s_inherited = 0;
  }

let fork ?seed session =
  let solver = Solver.copy ?seed session.s_solver in
  { session with s_solver = solver; s_env = Tseitin.copy session.s_env solver }

let arena_words session = (Solver.stats session.s_solver).Solver.arena_words

(* Drive [session] through the DIP loop.  Every count of the result, and
   every budget, starts at zero here: a forked session reports only what
   it did itself. *)
let drive config session ~oracle ~started =
  let prep = session.s_prep in
  let locked = prep.p_locked in
  let db = config.dip_batch in
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
  (* Scratches for the in-place ternary cofactor sweeps — one per in-flight
     DIP of a batch, grown on demand, owned by this run's domain. *)
  let scratches = ref [||] in
  let scratch_for i =
    if i >= Array.length !scratches then begin
      let old = !scratches in
      scratches :=
        Array.init (i + 1) (fun j ->
            if j < Array.length old then old.(j) else Compiled.scratch prep.p_cone_prog)
    end;
    (!scratches).(i)
  in
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
     cofactor must already sit in [scratch_for j]. *)
  let add_dip j dip response =
    if not (indep_outputs_match dip response) then Solver.add_clause solver [];
    let prog = prep.p_cone_prog and scratch = scratch_for j in
    let cone_response = cone_response_of response in
    add_dip_constraint env prog scratch ~key_lits:key1 ~cone_response;
    add_dip_constraint env prog scratch ~key_lits:key2 ~cone_response
  in
  let solve_time = ref 0.0 in
  let timed_solve assumptions =
    let r, dt = Timer.time (fun () -> Solver.solve ~assumptions solver) in
    solve_time := !solve_time +. dt;
    if Tel.enabled () then Tel.Metric.observe h_dip_solve dt;
    (r, dt)
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
    | Solver.Sat, _ -> Some (Bitvec.init n_key (fun k -> Solver.value solver key1.(k)))
    | Solver.Unsat, _ -> None
  in
  let queries_made = ref 0 in
  (* Session state of the machine. *)
  let dips_rev = ref [] in
  let num_dips = ref 0 in
  let rounds = ref 0 in
  let cur_q = ref (min db.q db.q_max) in
  let batching = db.q_max > 1 in
  let round =
    {
      b_dips = [||];
      b_k = 0;
      b_budget = 1;
      b_en = None;
      b_early_unsat = false;
      b_enum_time = 0.0;
      b_main_dt = 0.0;
      b_wit1 = [||];
      b_wit2 = [||];
      b_responses = [||];
    }
  in
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
  let phase = ref Solve in
  let finish status key =
    phase :=
      Finished
        {
          status;
          key;
          dips = List.rev !dips_rev;
          num_dips = !num_dips;
          rounds = !rounds;
          oracle_queries = !queries_made;
          total_time = Timer.monotonic () -. started;
          solve_time = !solve_time;
          solver_conflicts = conflicts ();
          imported = session.s_inherited;
        }
  in
  let model_of lits = Array.map (fun l -> Solver.value solver l) lits in
  (* --- Solve: the main miter solve under the activation guard. --- *)
  let step_solve () =
    if over_iterations !num_dips then finish Iteration_limit None
    else if over_time () then finish Time_limit None
    else if interrupted () then finish Cancelled None
    else if stop_requested () then finish Stopped None
    else begin
      (* One span per round: a0 = round index; closed with v = the
         cofactored cone's symbolic (key-dependent) node count (Sat) or -1
         (Unsat, i.e. the final solve that proves no DIP remains). *)
      if Tel.enabled () then Tel.span_begin ~a0:!rounds "attack.dip";
      match timed_solve [ act ] with
      | Solver.Unsat, _ ->
          (* No DIP left: extract any surviving key. *)
          let key = extract_key () in
          if Tel.enabled () then Tel.span_end ~v:(-1) ();
          finish Broken key
      | Solver.Sat, dt ->
          let budget =
            match config.max_iterations with
            | Some m -> max 1 (min !cur_q (m - !num_dips))
            | None -> !cur_q
          in
          round.b_dips <- Array.make budget [||];
          round.b_dips.(0) <- model_of input_lits;
          round.b_k <- 1;
          round.b_budget <- budget;
          round.b_en <- None;
          round.b_early_unsat <- false;
          round.b_enum_time <- 0.0;
          round.b_main_dt <- dt;
          if db.adaptive && budget > 1 then begin
            round.b_wit1 <- Array.make budget [||];
            round.b_wit2 <- Array.make budget [||];
            round.b_wit1.(0) <- model_of key1;
            round.b_wit2.(0) <- model_of key2
          end;
          phase := Enumerate
    end
  in
  (* --- Enumerate: block each model under a per-round guard and re-solve
     until the budget is met or the miter runs dry. --- *)
  let block en model =
    let cl = Array.make (Array.length free_pos + 1) (Lit.negate en) in
    Array.iteri
      (fun j p ->
        cl.(j + 1) <- (if model.(p) then Lit.negate input_lits.(p) else input_lits.(p)))
      free_pos;
    Solver.add_clause_a solver cl
  in
  let step_enumerate () =
    if round.b_budget > 1 then begin
      if Tel.enabled () then Tel.span_begin ~a0:round.b_budget "attack.enumerate";
      (* The guard is an assumption of every enumeration solve, so it gets
         the same frozen-literal protocol as [act]; it is released (and
         unfrozen) when the round's constraints are encoded. *)
      let en = (Tseitin.fresh_lits env 1).(0) in
      Solver.freeze_var solver (Lit.var en);
      round.b_en <- Some en;
      block en round.b_dips.(0);
      let continue_enum = ref true in
      while
        !continue_enum && round.b_k < round.b_budget
        && not (over_time ())
        && not (interrupted ())
      do
        match timed_solve [ act; en ] with
        | Solver.Unsat, dt ->
            round.b_enum_time <- round.b_enum_time +. dt;
            round.b_early_unsat <- true;
            continue_enum := false
        | Solver.Sat, dt ->
            round.b_enum_time <- round.b_enum_time +. dt;
            let d = model_of input_lits in
            round.b_dips.(round.b_k) <- d;
            if db.adaptive then begin
              round.b_wit1.(round.b_k) <- model_of key1;
              round.b_wit2.(round.b_k) <- model_of key2
            end;
            block en d;
            round.b_k <- round.b_k + 1
      done;
      if round.b_k < Array.length round.b_dips then begin
        round.b_dips <- Array.sub round.b_dips 0 round.b_k;
        if db.adaptive then begin
          round.b_wit1 <- Array.sub round.b_wit1 0 round.b_k;
          round.b_wit2 <- Array.sub round.b_wit2 0 round.b_k
        end
      end;
      if Tel.enabled () then Tel.span_end ~v:round.b_k ()
    end
    else if round.b_k < Array.length round.b_dips then
      round.b_dips <- Array.sub round.b_dips 0 round.b_k;
    phase := Oracle_sweep
  in
  (* --- Oracle_sweep: one packed pass answers the whole batch, then the
     per-DIP ternary cofactor sweeps fill the scratches [Encode] reads. --- *)
  let step_oracle () =
    let k = round.b_k in
    if batching && Tel.enabled () then Tel.span_begin ~a0:k "attack.oracle_batch";
    let responses = Oracle.query_batch oracle round.b_dips in
    for j = 0 to k - 1 do
      Compiled.cofactor_into prep.p_cone_prog (scratch_for j) ~inputs:round.b_dips.(j)
    done;
    queries_made := !queries_made + k;
    Tel.Metric.add m_oracle_queries k;
    if batching && Tel.enabled () then Tel.span_end ~v:k ();
    round.b_responses <- responses;
    phase := Encode
  in
  (* --- Adaptive q: a batch member is useful when its witness key pair
     still reproduces the oracle on every earlier DIP of the same batch —
     i.e. the enumeration produced information the earlier constraints
     would not already have ruled out.  Low yield (or running dry) shrinks
     q; high yield with enumeration cheap relative to the main solve grows
     it. --- *)
  let batch_yield () =
    let k = round.b_k in
    let prog = Compiled.cached locked in
    let scratch = Compiled.scratch prog in
    let n_out = Circuit.num_outputs locked in
    let pack get =
      Array.init n_in (fun p ->
          let w = ref 0L in
          for l = 0 to k - 1 do
            if get l p then w := Int64.logor !w (Int64.shift_left 1L l)
          done;
          !w)
    in
    let in_lanes = pack (fun l p -> round.b_dips.(l).(p)) in
    let resp_lanes =
      Array.init n_out (fun o ->
          let w = ref 0L in
          for l = 0 to k - 1 do
            if round.b_responses.(l).(o) then w := Int64.logor !w (Int64.shift_left 1L l)
          done;
          !w)
    in
    let useful = ref 1 in
    for j = 1 to k - 1 do
      let mask = Int64.sub (Int64.shift_left 1L j) 1L in
      let agrees key =
        let key_lanes = Array.map (fun b -> if b then -1L else 0L) key in
        Compiled.eval_lanes_into prog scratch ~inputs:in_lanes ~keys:key_lanes;
        let ok = ref true in
        for o = 0 to n_out - 1 do
          if
            Int64.logand
              (Int64.logxor (Compiled.output_lanes prog scratch o) resp_lanes.(o))
              mask
            <> 0L
          then ok := false
        done;
        !ok
      in
      if agrees round.b_wit1.(j) && agrees round.b_wit2.(j) then incr useful
    done;
    !useful
  in
  let adapt () =
    if db.adaptive then begin
      let k = round.b_k in
      let useful = if k <= 1 then k else batch_yield () in
      if round.b_early_unsat then cur_q := max 1 ((k + 1) / 2)
      else if 2 * useful < k then cur_q := max 1 (!cur_q / 2)
      else begin
        let mean_enum =
          if k > 1 then round.b_enum_time /. float_of_int (k - 1) else 0.0
        in
        if 4 * useful >= 3 * k && mean_enum <= round.b_main_dt then
          cur_q := min db.q_max (!cur_q * 2)
      end
    end
  in
  (* --- Encode: consistency-check and append every DIP constraint of the
     round; the whole batch flushes as one arena append. --- *)
  let step_encode () =
    let k = round.b_k in
    if batching && Tel.enabled () then Tel.span_begin ~a0:k "attack.encode_batch";
    let encode_one j = add_dip j round.b_dips.(j) round.b_responses.(j) in
    if k > 1 then
      Tseitin.with_batch env (fun () ->
          for j = 0 to k - 1 do
            encode_one j
          done)
    else encode_one 0;
    (* Retire the round's guard: a unit kills every blocking clause, and
       unfreezing lets inprocessing reclaim the variable. *)
    (match round.b_en with
    | Some en ->
        Solver.add_clause solver [ Lit.negate en ];
        Solver.unfreeze_var solver (Lit.var en);
        round.b_en <- None
    | None -> ());
    Tel.Metric.add m_dips k;
    if Tel.enabled () then
      for j = 0 to k - 1 do
        Tel.log_line
          (Printf.sprintf "iter %d: dip=%s response=%s"
             (!num_dips + j + 1)
             (Bitvec.to_string (Bitvec.of_bool_array round.b_dips.(j)))
             (Bitvec.to_string (Bitvec.of_bool_array round.b_responses.(j))))
      done;
    for j = 0 to k - 1 do
      (* Sub-attacks report DIPs over their free inputs, in original
         relative order — the cube part is implied by the condition. *)
      let d = round.b_dips.(j) in
      let narrow =
        if Array.length free_pos = n_in then d else Array.map (fun p -> d.(p)) free_pos
      in
      dips_rev := Bitvec.of_bool_array narrow :: !dips_rev
    done;
    num_dips := !num_dips + k;
    rounds := !rounds + 1;
    Progress.add_dips k;
    Progress.add_rounds 1;
    Progress.add_blocking_clauses k;
    if batching && Tel.enabled () then Tel.span_end ~v:k ();
    if Tel.enabled () then begin
      if batching then Tel.Metric.observe h_batch_dips (float_of_int k);
      Tel.span_end ~v:(Compiled.unknown_count (scratch_for (k - 1))) ()
    end;
    adapt ();
    Progress.set_q !cur_q;
    phase := Solve
  in
  let rec loop () =
    match !phase with
    | Finished r -> r
    | Solve ->
        step_solve ();
        loop ()
    | Enumerate ->
        step_enumerate ();
        loop ()
    | Oracle_sweep ->
        step_oracle ();
        loop ()
    | Encode ->
        step_encode ();
        loop ()
  in
  let r = loop () in
  (* [stop] is polled only between rounds, so a stopped session holds no
     round guard and no pending batch: it is safe to fork. *)
  match r.status with
  | Stopped -> (r, Some { session with s_inherited = session.s_inherited + r.num_dips })
  | Broken | Iteration_limit | Time_limit | Cancelled -> (r, None)

let run_prepared ?(config = default_config) prep ~condition ~oracle =
  check_run config prep oracle;
  let started = Timer.monotonic () in
  drive config (open_session config prep ~condition) ~oracle ~started

let resume ?(config = default_config) session ~pin ~oracle =
  check_run config session.s_prep oracle;
  check_pin session.s_prep session.s_condition pin;
  let started = Timer.monotonic () in
  let pos, b = pin in
  Tseitin.force session.s_env session.s_input_lits.(pos) b;
  Progress.add_imported session.s_inherited;
  drive config { session with s_condition = session.s_condition @ [ pin ] } ~oracle ~started

let run ?(config = default_config) locked ~oracle =
  if Circuit.num_keys locked = 0 then invalid_arg "Sat_attack.run: circuit has no keys";
  fst (run_prepared ~config (prepare locked) ~condition:[] ~oracle)
