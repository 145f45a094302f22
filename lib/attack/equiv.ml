module Circuit = Ll_netlist.Circuit
module Compiled = Ll_netlist.Compiled
module Eval = Ll_netlist.Eval
module Solver = Ll_sat.Solver
module Tseitin = Ll_sat.Tseitin
module Lit = Ll_sat.Lit
module Prng = Ll_util.Prng
module Tel = Ll_telemetry.Telemetry

type verdict = Equivalent | Counterexample of bool array

let m_merged = Tel.Metric.counter "equiv.merged"

let m_refuted = Tel.Metric.counter "equiv.refuted"

let m_solves = Tel.Metric.counter "equiv.solves"

(* Conflicts the plain output miter may spend before the sweep takes
   over.  Miters whose two encodings share most of their logic close far
   below it — the unoptimised c3540 cube compositions, whose cube copies
   the encoder maps onto the original, need 20-40 conflicts, and
   sweeping those 50k-gate formulas costs several times more.  Optimised
   compositions need from ~350 (c5315/SARLock) to ~21k (c7552/SARLock)
   conflicts and sweep faster. *)
let miter_budget = 200

(* Conflict cap of each of the two solves of one node-pair proof.  A pair
   that needs more stays unmerged and is left to the final miter. *)
let pair_budget = 100

(* 64-pattern random words behind the node signatures. *)
let signature_words = 8

let equal_outputs a b ~inputs =
  Eval.eval a ~inputs ~keys:[||] = Eval.eval b ~inputs ~keys:[||]

(* A circuit compiled for one call, with simulation and literal buffers
   owned by that call.  Its ternary state marks the constant and dead
   nodes, which the encoder folds and skips. *)
type side = { p : Compiled.t; s : Compiled.scratch }

let side c =
  let p = Compiled.compile c in
  let s = Compiled.scratch p in
  Compiled.constants_into p s;
  { p; s }

(* Whether node [i] has a literal: constant and dead nodes have none. *)
let encoded x i = Compiled.tern_val x.s i = 2 && Compiled.is_live x.s i

let simulate x words = Compiled.eval_lanes_into x.p x.s ~inputs:words ~keys:[||]

let bit w l = Int64.logand (Int64.shift_right_logical w l) 1L = 1L

let random_counterexample ~samples a b =
  let g = Prng.create 0x5EED in
  let words = Array.make a.p.Compiled.num_inputs 0L in
  let rec first_diff o =
    if o >= a.p.Compiled.num_outputs then None
    else
      let w =
        Int64.logxor (Compiled.output_lanes a.p a.s o) (Compiled.output_lanes b.p b.s o)
      in
      if w <> 0L then Some w else first_diff (o + 1)
  in
  let rec round r =
    if r >= samples then None
    else begin
      Array.iteri (fun i _ -> words.(i) <- Prng.bits64 g) words;
      simulate a words;
      simulate b words;
      match first_diff 0 with
      | None -> round (r + 1)
      | Some w ->
          let rec lane l = if bit w l then l else lane (l + 1) in
          let l = lane 0 in
          Some (Array.map (fun x -> bit x l) words)
    end
  in
  round 0

(* ------------------------------------------------------------------ *)
(* The decider                                                          *)
(* ------------------------------------------------------------------ *)

exception Out_of_conflicts

type decider = {
  solver : Solver.t;
  env : Tseitin.env;
  input_lits : Lit.t array;
  limit : int;  (** the caller's bound on the total conflicts; 0 = none *)
}

let conflicts d = (Solver.stats d.solver).Solver.conflicts

(* One solve under [assumptions], stopped after [cap] more conflicts and
   always at the caller's total limit.  [None]: the cap ran out first.
   Every phase runs in the same solver, so its conflict counter is the
   total [check_bounded] bounds. *)
let solve ?cap d assumptions =
  Tel.Metric.incr m_solves;
  let bound =
    match cap with
    | None -> d.limit
    | Some c ->
        let b = conflicts d + c in
        if d.limit > 0 then min b d.limit else b
  in
  match Solver.solve ~assumptions ~conflict_limit:bound d.solver with
  | r -> Some r
  | exception Solver.Conflict_limit ->
      if d.limit > 0 && conflicts d >= d.limit then raise Out_of_conflicts else None

let model d = Array.map (Solver.value d.solver) d.input_lits

(* Asserts that some output pair differs (only while [act] holds, when
   given); false, asserting nothing, when the encodings already coincide
   on every output. *)
let add_miter d ?act a b =
  let diffs = ref [] in
  Array.iter2
    (fun la lb -> if la <> lb then diffs := Tseitin.mk_xor d.env [| la; lb |] :: !diffs)
    (Tseitin.output_lits d.env a.p a.s)
    (Tseitin.output_lits d.env b.p b.s);
  if !diffs = [] then false
  else begin
    let guard = match act with Some l -> [ Lit.negate l ] | None -> [] in
    Solver.add_clause d.solver (guard @ List.rev !diffs);
    true
  end

(* Node signatures: a hash of each node's simulation words, normalised so
   that a node and its complement hash alike; [phase] holds the node's
   value on the first pattern, i.e. whether its words were complemented. *)
type signatures = { hash : int array; phase : Bytes.t }

let signatures x =
  let n = x.p.Compiled.num_nodes in
  { hash = Array.make n 0; phase = Bytes.make n '\000' }

let mix h x =
  let h = (h lxor x) * 0x1F3779B97F4A7C15 in
  h lxor (h lsr 29)

(* Fold the words of the last simulation into the signatures. *)
let absorb x sg ~first =
  let lanes = x.s.Compiled.lanes in
  for i = 0 to x.p.Compiled.num_nodes - 1 do
    let w = lanes.(i) in
    if first then Bytes.set sg.phase i (if bit w 0 then '\001' else '\000');
    let flip = Bytes.get sg.phase i = '\001' in
    let lo = Int64.to_int w and hi = Int64.to_int (Int64.shift_right_logical w 63) in
    let lo = if flip then lnot lo else lo and hi = if flip then hi lxor 1 else hi in
    sg.hash.(i) <- mix (mix sg.hash.(i) lo) hi
  done

(* SAT sweeping: walk [b] in topological order, re-encoding every node
   over its fanins' current literals; a node whose signature matches an
   [a] node's (up to complement) is proved equal to it by two capped
   assumption solves and then takes over [a]'s literal, so later gates
   hash onto [a]'s encoding.  A refuted pair's input model is simulated
   before the next proof, which splits the classes.  [b]
   nodes whose literal already lies in [a]'s encoding ([a_vars]) are
   [a]'s own logic and need no proof. *)
let sweep d ~a_vars a b =
  let sa = signatures a and sb = signatures b in
  let g = Prng.create 0x5EEB in
  let words = Array.make a.p.Compiled.num_inputs 0L in
  let simulate_words ~first =
    simulate a words;
    simulate b words;
    absorb a sa ~first;
    absorb b sb ~first
  in
  for w = 0 to signature_words - 1 do
    Array.iteri (fun i _ -> words.(i) <- Prng.bits64 g) words;
    simulate_words ~first:(w = 0)
  done;
  (* signature hash -> first [a] node carrying it *)
  let classes = Hashtbl.create (2 * a.p.Compiled.num_nodes) in
  let index () =
    Hashtbl.reset classes;
    for j = a.p.Compiled.num_nodes - 1 downto 0 do
      if encoded a j then Hashtbl.replace classes sa.hash.(j) j
    done
  in
  index ();
  (* The input model of the last refutation.  It is simulated, in lane 0
     of a word whose other lanes are fresh random patterns, right before
     the next proof, so a class it splits is not proved again. *)
  let pending = ref None in
  let refute () =
    Tel.Metric.incr m_refuted;
    pending := Some (model d)
  in
  let rec candidate i =
    match (Hashtbl.find_opt classes sb.hash.(i), !pending) with
    | Some _, Some cex ->
        pending := None;
        Array.iteri
          (fun k v -> words.(k) <- Int64.logor (Int64.logand (Prng.bits64 g) (-2L)) (if v then 1L else 0L))
          cex;
        simulate_words ~first:false;
        index ();
        candidate i
    | c, _ -> c
  in
  let la = a.s.Compiled.lits and lb = b.s.Compiled.lits in
  for i = 0 to b.p.Compiled.num_nodes - 1 do
    if b.p.Compiled.op.(i) <> Compiled.op_input && encoded b i then begin
      let l = Tseitin.encode_node d.env b.p b.s ~input_lits:d.input_lits ~key_lits:[||] i in
      lb.(i) <- l;
      match candidate i with
      | None -> ()
      | Some j ->
          let target =
            if Bytes.get sa.phase j = Bytes.get sb.phase i then la.(j) else Lit.negate la.(j)
          in
          if Lit.var l >= a_vars && l <> target && l <> Lit.negate target then
            match solve ~cap:pair_budget d [ l; Lit.negate target ] with
            | Some Solver.Sat -> refute ()
            | None -> ()
            | Some Solver.Unsat -> (
                match solve ~cap:pair_budget d [ Lit.negate l; target ] with
                | Some Solver.Sat -> refute ()
                | None -> ()
                | Some Solver.Unsat ->
                    Tel.Metric.incr m_merged;
                    Tseitin.force_equal d.env l target;
                    lb.(i) <- target)
    end
  done

let sat_decide ?seed ?(conflict_limit = 0) a b =
  let solver = Solver.create ?seed ~simp:false () in
  let env = Tseitin.create solver in
  let d =
    {
      solver;
      env;
      input_lits = Tseitin.fresh_lits env a.p.Compiled.num_inputs;
      limit = conflict_limit;
    }
  in
  let encode x =
    ignore (Tseitin.encode_program env x.p x.s ~input_lits:d.input_lits ~key_lits:[||])
  in
  encode a;
  let a_vars = Solver.num_vars solver in
  encode b;
  let decide ?cap assumptions =
    match solve ?cap d assumptions with
    | Some Solver.Unsat -> Some `Equivalent
    | Some Solver.Sat -> Some (`Counterexample (model d))
    | None -> None
  in
  (* The plain miter first, behind [act] so that it can be retired once
     its budget runs out; the clauses it learnt stay valid. *)
  let act = (Tseitin.fresh_lits env 1).(0) in
  if not (add_miter d ~act a b) then `Equivalent
  else
    match decide ~cap:miter_budget [ act ] with
    | Some v -> v
    | None ->
        Solver.add_clause solver [ Lit.negate act ];
        Tel.with_span "equiv.sweep" (fun () -> sweep d ~a_vars a b);
        if not (add_miter d a b) then `Equivalent else Option.get (decide [])

let validate_pair name a b =
  if Circuit.num_keys a > 0 || Circuit.num_keys b > 0 then
    invalid_arg (name ^ ": circuits must be key-free");
  if
    Circuit.num_inputs a <> Circuit.num_inputs b
    || Circuit.num_outputs a <> Circuit.num_outputs b
  then invalid_arg (name ^ ": signature mismatch")

let check ?seed ?(samples = 8) a b =
  validate_pair "Equiv.check" a b;
  let a = side a and b = side b in
  match random_counterexample ~samples a b with
  | Some cex -> Counterexample cex
  | None -> (
      match sat_decide ?seed a b with
      | `Equivalent -> Equivalent
      | `Counterexample cex -> Counterexample cex)

type bounded_verdict = Proved_equivalent | Refuted of bool array | Unknown

let check_bounded ?seed ?(samples = 8) ~conflict_limit a b =
  validate_pair "Equiv.check_bounded" a b;
  let a = side a and b = side b in
  match random_counterexample ~samples a b with
  | Some cex -> Refuted cex
  | None -> (
      match sat_decide ?seed ~conflict_limit a b with
      | `Equivalent -> Proved_equivalent
      | `Counterexample cex -> Refuted cex
      | exception Out_of_conflicts -> Unknown)
