(* Preprocessing / inprocessing over the flat clause arena, in the
   SatELite / MiniSAT-SimpSolver tradition.  See the .mli for the
   division of labour: this module owns occurrence lists, signatures,
   subsumption, bounded variable elimination and vivification; every
   clause mutation goes back through the host callbacks so the solver's
   watches, reasons, trail and proof log stay consistent.

   Occurrence lists are variable-indexed (both polarities share a list)
   and rebuilt from scratch each session — arena compaction between
   sessions relocates crefs, so persisting them would buy nothing.
   Removed clauses are only marked dead; occurrence entries and the
   solver's clause vectors are purged lazily ([live] checks) and at
   session end respectively. *)

type stats = {
  mutable subsumed : int;
  mutable self_subsumed : int;
  mutable eliminated_vars : int;
  mutable vivified : int;
  mutable removed_satisfied : int;
  mutable strengthened_lits : int;
  mutable sessions : int;
}

type config = {
  session_growth : int;
  session_min_conflicts : int;
  subsumption_budget : int;
  subsume_occ_limit : int;
  bve_grow : int;
  bve_max_occ : int;
  bve_max_clause : int;
  vivify_budget : int;
  vivify_max_clauses : int;
  inprocess_interval : int;
}

let default_config =
  {
    session_growth = 5;
    session_min_conflicts = 100;
    subsumption_budget = 2_000_000;
    subsume_occ_limit = 30;
    bve_grow = 0;
    bve_max_occ = 60;
    bve_max_clause = 24;
    vivify_budget = 30_000;
    vivify_max_clauses = 64;
    inprocess_interval = 8;
  }

type host = {
  nvars : int;
  ar : Arena.t;
  clauses : int Vec.t;
  learnts : int Vec.t;
  value : Lit.t -> int;
  frozen : int -> bool;
  assigned : int -> bool;
  proof : bool;
  solver_ok : unit -> bool;
  trail_size : unit -> int;
  trail_lit : int -> Lit.t;
  remove_clause : int -> unit;
  strengthen_clause : int -> Lit.t -> unit;
  replace_clause : int -> Lit.t array -> unit;
  add_resolvent : Lit.t array -> int -> int -> int;
  eliminate_var : int -> unit;
  detach_clause : int -> unit;
  attach_clause : int -> unit;
  assume : Lit.t -> unit;
  propagate_ok : unit -> bool;
  backtrack : unit -> unit;
  propagation_count : unit -> int;
}

type t = {
  stats : stats;
  mutable occs : int Vec.t array;  (* per variable: problem crefs containing it *)
  queue : int Vec.t;
      (* subsumption work queue of crefs; a queued clause carries the
         arena's queue bit *)
  mutable qhead : int;
  touched : int Vec.t;  (* BVE candidate variables *)
  mutable touched_mark : Bytes.t;
  mutable lit_mark : int array;  (* per literal, for resolvent merging *)
  mutable mark_gen : int;
  snap : int Vec.t;
      (* occurrence-list snapshots, as a stack: a scan copies the list it
         walks onto the top, since the clause changes it triggers edit the
         list, and scans nest (strengthening catches up on new units) *)
  pos : int Vec.t;  (* try_eliminate: live clauses with [pos v] *)
  neg : int Vec.t;  (* try_eliminate: live clauses with [neg v] *)
  mutable res_buf : Lit.t array;  (* try_eliminate: resolvents, back to back *)
  res_ofs : int Vec.t;  (* start of each resolvent in [res_buf] *)
  mutable elim : int Vec.t;  (* eliminated-clause stack (see extend_model) *)
  mutable elim_frozen : int array list;
      (* older part of the stack, newest chunk first: what the stack held
         at each earlier [copy].  Never written again, so a copy shares
         it; a chunk holds whole frames. *)
  mutable budget : int;
  mutable processed_trail : int;
  mutable viv_cursor : int;  (* rotating start into the problem-clause vector *)
}

let create () =
  {
    stats =
      {
        subsumed = 0;
        self_subsumed = 0;
        eliminated_vars = 0;
        vivified = 0;
        removed_satisfied = 0;
        strengthened_lits = 0;
        sessions = 0;
      };
    occs = Array.init 64 (fun _ -> Vec.create ~dummy:Arena.no_cref);
    queue = Vec.create ~dummy:Arena.no_cref;
    qhead = 0;
    touched = Vec.create ~dummy:(-1);
    touched_mark = Bytes.make 64 '\000';
    lit_mark = Array.make 128 0;
    mark_gen = 0;
    snap = Vec.create ~dummy:Arena.no_cref;
    pos = Vec.create ~dummy:Arena.no_cref;
    neg = Vec.create ~dummy:Arena.no_cref;
    res_buf = Array.make 256 0;
    res_ofs = Vec.create ~dummy:0;
    elim = Vec.create ~dummy:0;
    elim_frozen = [];
    budget = 0;
    processed_trail = 0;
    viv_cursor = 0;
  }

(* Only the state that outlives a session is copied: the statistics,
   the eliminated-clause stack and the cursors.  The occurrence lists, queues and buffers are
   scratch that every session rebuilds, so the copy starts them empty.
   [lit_mark] may start zeroed because the next generation is
   [mark_gen + 1 >= 1].  The stack is the bulk of the state; it is
   frozen into a chunk both engines share instead of being copied. *)
let copy t =
  if Vec.length t.elim > 0 then begin
    t.elim_frozen <- Array.init (Vec.length t.elim) (Vec.get t.elim) :: t.elim_frozen;
    t.elim <- Vec.create ~dummy:0
  end;
  {
    (create ()) with
    stats = { t.stats with subsumed = t.stats.subsumed };
    elim_frozen = t.elim_frozen;
    mark_gen = t.mark_gen;
    budget = t.budget;
    processed_trail = t.processed_trail;
    viv_cursor = t.viv_cursor;
  }

let stats t = t.stats

let ensure_capacity t nvars =
  if Array.length t.occs < nvars then begin
    let n = max nvars (2 * Array.length t.occs) in
    let fresh = Array.init n (fun _ -> Vec.create ~dummy:Arena.no_cref) in
    Array.blit t.occs 0 fresh 0 (Array.length t.occs);
    t.occs <- fresh
  end;
  if Bytes.length t.touched_mark < nvars then
    t.touched_mark <- Bytes.make (max nvars (2 * Bytes.length t.touched_mark)) '\000';
  if Array.length t.lit_mark < 2 * nvars then
    t.lit_mark <- Array.make (max (2 * nvars) (2 * Array.length t.lit_mark)) 0

let live host c = not (Arena.marked host.ar c)

let touch t v =
  if Bytes.get t.touched_mark v = '\000' then begin
    Bytes.set t.touched_mark v '\001';
    Vec.push t.touched v
  end

let touch_clause t host c =
  let n = Arena.size host.ar c in
  for k = 0 to n - 1 do
    touch t (Lit.var (Arena.lit host.ar c k))
  done

let occ_remove t v c =
  let ws = t.occs.(v) in
  let n = Vec.length ws in
  let i = ref 0 in
  while !i < n && Vec.unsafe_get ws !i <> c do
    incr i
  done;
  if !i < n then begin
    Vec.unsafe_set ws !i (Vec.get ws (n - 1));
    ignore (Vec.pop ws)
  end

(* Signatures of the problem clauses in the occurrence lists live in the
   arena ({!Arena.store_signature}): stored when a session indexes the
   clause, refreshed whenever the session strengthens it.  The
   subsumption filter reads one per candidate pair, so it must be a flat
   read, not a lookup. *)
let signature host c = Arena.stored_signature host.ar c

let enqueue_subsume t host c =
  if not (Arena.queued host.ar c) then begin
    Arena.set_queued host.ar c true;
    Vec.push t.queue c
  end

(* Push a snapshot of [ws] onto the [snap] stack; returns its base.  The
   caller reads entries [base ..] and pops with [Vec.shrink t.snap base]. *)
let push_snapshot t ws =
  let base = Vec.length t.snap in
  for i = 0 to Vec.length ws - 1 do
    Vec.push t.snap (Vec.unsafe_get ws i)
  done;
  base

(* --- Root-value clause cleanup --- *)

(* Remove the clause if some literal is root-true, strip every root-false
   literal otherwise.  [in_occs] says whether the clause is a problem
   clause registered in the occurrence lists (strengthening must then
   unregister the removed literal's variable).  Returns true if the
   clause changed (and survived). *)
let strip_clause t host c ~in_occs =
  let ar = host.ar in
  let sat = ref false in
  let n = Arena.size ar c in
  let k = ref 0 in
  while (not !sat) && !k < n do
    if host.value (Arena.lit ar c !k) = 1 then sat := true;
    incr k
  done;
  if !sat then begin
    if in_occs then touch_clause t host c;
    host.remove_clause c;
    t.stats.removed_satisfied <- t.stats.removed_satisfied + 1;
    false
  end
  else begin
    let changed = ref false in
    let k = ref 0 in
    while live host c && !k < Arena.size ar c do
      let l = Arena.lit ar c !k in
      if host.value l = 0 then begin
        host.strengthen_clause c l;
        t.stats.strengthened_lits <- t.stats.strengthened_lits + 1;
        changed := true;
        if in_occs then occ_remove t (Lit.var l) c;
        touch t (Lit.var l)
        (* do not advance k: the last literal was swapped into place *)
      end
      else incr k
    done;
    if !changed && in_occs && live host c then Arena.store_signature ar c;
    !changed && live host c
  end

(* Process root assignments made since the last call (units produced by
   strengthening, resolvent addition or vivification), using the
   occurrence lists to find every problem clause they satisfy or
   shorten. *)
let catch_up t host =
  while host.solver_ok () && t.processed_trail < host.trail_size () do
    let l = host.trail_lit t.processed_trail in
    t.processed_trail <- t.processed_trail + 1;
    (* snapshot: strip_clause mutates this list via occ_remove *)
    let base = push_snapshot t t.occs.(Lit.var l) in
    for i = base to Vec.length t.snap - 1 do
      let c = Vec.get t.snap i in
      if live host c then
        if strip_clause t host c ~in_occs:true then enqueue_subsume t host c
    done;
    Vec.shrink t.snap base
  done

(* --- Subsumption & self-subsuming resolution --- *)

(* Does clause [c] subsume [d], possibly after flipping one literal?
   Returns [-1] when [c] is a plain subset of [d]; a literal [l] of [c]
   when [c] matches [d] except that [negate l] appears in [d] (so [d] can
   be strengthened by removing [negate l], the resolvent of [c] and [d]
   on [l]); [-2] otherwise. *)
let subsume_check t host c d =
  (* Mark-based subset test in O(|c| + |d|): stamp [c]'s literals under a
     fresh generation, then scan [d] once counting direct and negated
     hits.  The budget charge (|c| + |d|) matches the actual work, so the
     per-session budget bounds wall time honestly — the naive nested-loop
     check did |c|·|d| comparisons per candidate pair, which let
     identical-signature candidate sets (e.g. model-blocking clauses over
     the same input variables) burn an order of magnitude more time than
     the budget accounted for. *)
  let ar = host.ar in
  let nc = Arena.size ar c and nd = Arena.size ar d in
  t.budget <- t.budget - nc - nd;
  if nc > nd then -2
  else begin
    t.mark_gen <- t.mark_gen + 1;
    let gen = t.mark_gen in
    for k = 0 to nc - 1 do
      t.lit_mark.(Arena.lit ar c k) <- gen
    done;
    let hits = ref 0 and flips = ref 0 and flip = ref (-1) in
    for j = 0 to nd - 1 do
      let ld = Arena.lit ar d j in
      if t.lit_mark.(ld) = gen then incr hits
      else if t.lit_mark.(Lit.negate ld) = gen then begin
        incr flips;
        flip := Lit.negate ld
      end
    done;
    if !hits = nc then -1
    else if !hits = nc - 1 && !flips = 1 then !flip
    else -2
  end

let remove_subsumed t host d =
  touch_clause t host d;
  host.remove_clause d;
  t.stats.subsumed <- t.stats.subsumed + 1

(* Strengthen [d] by removing [negate l] (self-subsuming resolution). *)
let strengthen_by t host d l =
  host.strengthen_clause d (Lit.negate l);
  if live host d then Arena.store_signature host.ar d;
  t.stats.self_subsumed <- t.stats.self_subsumed + 1;
  occ_remove t (Lit.var l) d;
  touch t (Lit.var l);
  catch_up t host;
  if live host d then enqueue_subsume t host d

let best_var t host c =
  let ar = host.ar in
  let n = Arena.size ar c in
  let best = ref (Lit.var (Arena.lit ar c 0)) in
  for k = 1 to n - 1 do
    let v = Lit.var (Arena.lit ar c k) in
    if Vec.length t.occs.(v) < Vec.length t.occs.(!best) then best := v
  done;
  !best

(* Forward: find an existing clause subsuming (or strengthening) the
   queued clause [c].  A subsumer's variables are a subset of [c]'s, so
   scanning the occurrence lists of all of [c]'s variables is complete. *)
let forward_step t host c =
  let ar = host.ar in
  let sc = signature host c in
  let k = ref 0 in
  (* re-read the size: strengthen_by shrinks [c] in place mid-loop *)
  while live host c && !k < Arena.size ar c && t.budget > 0 do
    let v = Lit.var (Arena.lit ar c !k) in
    let ws = t.occs.(v) in
    (* Over-shared variables are skipped (see [subsume_occ_limit]): the
       scan is only a heuristic completeness/cost trade, and a candidate
       missed here is still found when IT is queued and runs backward. *)
    if Vec.length ws <= default_config.subsume_occ_limit then begin
      (* snapshot: strengthenings triggered below mutate this list *)
      let base = push_snapshot t ws in
      let top = Vec.length t.snap in
      t.budget <- t.budget - (top - base);
      let i = ref base in
      while live host c && !i < top do
        let d = Vec.get t.snap !i in
        incr i;
        if
          d <> c
          && live host d
          && Arena.size ar d <= Arena.size ar c
          && signature host d land lnot sc = 0
        then begin
          let r = subsume_check t host d c in
          if r = -1 then remove_subsumed t host c
          else if r >= 0 then strengthen_by t host c r
        end
      done;
      Vec.shrink t.snap base
    end;
    incr k
  done

(* Backward: [c] subsumes or strengthens existing clauses.  Any clause
   [c] subsumes contains every variable of [c], so one occurrence list —
   the shortest — is a complete candidate set. *)
let backward_step t host c =
  let ar = host.ar in
  let sc = signature host c in
  let b = best_var t host c in
  let ws = t.occs.(b) in
  if Vec.length ws <= default_config.subsume_occ_limit then begin
    (* snapshot: removals and strengthenings mutate the list *)
    let base = push_snapshot t ws in
    let top = Vec.length t.snap in
    t.budget <- t.budget - (top - base);
    let i = ref base in
    while live host c && !i < top && t.budget > 0 do
      let d = Vec.get t.snap !i in
      incr i;
      if
        d <> c
        && live host d
        && Arena.size ar d >= Arena.size ar c
        && sc land lnot (signature host d) = 0
      then begin
        let r = subsume_check t host c d in
        if r = -1 then remove_subsumed t host d else if r >= 0 then strengthen_by t host d r
      end
    done;
    Vec.shrink t.snap base
  end

let drain_queue t host =
  while host.solver_ok () && t.budget > 0 && t.qhead < Vec.length t.queue do
    let c = Vec.get t.queue t.qhead in
    t.qhead <- t.qhead + 1;
    Arena.set_queued host.ar c false;
    catch_up t host;
    if live host c then begin
      forward_step t host c;
      if live host c then backward_step t host c
    end
  done

(* --- Bounded variable elimination --- *)

(* Eliminated-clause stack frame: the pivot literal first, the rest of
   the clause, then the length — decoded backwards by [extend_model]. *)
let push_elim_frame t host c ~pivot =
  let ar = host.ar in
  let n = Arena.size ar c in
  Vec.push t.elim pivot;
  for k = 0 to n - 1 do
    let l = Arena.lit ar c k in
    if l <> pivot then Vec.push t.elim l
  done;
  Vec.push t.elim n

(* Resolve [p] (containing [pos v]) with [q] (containing [neg v]),
   appending the resolvent to [res_buf] at [top] (the buffer has room for
   [|p| + |q|] more literals).  Returns the resolvent's length, or [-1] on
   a tautology or when the merged clause exceeds the length limit. *)
let merge_resolvent t host p q v ~top =
  let ar = host.ar in
  t.mark_gen <- t.mark_gen + 1;
  let gen = t.mark_gen in
  let buf = t.res_buf in
  let count = ref 0 in
  let np = Arena.size ar p in
  for k = 0 to np - 1 do
    let l = Arena.lit ar p k in
    if Lit.var l <> v then begin
      t.lit_mark.(l) <- gen;
      buf.(top + !count) <- l;
      incr count
    end
  done;
  let taut = ref false in
  let nq = Arena.size ar q in
  let k = ref 0 in
  while (not !taut) && !k < nq do
    let l = Arena.lit ar q !k in
    if Lit.var l <> v then
      if t.lit_mark.(Lit.negate l) = gen then taut := true
      else if t.lit_mark.(l) <> gen then begin
        t.lit_mark.(l) <- gen;
        buf.(top + !count) <- l;
        incr count
      end;
    incr k
  done;
  if !taut || !count > default_config.bve_max_clause then -1 else !count

(* Sort the live occurrences of [v] into [t.pos] / [t.neg] by polarity;
   false when one is longer than [bve_max_clause] (no elimination). *)
let split_occurrences t host v =
  let ar = host.ar in
  Vec.clear t.pos;
  Vec.clear t.neg;
  let ws = t.occs.(v) in
  let fits = ref true in
  let i = ref 0 in
  while !fits && !i < Vec.length ws do
    let c = Vec.get ws !i in
    incr i;
    if live host c then begin
      let n = Arena.size ar c in
      if n > default_config.bve_max_clause then fits := false
      else begin
        let polarity = ref (-1) in
        for k = 0 to n - 1 do
          let l = Arena.lit ar c k in
          if Lit.var l = v then polarity := l land 1
        done;
        if !polarity = 0 then Vec.push t.pos c else if !polarity = 1 then Vec.push t.neg c
      end
    end
  done;
  !fits

let remove_occurrences t host vec =
  for i = 0 to Vec.length vec - 1 do
    let c = Vec.get vec i in
    touch_clause t host c;
    host.remove_clause c
  done

let try_eliminate t host v =
  if
    (not (host.frozen v))
    && (not (host.assigned v))
    && t.budget > 0
    && host.solver_ok ()
  then begin
    let ar = host.ar in
    t.budget <- t.budget - Vec.length t.occs.(v);
    let fits = split_occurrences t host v in
    let npos = Vec.length t.pos and nneg = Vec.length t.neg in
    if fits && (npos > 0 || nneg > 0) && npos <= default_config.bve_max_occ
       && nneg <= default_config.bve_max_occ
    then begin
      (* Count (and build) non-tautological resolvents; abort on growth. *)
      let limit = npos + nneg + default_config.bve_grow in
      Vec.clear t.res_ofs;
      let top = ref 0 in
      let aborted = ref false in
      let i = ref 0 in
      while (not !aborted) && !i < npos * nneg do
        let p = Vec.get t.pos (!i / nneg) and q = Vec.get t.neg (!i mod nneg) in
        incr i;
        let np = Arena.size ar p and nq = Arena.size ar q in
        t.budget <- t.budget - np - nq;
        if !top + np + nq > Array.length t.res_buf then begin
          let fresh = Array.make (max (!top + np + nq) (2 * Array.length t.res_buf)) 0 in
          Array.blit t.res_buf 0 fresh 0 !top;
          t.res_buf <- fresh
        end;
        let len = merge_resolvent t host p q v ~top:!top in
        if len >= 0 then begin
          if Vec.length t.res_ofs >= limit then aborted := true
          else begin
            Vec.push t.res_ofs !top;
            top := !top + len
          end
        end
        else if np + nq - 2 > default_config.bve_max_clause then
          (* over-long resolvents veto the elimination; tautologies just
             don't count *)
          aborted := true
      done;
      if not !aborted then begin
        (* Commit: record clauses for model extension, drop them, mark the
           variable, distribute the resolvents. *)
        Vec.iter (fun c -> push_elim_frame t host c ~pivot:(Lit.pos v)) t.pos;
        Vec.iter (fun c -> push_elim_frame t host c ~pivot:(Lit.neg v)) t.neg;
        host.eliminate_var v;
        t.stats.eliminated_vars <- t.stats.eliminated_vars + 1;
        remove_occurrences t host t.pos;
        remove_occurrences t host t.neg;
        let nres = Vec.length t.res_ofs in
        for r = 0 to nres - 1 do
          let ofs = Vec.get t.res_ofs r in
          let len = (if r + 1 < nres then Vec.get t.res_ofs (r + 1) else !top) - ofs in
          let cref = host.add_resolvent t.res_buf ofs len in
          if cref >= 0 then begin
            let n = Arena.size ar cref in
            for k = 0 to n - 1 do
              let u = Lit.var (Arena.lit ar cref k) in
              Vec.push t.occs.(u) cref;
              touch t u
            done;
            Arena.store_signature ar cref;
            enqueue_subsume t host cref
          end
        done;
        catch_up t host
      end
    end
  end

(* The touched set in ascending variable order; clears it for the next
   generation. *)
let take_touched t =
  let cands = Array.make (Vec.length t.touched) 0 in
  for i = 0 to Vec.length t.touched - 1 do
    let v = Vec.get t.touched i in
    cands.(i) <- v;
    Bytes.set t.touched_mark v '\000'
  done;
  Vec.clear t.touched;
  Array.sort Int.compare cands;
  cands

let bve_sweep t host ~all =
  (* Candidate generations: the touched set (or every variable on the
     first session, when the touched set carries over into the second
     generation), swept in ascending variable order; eliminations touch
     neighbouring variables, which feed the next generation. *)
  let next = ref (if all then Array.init host.nvars Fun.id else take_touched t) in
  let rounds = ref 0 in
  while Array.length !next > 0 && t.budget > 0 && host.solver_ok () && !rounds < 8 do
    incr rounds;
    Array.iter (fun v -> try_eliminate t host v) !next;
    next := take_touched t
  done

(* --- Session driver --- *)

let session t host ~new_from =
  t.stats.sessions <- t.stats.sessions + 1;
  ensure_capacity t host.nvars;
  Vec.clear t.queue;
  Vec.clear t.snap;
  t.qhead <- 0;
  Vec.clear t.touched;
  Bytes.fill t.touched_mark 0 (Bytes.length t.touched_mark) '\000';
  t.budget <- default_config.subsumption_budget;
  for v = 0 to host.nvars - 1 do
    Vec.clear t.occs.(v)
  done;
  let ar = host.ar in
  Vec.iter
    (fun c ->
      if live host c then begin
        let n = Arena.size ar c in
        for k = 0 to n - 1 do
          Vec.push t.occs.(Lit.var (Arena.lit ar c k)) c
        done;
        Arena.store_signature ar c
      end)
    host.clauses;
  (* Existing root assignments are handled by the full strip below; only
     assignments made from here on need occurrence-driven catch-up. *)
  t.processed_trail <- host.trail_size ();
  (* Learnt clauses are stripped but never enter the subsumption queue: a
     learnt that subsumed a problem clause would carry load-bearing
     constraints, yet variable elimination purges learnts wholesale —
     problem-clause removal must only ever be justified by other problem
     clauses (MiniSAT SimpSolver keeps learnts out of subsumption for the
     same reason). *)
  let strip_vec vec ~in_occs =
    let n = Vec.length vec in
    let i = ref 0 in
    while host.solver_ok () && !i < n do
      let c = Vec.get vec !i in
      incr i;
      if live host c then
        if strip_clause t host c ~in_occs && in_occs then enqueue_subsume t host c
    done
  in
  strip_vec host.clauses ~in_occs:true;
  strip_vec host.learnts ~in_occs:false;
  catch_up t host;
  if host.solver_ok () then begin
    let n = Vec.length host.clauses in
    for i = new_from to n - 1 do
      let c = Vec.get host.clauses i in
      if live host c then enqueue_subsume t host c
    done;
    drain_queue t host;
    if not host.proof then begin
      bve_sweep t host ~all:(new_from = 0);
      drain_queue t host
    end
  end;
  (* Clear the queue bits of clauses left queued when the budget ran
     out. *)
  for i = t.qhead to Vec.length t.queue - 1 do
    Arena.set_queued ar (Vec.get t.queue i) false
  done;
  (* The next session rebuilds the occurrence lists from scratch; holding
     them until then only costs memory in every solver between
     sessions. *)
  t.occs <- [||]

(* --- Vivification --- *)

let vivify t host =
  if host.solver_ok () then begin
    let ar = host.ar in
    let p0 = host.propagation_count () in
    let within_budget () = host.propagation_count () - p0 < default_config.vivify_budget in
    let cand_ok c = live host c && Arena.size ar c >= 3 && Arena.size ar c <= 64 in
    (* High-activity learnt clauses first. *)
    let learnt_cands = Vec.create ~dummy:Arena.no_cref in
    Vec.iter (fun c -> if cand_ok c then Vec.push learnt_cands c) host.learnts;
    Vec.sort_in_place
      (fun a b ->
        let d = Float.compare (Arena.act ar b) (Arena.act ar a) in
        if d <> 0 then d else compare a b)
      learnt_cands;
    let cands = Vec.create ~dummy:Arena.no_cref in
    let nl = min (Vec.length learnt_cands) default_config.vivify_max_clauses in
    for i = 0 to nl - 1 do
      Vec.push cands (Vec.get learnt_cands i)
    done;
    (* Plus a rotating sample of problem clauses. *)
    let ncl = Vec.length host.clauses in
    if ncl > 0 then begin
      let want = default_config.vivify_max_clauses / 2 in
      let got = ref 0 and scanned = ref 0 in
      while !got < want && !scanned < ncl do
        let c = Vec.get host.clauses (t.viv_cursor mod ncl) in
        t.viv_cursor <- (t.viv_cursor + 1) mod ncl;
        incr scanned;
        if cand_ok c then begin
          Vec.push cands c;
          incr got
        end
      done
    end;
    let keep = Vec.create ~dummy:0 in
    let i = ref 0 in
    while !i < Vec.length cands && within_budget () && host.solver_ok () do
      let c = Vec.get cands !i in
      incr i;
      if live host c then begin
        let n = Arena.size ar c in
        (* Skip root-satisfied clauses (in particular reasons of root
           assignments, which must keep their propagated literal). *)
        let root_sat = ref false in
        for k = 0 to n - 1 do
          if host.value (Arena.lit ar c k) = 1 then root_sat := true
        done;
        if not !root_sat then begin
          host.detach_clause c;
          Vec.clear keep;
          let stop = ref false in
          let k = ref 0 in
          while (not !stop) && !k < n do
            let l = Arena.lit ar c !k in
            (match host.value l with
            | 1 ->
                (* true under the assumed prefix: the kept literals plus
                   [l] already form an implied clause *)
                Vec.push keep l;
                stop := true
            | 0 -> () (* false under the prefix: redundant literal *)
            | _ ->
                Vec.push keep l;
                if !k < n - 1 then begin
                  host.assume (Lit.negate l);
                  if not (host.propagate_ok ()) then
                    (* the assumed prefix is contradictory: its negation,
                       the kept literals, is an implied clause *)
                    stop := true
                end);
            incr k
          done;
          host.backtrack ();
          let kn = Vec.length keep in
          if kn < n && host.solver_ok () then begin
            t.stats.vivified <- t.stats.vivified + 1;
            host.replace_clause c (Array.init kn (Vec.get keep))
          end
          else host.attach_clause c
        end
      end
    done
  end

(* --- Restoring eliminated variables --- *)

(* The frames of a stack [get 0 .. get (len - 1)], oldest first, as
   (base, length) pairs: lengths live at frame ends, so decode backwards. *)
let frames get len =
  let acc = ref [] in
  let i = ref (len - 1) in
  while !i >= 0 do
    let n = get !i in
    let base = !i - n in
    acc := (base, n) :: !acc;
    i := base - 1
  done;
  !acc

let restore t ~var ~unelim ~readd =
  (* A frame of [var] in a frozen chunk: take the chunks back into the
     engine's own stack (rare — callers freeze what they re-mention). *)
  if
    List.exists
      (fun chunk ->
        List.exists
          (fun (base, _) -> Lit.var chunk.(base) = var)
          (frames (Array.get chunk) (Array.length chunk)))
      t.elim_frozen
  then begin
    let e = Vec.create ~dummy:0 in
    List.iter (Array.iter (Vec.push e)) (List.rev t.elim_frozen);
    Vec.iter (Vec.push e) t.elim;
    t.elim <- e;
    t.elim_frozen <- []
  end;
  let e = t.elim in
  let frames = frames (Vec.get e) (Vec.length e) in
  let rec find = function
    | [] -> None
    | (base, _) :: _ when Lit.var (Vec.get e base) = var -> Some base
    | _ :: rest -> find rest
  in
  match find frames with
  | None -> ()
  | Some start ->
      (* Restore the whole stack suffix: clauses of variables eliminated
         after [var] may mention it.  (The untouched prefix cannot — a
         frame only holds variables that were alive at its push time.)
         Un-eliminate every suffix pivot first so the re-adds see only
         active variables. *)
      let suffix = List.filter (fun (base, _) -> base >= start) frames in
      List.iter (fun (base, _) -> unelim (Lit.var (Vec.get e base))) suffix;
      List.iter
        (fun (base, n) -> readd (Array.init n (fun k -> Vec.get e (base + k))))
        suffix;
      Vec.shrink e start

(* --- Model extension --- *)

let extend_model t ~value ~set =
  (* Newest frames first: the engine's own stack, then the frozen chunks
     from newest to oldest. *)
  let replay get len =
    let i = ref (len - 1) in
    while !i >= 0 do
      let n = get !i in
      let base = !i - n in
      (* The frame satisfies MiniSAT's extension invariant: if every
         literal except the pivot (stored first) is false, the pivot must
         be made true; otherwise the clause is already satisfied by a
         surviving variable or a later-eliminated one. *)
      let others_false = ref true in
      for j = base + 1 to base + n - 1 do
        let l = get j in
        let v = value (Lit.var l) in
        if not (v >= 0 && v lxor (l land 1) = 0) then others_false := false
      done;
      let pivot = get base in
      if !others_false then set (Lit.var pivot) (1 lxor (pivot land 1))
      else if value (Lit.var pivot) < 0 then
        (* any value works for this clause; default the pivot literal to
           false so later (earlier-pushed) frames can still flip it *)
        set (Lit.var pivot) (pivot land 1);
      i := base - 1
    done
  in
  replay (Vec.get t.elim) (Vec.length t.elim);
  List.iter (fun chunk -> replay (Array.get chunk) (Array.length chunk)) t.elim_frozen
