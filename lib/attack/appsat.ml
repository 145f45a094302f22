module Circuit = Ll_netlist.Circuit
module Compiled = Ll_netlist.Compiled
module Bitvec = Ll_util.Bitvec
module Prng = Ll_util.Prng
module Timer = Ll_util.Timer
module Pool = Ll_runtime.Pool
module Tel = Ll_telemetry.Telemetry

let m_estimates = Tel.Metric.counter "appsat.error_estimates"

type result = {
  key : Bitvec.t option;
  estimated_error : float;
  exact : bool;
  num_dips : int;
  oracle_queries : int;
  total_time : float;
}

(* The sample budget is always cut into this many batches, each drawing
   from its own [Prng.split] stream (split in batch order).  The batch
   structure is fixed — independent of whether, and how wide, a pool is
   used — so the estimate is one deterministic number for a given [prng]
   state, serial or parallel. *)
let estimate_batches = 8

let estimate_error ?pool ~prng ~samples locked oracle key =
  let n_in = Circuit.num_inputs locked in
  let n_out = Circuit.num_outputs locked in
  let prog = Compiled.cached locked in
  let key_lanes =
    Array.init (Bitvec.length key) (fun i -> if Bitvec.get key i then -1L else 0L)
  in
  let per = (samples + estimate_batches - 1) / estimate_batches in
  let batches =
    Array.init estimate_batches (fun b ->
        (Prng.split prng, max 0 (min per (samples - (b * per)))))
  in
  (* Locked-circuit side runs 64 samples per packed kernel call; the draw
     order (sample-major) and the oracle query order are exactly those of
     the one-sample-at-a-time loop, so the estimate — and the oracle's
     query count — are unchanged. *)
  let count_bad (g, count) =
    let patterns = Array.init count (fun _ -> Array.init n_in (fun _ -> Prng.bool g)) in
    let lanes = Array.make n_in 0L in
    let scratch = Compiled.local_scratch prog in
    let bad = ref 0 in
    let base = ref 0 in
    while !base < count do
      let w = min 64 (count - !base) in
      for p = 0 to n_in - 1 do
        let word = ref 0L in
        for l = 0 to w - 1 do
          if patterns.(!base + l).(p) then
            word := Int64.logor !word (Int64.shift_left 1L l)
        done;
        lanes.(p) <- !word
      done;
      Compiled.eval_lanes_into prog scratch ~inputs:lanes ~keys:key_lanes;
      for l = 0 to w - 1 do
        let response = Oracle.query oracle patterns.(!base + l) in
        let ok = ref true in
        for o = 0 to n_out - 1 do
          let got =
            Int64.logand
              (Int64.shift_right_logical (Compiled.output_lanes prog scratch o) l)
              1L
            = 1L
          in
          if got <> response.(o) then ok := false
        done;
        if not !ok then incr bad
      done;
      base := !base + w
    done;
    !bad
  in
  Tel.Metric.incr m_estimates;
  Tel.with_span ~a0:samples "appsat.estimate" (fun () ->
      let bad =
        match pool with
        | None -> Array.fold_left (fun acc b -> acc + count_bad b) 0 batches
        | Some p ->
            Pool.map_array p (fun _ctx b -> count_bad b) batches
            |> Array.fold_left
                 (fun acc -> function
                   | Pool.Done n -> acc + n
                   | Pool.Cancelled -> acc
                   | Pool.Failed e -> raise e)
                 0
      in
      float_of_int bad /. float_of_int samples)

(* AppSAT is the exact DIP loop of {!Sat_attack} with one more stopping
   rule: at every [check_every]-DIP boundary, and at the iteration cap,
   the session's current candidate key is scored by sampling, and an
   estimate within [target_error] ends the attack with that key. *)
let run ?(prng = Prng.create 0xA99) ?(target_error = 0.01) ?(check_every = 5)
    ?(samples = 512) ?(max_iterations = 1000) ?pool locked ~oracle =
  if Circuit.num_keys locked = 0 then invalid_arg "Appsat.run: circuit has no keys";
  if check_every < 1 then invalid_arg "Appsat.run: check_every must be >= 1";
  if samples < 1 then invalid_arg "Appsat.run: samples must be >= 1";
  if max_iterations < 0 then invalid_arg "Appsat.run: max_iterations must be >= 0";
  let started = Timer.now () in
  let queries_before = Oracle.query_count oracle in
  (* A stopped session returns no key, so the hook keeps the last scored
     candidate and its estimate. *)
  let scored = ref (None, 1.0) in
  let last_dips = ref 0 in
  let stop (pg : Sat_attack.progress) =
    let boundary = pg.pg_dips / check_every > !last_dips / check_every in
    let capped = pg.pg_dips >= max_iterations in
    last_dips := pg.pg_dips;
    if not (boundary || capped) then false
    else begin
      let key = pg.pg_candidate () in
      let err =
        match key with
        | Some k -> estimate_error ?pool ~prng ~samples locked oracle k
        | None -> 1.0
      in
      scored := (key, err);
      capped || (key <> None && err <= target_error)
    end
  in
  let r =
    Sat_attack.run ~config:{ Sat_attack.default_config with stop = Some stop } locked ~oracle
  in
  let exact = r.Sat_attack.status = Sat_attack.Broken in
  let key, estimated_error = if exact then (r.Sat_attack.key, 0.0) else !scored in
  {
    key;
    estimated_error;
    exact;
    num_dips = r.Sat_attack.num_dips;
    oracle_queries = Oracle.query_count oracle - queries_before;
    total_time = Timer.now () -. started;
  }
