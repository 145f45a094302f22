module Timer = Ll_util.Timer
module J = Ll_telemetry.Trace_check

(* Per-attack progress model, fed by lightweight hooks in the attack
   engines and read by the live exposition layer (--watch, --stream).

   Every feeder is gated on one atomic load: with progress tracking off
   (the default) the hooks cost a flag check and a branch, and the
   attack's behaviour never depends on the tracker either way — the
   golden DIP sequences are byte-identical with tracking on or off.

   Cube accounting weighs each cube by the fraction of the input space
   it covers: a cube fixing [d] inputs weighs 2^-d.  Seed cubes sum to
   weight 1; a re-split replaces a stopped parent by two children of
   half its weight, so total weight stays 1 and [coverage] — solved
   weight over total weight — is the fraction of the input space whose
   cofactor attack has completed. *)

let enabled_flag = Atomic.make false

let enabled () = Atomic.get enabled_flag

(* EWMA time constant for the DIP rate: samples older than ~tau stop
   mattering.  Short enough to track phase changes (a cube engine moving
   from cheap to hard cofactors), long enough to smooth per-DIP jitter. *)
let rate_tau_s = 5.0

type state = {
  mutable started_ns : int;
  mutable dips : int;
  mutable imported : int;
  mutable key_bits : int;
  mutable last_dip_ns : int;
  mutable dip_rate : float;  (* EWMA dips/s *)
  mutable cubes_pending : int;
  mutable cubes_running : int;
  mutable cubes_solved : int;
  mutable cubes_stopped : int;
  mutable total_weight : float;
  mutable solved_weight : float;
}

let lock = Mutex.create ()

let st =
  {
    started_ns = 0;
    dips = 0;
    imported = 0;
    key_bits = 0;
    last_dip_ns = 0;
    dip_rate = 0.0;
    cubes_pending = 0;
    cubes_running = 0;
    cubes_solved = 0;
    cubes_stopped = 0;
    total_weight = 0.0;
    solved_weight = 0.0;
  }

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let reset () =
  locked (fun () ->
      let t = Timer.monotonic_ns () in
      st.started_ns <- t;
      st.dips <- 0;
      st.imported <- 0;
      st.key_bits <- 0;
      st.last_dip_ns <- t;
      st.dip_rate <- 0.0;
      st.cubes_pending <- 0;
      st.cubes_running <- 0;
      st.cubes_solved <- 0;
      st.cubes_stopped <- 0;
      st.total_weight <- 0.0;
      st.solved_weight <- 0.0)

let enable () =
  reset ();
  Atomic.set enabled_flag true

let disable () = Atomic.set enabled_flag false

(* ------------------------------------------------------------------ *)
(* Feeders (attack-side hooks)                                         *)
(* ------------------------------------------------------------------ *)

let add_dips k =
  if enabled () && k > 0 then
    locked (fun () ->
        let t = Timer.monotonic_ns () in
        let dt = float_of_int (t - st.last_dip_ns) /. 1e9 in
        if dt > 0.0 then begin
          let alpha = 1.0 -. exp (-.dt /. rate_tau_s) in
          let inst = float_of_int k /. dt in
          st.dip_rate <- st.dip_rate +. (alpha *. (inst -. st.dip_rate))
        end;
        st.last_dip_ns <- t;
        st.dips <- st.dips + k)

let add_imported k =
  if enabled () && k > 0 then locked (fun () -> st.imported <- st.imported + k)

let set_key_bits k =
  if enabled () then locked (fun () -> if k > st.key_bits then st.key_bits <- k)

let cube_weight depth = ldexp 1.0 (-depth)

let cube_created ~depth =
  if enabled () then
    locked (fun () ->
        st.cubes_pending <- st.cubes_pending + 1;
        st.total_weight <- st.total_weight +. cube_weight depth)

let cube_started ~depth:_ =
  if enabled () then
    locked (fun () ->
        if st.cubes_pending > 0 then st.cubes_pending <- st.cubes_pending - 1;
        st.cubes_running <- st.cubes_running + 1)

let cube_solved ~depth =
  if enabled () then
    locked (fun () ->
        if st.cubes_running > 0 then st.cubes_running <- st.cubes_running - 1;
        st.cubes_solved <- st.cubes_solved + 1;
        st.solved_weight <- st.solved_weight +. cube_weight depth)

(* A stopped cube hands its region to two children: its own weight
   leaves the total (the children's [cube_created] adds the same amount
   back), so total weight is invariant across re-splits. *)
let cube_stopped ~depth =
  if enabled () then
    locked (fun () ->
        if st.cubes_running > 0 then st.cubes_running <- st.cubes_running - 1;
        st.cubes_stopped <- st.cubes_stopped + 1;
        st.total_weight <- Float.max 0.0 (st.total_weight -. cube_weight depth))

(* ------------------------------------------------------------------ *)
(* View                                                                *)
(* ------------------------------------------------------------------ *)

type view = {
  v_elapsed_s : float;
  v_dips : int;
  v_imported : int;
  v_dip_rate : float;
  v_key_bits : int;
  v_keyspace_log2 : float;
  v_cubes_pending : int;
  v_cubes_running : int;
  v_cubes_solved : int;
  v_cubes_stopped : int;
  v_coverage : float;
  v_eta_s : float;
}

(* Remaining-key-space upper bound: every DIP constraint (local or
   imported) eliminates at least one wrong key, so at most
   2^K - constraints keys survive.  Reported as a log2 so 512-bit keys
   don't overflow; beyond 62 bits the subtraction is invisible in float
   anyway and K is returned unchanged. *)
let keyspace_log2 ~key_bits ~constraints =
  if key_bits <= 0 then -1.0
  else if key_bits > 62 then float_of_int key_bits
  else
    let total = Int64.shift_left 1L key_bits in
    let remaining = Int64.sub total (Int64.of_int constraints) in
    if Int64.compare remaining 1L <= 0 then 0.0
    else log (Int64.to_float remaining) /. log 2.0

let view () =
  locked (fun () ->
      let t = Timer.monotonic_ns () in
      let elapsed = float_of_int (t - st.started_ns) /. 1e9 in
      let coverage =
        if st.total_weight > 0.0 then
          Float.min 1.0 (st.solved_weight /. st.total_weight)
        else 0.0
      in
      (* Coverage-proportional ETA: if [coverage] of the input space took
         [elapsed], the rest takes elapsed * (1 - c) / c.  Meaningless
         before any cube finishes (-1). *)
      let eta =
        if coverage > 0.0 && coverage < 1.0 then
          elapsed *. (1.0 -. coverage) /. coverage
        else if coverage >= 1.0 then 0.0
        else -1.0
      in
      let constraints = st.dips + st.imported in
      {
        v_elapsed_s = elapsed;
        v_dips = st.dips;
        v_imported = st.imported;
        v_dip_rate = st.dip_rate;
        v_key_bits = st.key_bits;
        v_keyspace_log2 = keyspace_log2 ~key_bits:st.key_bits ~constraints;
        v_cubes_pending = st.cubes_pending;
        v_cubes_running = st.cubes_running;
        v_cubes_solved = st.cubes_solved;
        v_cubes_stopped = st.cubes_stopped;
        v_coverage = coverage;
        v_eta_s = eta;
      })

(* ------------------------------------------------------------------ *)
(* Renderers                                                           *)
(* ------------------------------------------------------------------ *)

let jsonl_line ?(t_ns = Timer.monotonic_ns ()) v =
  let int n = J.Num (float_of_int n) in
  J.to_line
    (J.Obj
       [
         ("type", J.Str "progress");
         ("t_ns", int t_ns);
         ("elapsed_s", J.Num v.v_elapsed_s);
         ("dips", int v.v_dips);
         (* One DIP per round, one constraint per DIP: [rounds] and
            [blocking_clauses] are [dips], [q] is 1. *)
         ("rounds", int v.v_dips);
         ("imported", int v.v_imported);
         ("blocking_clauses", int v.v_dips);
         ("q", int 1);
         ("dip_rate", J.Num v.v_dip_rate);
         ("key_bits", int v.v_key_bits);
         ("keyspace_log2", J.Num v.v_keyspace_log2);
         ( "cubes",
           J.Obj
             [
               ("pending", int v.v_cubes_pending);
               ("running", int v.v_cubes_running);
               ("solved", int v.v_cubes_solved);
               ("stopped", int v.v_cubes_stopped);
             ] );
         ("coverage", J.Num v.v_coverage);
         ("eta_s", J.Num v.v_eta_s);
       ])

let status_line v =
  let eta =
    if v.v_eta_s < 0.0 then "?"
    else if v.v_eta_s >= 3600.0 then Printf.sprintf "%.1fh" (v.v_eta_s /. 3600.0)
    else if v.v_eta_s >= 60.0 then Printf.sprintf "%.1fm" (v.v_eta_s /. 60.0)
    else Printf.sprintf "%.0fs" v.v_eta_s
  in
  let cubes =
    if v.v_cubes_pending + v.v_cubes_running + v.v_cubes_solved + v.v_cubes_stopped = 0
    then ""
    else
      Printf.sprintf " | cubes %d run %d done %d stop (%.1f%% cov, eta %s)"
        v.v_cubes_running v.v_cubes_solved v.v_cubes_stopped (100.0 *. v.v_coverage)
        eta
  in
  let keyspace =
    if v.v_keyspace_log2 < 0.0 then ""
    else Printf.sprintf " | keys <= 2^%.1f" v.v_keyspace_log2
  in
  Printf.sprintf "[%7.1fs] dips %d (%.1f/s) imported %d%s%s" v.v_elapsed_s v.v_dips
    v.v_dip_rate v.v_imported keyspace cubes
