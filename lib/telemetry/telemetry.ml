module Timer = Ll_util.Timer

(* ------------------------------------------------------------------ *)
(* Global switches                                                     *)
(* ------------------------------------------------------------------ *)

let enabled_flag = Atomic.make false

let enabled () = Atomic.get enabled_flag

let default_ring_capacity = 32768

(* Capacity picked up by domain states created after [enable]. *)
let ring_capacity = Atomic.make default_ring_capacity

let now_ns = Timer.monotonic_ns

(* ------------------------------------------------------------------ *)
(* Event records                                                       *)
(* ------------------------------------------------------------------ *)

let kind_begin = 0

let kind_end = 1

let kind_instant = 2

let kind_log = 3

(* Ring slots are preallocated mutable records: recording an event in
   steady state overwrites fields and allocates nothing (beyond strings
   the caller already built). *)
type ev = {
  mutable ev_kind : int;
  mutable ev_name : string;
  mutable ev_ts : int;  (* monotonic ns *)
  mutable ev_a0 : int;
  mutable ev_a1 : int;
  mutable ev_note : string;
}

let fresh_ev () =
  { ev_kind = kind_instant; ev_name = ""; ev_ts = 0; ev_a0 = 0; ev_a1 = 0; ev_note = "" }

(* ------------------------------------------------------------------ *)
(* Metric registry (global, name-interned)                             *)
(* ------------------------------------------------------------------ *)

type mkind = K_counter | K_gauge | K_hist of float array

type counter = int

type gauge = int

type histogram = int

let registry_lock = Mutex.create ()

let metric_ids : (string, int) Hashtbl.t = Hashtbl.create 64

let metric_names : string array ref = ref [||]

let metric_kinds : mkind array ref = ref [||]

let num_metrics = Atomic.make 0

let default_time_buckets =
  [| 1e-6; 1e-5; 1e-4; 3e-4; 1e-3; 3e-3; 1e-2; 3e-2; 0.1; 0.3; 1.0; 3.0; 10.0; 30.0; 100.0 |]

let register_metric name kind =
  Mutex.lock registry_lock;
  let id =
    match Hashtbl.find_opt metric_ids name with
    | Some id ->
        (* Re-registration must agree on the kind; buckets are fixed by
           the first registration. *)
        (match ((!metric_kinds).(id), kind) with
        | K_counter, K_counter | K_gauge, K_gauge | K_hist _, K_hist _ -> ()
        | _ -> invalid_arg ("Telemetry: metric " ^ name ^ " re-registered with another kind"));
        id
    | None ->
        let id = Atomic.get num_metrics in
        let push a x = Array.append a [| x |] in
        metric_names := push !metric_names name;
        metric_kinds := push !metric_kinds kind;
        Hashtbl.add metric_ids name id;
        Atomic.set num_metrics (id + 1);
        id
  in
  Mutex.unlock registry_lock;
  id

(* Global sequence for gauge merge order: the last [set] across all
   domains wins in a snapshot. *)
let gauge_seq = Atomic.make 1

(* ------------------------------------------------------------------ *)
(* Per-domain state                                                    *)
(* ------------------------------------------------------------------ *)

type state = {
  tid : int;  (* dense telemetry track id, assigned at registration *)
  mutable ring : ev array;  (* empty until the domain records an event *)
  mutable head : int;  (* total events ever written; slot = head mod capacity *)
  (* span stack *)
  mutable sp_name : string array;
  mutable sp_t0 : int array;
  mutable sp_a0 : int array;
  mutable sp_depth : int;
  mutable unbalanced : int;
  (* metric values, indexed by metric id (grown on demand) *)
  mutable counters : int array;
  mutable gauges : float array;
  mutable gauge_seqs : int array;
  mutable hist_counts : int array array;
  mutable hist_sums : float array;
  mutable hist_ns : int array;
}

let all_states : state list ref = ref []

let next_tid = ref 0

(* States are registered for good (a snapshot still reports the events and
   metrics of joined domains), so the ring is allocated on the first
   [record]: a domain that never records while telemetry is on, such as
   one that only updates metrics, keeps no ring alive. *)
let new_state () =
  Mutex.lock registry_lock;
  let tid = !next_tid in
  incr next_tid;
  let st =
    {
      tid;
      ring = [||];
      head = 0;
      sp_name = Array.make 64 "";
      sp_t0 = Array.make 64 0;
      sp_a0 = Array.make 64 0;
      sp_depth = 0;
      unbalanced = 0;
      counters = [||];
      gauges = [||];
      gauge_seqs = [||];
      hist_counts = [||];
      hist_sums = [||];
      hist_ns = [||];
    }
  in
  all_states := st :: !all_states;
  Mutex.unlock registry_lock;
  st

let dls_key : state Domain.DLS.key = Domain.DLS.new_key new_state

let state () = Domain.DLS.get dls_key

(* ------------------------------------------------------------------ *)
(* Event recording (single writer: the owning domain)                  *)
(* ------------------------------------------------------------------ *)

let record st kind name ts a0 a1 note =
  if Array.length st.ring = 0 then
    st.ring <- Array.init (Atomic.get ring_capacity) (fun _ -> fresh_ev ());
  let cap = Array.length st.ring in
  let e = st.ring.(st.head mod cap) in
  e.ev_kind <- kind;
  e.ev_name <- name;
  e.ev_ts <- ts;
  e.ev_a0 <- a0;
  e.ev_a1 <- a1;
  e.ev_note <- note;
  st.head <- st.head + 1

let instant ?(a0 = 0) ?(a1 = 0) ?(note = "") name =
  if enabled () then record (state ()) kind_instant name (now_ns ()) a0 a1 note

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

let grow_stack st =
  let n = Array.length st.sp_name in
  let g a fill =
    let fresh = Array.make (2 * n) fill in
    Array.blit a 0 fresh 0 n;
    fresh
  in
  st.sp_name <- g st.sp_name "";
  st.sp_t0 <- g st.sp_t0 0;
  st.sp_a0 <- g st.sp_a0 0

let span_begin ?(a0 = 0) ?(a1 = 0) ?(note = "") name =
  if enabled () then begin
    let st = state () in
    if st.sp_depth >= Array.length st.sp_name then grow_stack st;
    let t0 = now_ns () in
    st.sp_name.(st.sp_depth) <- name;
    st.sp_t0.(st.sp_depth) <- t0;
    st.sp_a0.(st.sp_depth) <- a0;
    st.sp_depth <- st.sp_depth + 1;
    record st kind_begin name t0 a0 a1 note
  end

(* The E event carries the duration in [a0] and a result value in [a1]
   ([v], defaulting to the matching B's [a0]), so spans survive ring
   wraparound of their B event and exporters never need to re-match. *)
let span_end ?v ?(note = "") () =
  if enabled () then begin
    let st = state () in
    if st.sp_depth = 0 then st.unbalanced <- st.unbalanced + 1
    else begin
      st.sp_depth <- st.sp_depth - 1;
      let d = st.sp_depth in
      let t1 = now_ns () in
      let value = match v with Some x -> x | None -> st.sp_a0.(d) in
      record st kind_end st.sp_name.(d) t1 (t1 - st.sp_t0.(d)) value note
    end
  end

let with_span ?a0 ?a1 ?note ?v name f =
  if enabled () then begin
    span_begin ?a0 ?a1 ?note name;
    match f () with
    | x ->
        span_end ?v ();
        x
    | exception e ->
        span_end ?v ~note:"exception" ();
        raise e
  end
  else f ()

(* Backdated span: both events written now, the B stamped [t0_ns].  Used
   where the span is only known when it ends (e.g. pool idle time around a
   condition-variable wait). *)
let timed_span ?(a0 = 0) ?(v = 0) ?(note = "") ~t0_ns name =
  if enabled () then begin
    let st = state () in
    let t1 = now_ns () in
    record st kind_begin name t0_ns a0 0 note;
    record st kind_end name t1 (t1 - t0_ns) v ""
  end

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let ensure_metrics st =
  let n = Atomic.get num_metrics in
  if Array.length st.counters < n then begin
    let g a fill =
      let fresh = Array.make n fill in
      Array.blit a 0 fresh 0 (Array.length a);
      fresh
    in
    st.counters <- g st.counters 0;
    st.gauges <- g st.gauges 0.0;
    st.gauge_seqs <- g st.gauge_seqs 0;
    st.hist_sums <- g st.hist_sums 0.0;
    st.hist_ns <- g st.hist_ns 0;
    let fresh = Array.make n [||] in
    Array.blit st.hist_counts 0 fresh 0 (Array.length st.hist_counts);
    st.hist_counts <- fresh
  end

module Metric = struct
  type nonrec counter = counter

  type nonrec gauge = gauge

  type nonrec histogram = histogram

  let counter name = register_metric name K_counter

  let gauge name = register_metric name K_gauge

  let histogram ?(buckets = default_time_buckets) name =
    register_metric name (K_hist (Array.copy buckets))

  let default_time_buckets = default_time_buckets

  let add c by =
    if enabled () then begin
      let st = state () in
      ensure_metrics st;
      st.counters.(c) <- st.counters.(c) + by
    end

  let incr c = add c 1

  let set g v =
    if enabled () then begin
      let st = state () in
      ensure_metrics st;
      st.gauges.(g) <- v;
      st.gauge_seqs.(g) <- Atomic.fetch_and_add gauge_seq 1
    end

  (* Bucket [i] counts observations [v <= buckets.(i)] (first matching
     bound); the extra final slot counts overflows. *)
  let observe h v =
    if enabled () then begin
      let st = state () in
      ensure_metrics st;
      let buckets =
        match (!metric_kinds).(h) with K_hist b -> b | _ -> invalid_arg "Telemetry.observe"
      in
      if Array.length st.hist_counts.(h) = 0 then
        st.hist_counts.(h) <- Array.make (Array.length buckets + 1) 0;
      let n = Array.length buckets in
      let i = ref 0 in
      while !i < n && v > buckets.(!i) do
        Stdlib.incr i
      done;
      let counts = st.hist_counts.(h) in
      counts.(!i) <- counts.(!i) + 1;
      st.hist_sums.(h) <- st.hist_sums.(h) +. v;
      st.hist_ns.(h) <- st.hist_ns.(h) + 1
    end
end

(* ------------------------------------------------------------------ *)
(* Event log                                                           *)
(* ------------------------------------------------------------------ *)

let log_line line =
  if enabled () then record (state ()) kind_log "log" (now_ns ()) 0 0 line

(* ------------------------------------------------------------------ *)
(* Snapshot                                                            *)
(* ------------------------------------------------------------------ *)

type event = {
  er_domain : int;
  er_kind : int;
  er_name : string;
  er_ts_ns : int;
  er_a0 : int;
  er_a1 : int;
  er_note : string;
}

type hist = { h_buckets : float array; h_counts : int array; h_count : int; h_sum : float }

type snapshot = {
  taken_at : float;  (* epoch, report timestamp *)
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * hist) list;
  events : event array;  (* merged across domains, ts-sorted *)
  domains : int;
  dropped_events : int;  (* overwritten by ring wraparound *)
  dropped_by_domain : (int * int) list;  (* (track id, drops), drops > 0 only *)
  unbalanced_span_ends : int;
}

type span = {
  sp_name : string;
  sp_domain : int;
  sp_start_ns : int;
  sp_dur_ns : int;
  sp_a0 : int;
  sp_a1 : int;
  sp_v : int;
  sp_depth : int;
  sp_note : string;
}

let snapshot () =
  Mutex.lock registry_lock;
  let states = !all_states in
  let names = !metric_names in
  let kinds = !metric_kinds in
  Mutex.unlock registry_lock;
  let n_metrics = Array.length names in
  let counters = Array.make n_metrics 0 in
  let gauges = Array.make n_metrics 0.0 in
  let gauge_best = Array.make n_metrics 0 in
  let hist_counts = Array.make n_metrics [||] in
  let hist_sums = Array.make n_metrics 0.0 in
  let hist_ns = Array.make n_metrics 0 in
  let events = ref [] in
  let dropped = ref 0 in
  let dropped_by = ref [] in
  let unbalanced = ref 0 in
  List.iter
    (fun st ->
      let ring = st.ring in
      let cap = Array.length ring in
      (* [head] may already count the first event of a domain whose ring
         this snapshot still reads as empty. *)
      let total = if cap = 0 then 0 else st.head in
      let first = max 0 (total - cap) in
      dropped := !dropped + first;
      if first > 0 then dropped_by := (st.tid, first) :: !dropped_by;
      unbalanced := !unbalanced + st.unbalanced;
      for i = first to total - 1 do
        let e = ring.(i mod cap) in
        events :=
          {
            er_domain = st.tid;
            er_kind = e.ev_kind;
            er_name = e.ev_name;
            er_ts_ns = e.ev_ts;
            er_a0 = e.ev_a0;
            er_a1 = e.ev_a1;
            er_note = e.ev_note;
          }
          :: !events
      done;
      (* The owning domain may be growing these arrays in
         [ensure_metrics] right now, one field at a time: read each once
         and walk only the prefix every one of them covers. *)
      let st_counters = st.counters and st_gauges = st.gauges in
      let st_gauge_seqs = st.gauge_seqs and st_hist_counts = st.hist_counts in
      let st_hist_sums = st.hist_sums and st_hist_ns = st.hist_ns in
      let m =
        List.fold_left min n_metrics
          [
            Array.length st_counters; Array.length st_gauges;
            Array.length st_gauge_seqs; Array.length st_hist_counts;
            Array.length st_hist_sums; Array.length st_hist_ns;
          ]
      in
      for id = 0 to m - 1 do
        counters.(id) <- counters.(id) + st_counters.(id);
        if st_gauge_seqs.(id) > gauge_best.(id) then begin
          gauge_best.(id) <- st_gauge_seqs.(id);
          gauges.(id) <- st_gauges.(id)
        end;
        let hc = st_hist_counts.(id) in
        if Array.length hc > 0 then begin
          if Array.length hist_counts.(id) = 0 then
            hist_counts.(id) <- Array.make (Array.length hc) 0;
          Array.iteri (fun b c -> hist_counts.(id).(b) <- hist_counts.(id).(b) + c) hc;
          hist_sums.(id) <- hist_sums.(id) +. st_hist_sums.(id);
          hist_ns.(id) <- hist_ns.(id) + st_hist_ns.(id)
        end
      done)
    states;
  let events = Array.of_list !events in
  Array.sort (fun a b -> compare (a.er_ts_ns, a.er_domain) (b.er_ts_ns, b.er_domain)) events;
  let pick kind =
    let out = ref [] in
    for id = n_metrics - 1 downto 0 do
      match (kinds.(id), kind) with
      | K_counter, `C -> out := (names.(id), counters.(id)) :: !out
      | _ -> ()
    done;
    !out
  in
  let gauges_l =
    let out = ref [] in
    for id = Array.length names - 1 downto 0 do
      match kinds.(id) with
      | K_gauge -> if gauge_best.(id) > 0 then out := (names.(id), gauges.(id)) :: !out
      | _ -> ()
    done;
    !out
  in
  let hists_l =
    let out = ref [] in
    for id = Array.length names - 1 downto 0 do
      match kinds.(id) with
      | K_hist buckets ->
          if hist_ns.(id) > 0 then
            out :=
              ( names.(id),
                {
                  h_buckets = buckets;
                  h_counts = hist_counts.(id);
                  h_count = hist_ns.(id);
                  h_sum = hist_sums.(id);
                } )
              :: !out
      | _ -> ()
    done;
    !out
  in
  {
    taken_at = Timer.now ();
    counters = pick `C;
    gauges = gauges_l;
    histograms = hists_l;
    events;
    domains = List.length states;
    dropped_events = !dropped;
    dropped_by_domain = List.sort compare !dropped_by;
    unbalanced_span_ends = !unbalanced;
  }

(* Reconstruct spans from the event stream: per domain, B pushes and E
   pops (our spans are strictly nested per domain).  An E whose B was lost
   to ring wraparound still yields a span from its own (dur, v) payload at
   depth 0 with [sp_a0 = -1]. *)
let spans snap =
  let stacks = Hashtbl.create 8 in
  let out = ref [] in
  Array.iter
    (fun e ->
      if e.er_kind = kind_begin then begin
        let stack = try Hashtbl.find stacks e.er_domain with Not_found -> [] in
        Hashtbl.replace stacks e.er_domain (e :: stack)
      end
      else if e.er_kind = kind_end then begin
        let stack = try Hashtbl.find stacks e.er_domain with Not_found -> [] in
        match stack with
        | b :: rest when b.er_name = e.er_name ->
            Hashtbl.replace stacks e.er_domain rest;
            out :=
              {
                sp_name = e.er_name;
                sp_domain = e.er_domain;
                sp_start_ns = b.er_ts_ns;
                sp_dur_ns = e.er_a0;
                sp_a0 = b.er_a0;
                sp_a1 = b.er_a1;
                sp_v = e.er_a1;
                sp_depth = List.length rest;
                sp_note = b.er_note;
              }
              :: !out
        | _ ->
            out :=
              {
                sp_name = e.er_name;
                sp_domain = e.er_domain;
                sp_start_ns = e.er_ts_ns - e.er_a0;
                sp_dur_ns = e.er_a0;
                sp_a0 = -1;
                sp_a1 = 0;
                sp_v = e.er_a1;
                sp_depth = 0;
                sp_note = e.er_note;
              }
              :: !out
      end)
    snap.events;
  List.sort (fun a b -> compare (a.sp_start_ns, a.sp_domain) (b.sp_start_ns, b.sp_domain)) !out

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

(* A ring of another capacity is dropped, not reallocated: [record]
   allocates a fresh one only for domains that record again. *)
let clear_state st =
  if Array.length st.ring <> Atomic.get ring_capacity then st.ring <- [||];
  st.head <- 0;
  st.sp_depth <- 0;
  st.unbalanced <- 0;
  Array.fill st.counters 0 (Array.length st.counters) 0;
  Array.fill st.gauges 0 (Array.length st.gauges) 0.0;
  Array.fill st.gauge_seqs 0 (Array.length st.gauge_seqs) 0;
  Array.fill st.hist_sums 0 (Array.length st.hist_sums) 0.0;
  Array.fill st.hist_ns 0 (Array.length st.hist_ns) 0;
  Array.iter (fun c -> Array.fill c 0 (Array.length c) 0) st.hist_counts

let reset () =
  Mutex.lock registry_lock;
  let states = !all_states in
  Mutex.unlock registry_lock;
  List.iter clear_state states

let enable ?ring_capacity:(cap = default_ring_capacity) () =
  Atomic.set ring_capacity cap;
  reset ();
  Atomic.set enabled_flag true

let disable () = Atomic.set enabled_flag false
