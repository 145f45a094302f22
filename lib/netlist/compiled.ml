module Bitvec = Ll_util.Bitvec
module Tel = Ll_telemetry.Telemetry

let m_compiles = Tel.Metric.counter "kernel.compiles"

let m_cofactors = Tel.Metric.counter "kernel.cofactors"

let m_lanes = Tel.Metric.counter "kernel.lanes"

let m_node_evals = Tel.Metric.counter "kernel.node_evals"

(* Opcodes.  The kernels match on these literally; keep the constants and
   the match arms in sync. *)
let op_const = 0

let op_input = 1

let op_key = 2

let op_and = 3

let op_or = 4

let op_nand = 5

let op_nor = 6

let op_xor = 7

let op_xnor = 8

let op_not = 9

let op_buf = 10

let op_mux = 11

let op_lut = 12

type t = {
  id : int;
  source : Circuit.t;
  num_nodes : int;
  num_inputs : int;
  num_keys : int;
  num_outputs : int;
  op : int array;
  arg : int array;
  fanin_off : int array;
  fanin_idx : int array;
  luts : Bitvec.t array;
  outputs : int array;
  input_node : int array;
  key_node : int array;
  fanout : fanout Atomic.t;
}

(* Consumer index for incremental evaluation (CSR, consumers of a node in
   ascending order).  Built on a program's first incremental pass, so
   programs that are only ever swept whole (packed simulation, the
   equivalence encoder) never carry it. *)
and fanout = { fo_off : int array; fo_idx : int array }

let no_fanout = { fo_off = [||]; fo_idx = [||] }

let next_id = Atomic.make 0

let compile c =
  Tel.span_begin "kernel.compile";
  let n = Circuit.num_nodes c in
  let op = Array.make n 0 and arg = Array.make n 0 in
  let fanin_off = Array.make (n + 1) 0 in
  let total_fanins = ref 0 in
  Array.iter
    (fun nd ->
      match nd with
      | Circuit.Gate (_, fanins) -> total_fanins := !total_fanins + Array.length fanins
      | _ -> ())
    c.Circuit.nodes;
  let fanin_idx = Array.make (max 1 !total_fanins) 0 in
  let luts = ref [] and num_luts = ref 0 in
  let next_input = ref 0 and next_key = ref 0 and pos = ref 0 in
  Array.iteri
    (fun i nd ->
      fanin_off.(i) <- !pos;
      (match nd with
      | Circuit.Input ->
          op.(i) <- op_input;
          arg.(i) <- !next_input;
          incr next_input
      | Circuit.Key_input ->
          op.(i) <- op_key;
          arg.(i) <- !next_key;
          incr next_key
      | Circuit.Const v ->
          op.(i) <- op_const;
          arg.(i) <- (if v then 1 else 0)
      | Circuit.Gate (g, fanins) ->
          (op.(i) <-
             (match g with
             | Gate.And -> op_and
             | Gate.Or -> op_or
             | Gate.Nand -> op_nand
             | Gate.Nor -> op_nor
             | Gate.Xor -> op_xor
             | Gate.Xnor -> op_xnor
             | Gate.Not -> op_not
             | Gate.Buf -> op_buf
             | Gate.Mux -> op_mux
             | Gate.Lut table ->
                 arg.(i) <- !num_luts;
                 luts := table :: !luts;
                 incr num_luts;
                 op_lut));
          Array.iter
            (fun j ->
              fanin_idx.(!pos) <- j;
              incr pos)
            fanins))
    c.Circuit.nodes;
  fanin_off.(n) <- !pos;
  let p =
    {
      id = Atomic.fetch_and_add next_id 1;
      source = c;
      num_nodes = n;
      num_inputs = Circuit.num_inputs c;
      num_keys = Circuit.num_keys c;
      num_outputs = Circuit.num_outputs c;
      op;
      arg;
      fanin_off;
      fanin_idx;
      luts = Array.of_list (List.rev !luts);
      outputs = Circuit.output_nodes c;
      input_node = c.Circuit.inputs;
      key_node = c.Circuit.keys;
      fanout = Atomic.make no_fanout;
    }
  in
  Tel.Metric.incr m_compiles;
  Tel.span_end ~v:n ();
  p

(* Small per-domain program memo keyed by physical equality: the [Eval]
   entry points and random-simulation loops hit the same circuit value
   over and over; recompiling per call would double their cost. *)
let cache_slots = 8

let prog_cache : (Circuit.t * t) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let cached c =
  let cache = Domain.DLS.get prog_cache in
  let rec find = function
    | [] -> None
    | (c', p) :: _ when c' == c -> Some p
    | _ :: tl -> find tl
  in
  match find !cache with
  | Some p -> p
  | None ->
      let p = compile c in
      let rest = List.filteri (fun i _ -> i < cache_slots - 1) !cache in
      cache := (c, p) :: rest;
      p

type scratch = {
  for_id : int;
  vals : Bytes.t;
  lanes : int64 array;
  tern : Bytes.t;
  live : Bytes.t;
  lits : int array;
  mutable unknown : int;
  ports : Bytes.t;
  changed : int array;
  dirty : Bytes.t;
  mutable vals_full : bool;
  mutable tern_full : bool;
}

let scratch p =
  let n = max 1 p.num_nodes and n_ports = max 1 (p.num_inputs + p.num_keys) in
  {
    for_id = p.id;
    vals = Bytes.make n '\000';
    lanes = Array.make n 0L;
    tern = Bytes.make n '\000';
    live = Bytes.make n '\000';
    lits = Array.make n 0;
    unknown = 0;
    ports = Bytes.make n_ports '\000';
    changed = Array.make n_ports 0;
    dirty = Bytes.make n '\000';
    vals_full = false;
    tern_full = false;
  }

(* Each domain's scratches, held weakly by their program: a scratch
   refers to its program only by [for_id], so it dies with the program. *)
module Scratch_table = Ephemeron.K1.Make (struct
  type nonrec t = t

  let equal = ( == )
  let hash p = Hashtbl.hash p.id
end)

let scratch_cache : scratch Scratch_table.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Scratch_table.create 16)

let local_scratch p =
  let tbl = Domain.DLS.get scratch_cache in
  match Scratch_table.find_opt tbl p with
  | Some s -> s
  | None ->
      let s = scratch p in
      Scratch_table.replace tbl p s;
      s

let check_scratch p s =
  if s.for_id <> p.id then invalid_arg "Compiled: scratch belongs to another program"

(* ------------------------------------------------------------------ *)
(* Incremental evaluation                                              *)
(* ------------------------------------------------------------------ *)

(* A scratch that holds a complete scalar (or ternary) evaluation is
   updated rather than recomputed.  The ports whose value changed mark
   their consumers dirty, and one forward scan re-evaluates just the dirty
   nodes, marking a node's consumers only when its own value changed.
   Node order is topological, so every fanin is final when the scan
   reaches a node, and the result equals a full sweep bit for bit.

   Two fallbacks bound the cost on uncorrelated patterns (random
   simulation) at about one full sweep: more than a quarter of the ports
   changed starts a full sweep, and re-evaluating more than a quarter of
   the nodes turns the rest of the scan into one. *)

let build_fanout p =
  let n = p.num_nodes in
  let total = p.fanin_off.(n) in
  let off = Array.make (n + 1) 0 and idx = Array.make (max 1 total) 0 in
  for k = 0 to total - 1 do
    let j = p.fanin_idx.(k) in
    off.(j) <- off.(j) + 1
  done;
  (* [off.(j)] becomes the end of node [j]'s segment; filling the
     consumers from the last one down then leaves it at the start. *)
  for j = 1 to n - 1 do
    off.(j) <- off.(j) + off.(j - 1)
  done;
  off.(n) <- total;
  for i = n - 1 downto 0 do
    for k = p.fanin_off.(i) to p.fanin_off.(i + 1) - 1 do
      let j = p.fanin_idx.(k) in
      off.(j) <- off.(j) - 1;
      idx.(off.(j)) <- i
    done
  done;
  { fo_off = off; fo_idx = idx }

let fanout p =
  let fo = Atomic.get p.fanout in
  if fo != no_fanout then fo
  else begin
    ignore (Atomic.compare_and_set p.fanout no_fanout (build_fanout p));
    Atomic.get p.fanout
  end

let too_many_changed ~changed ~ports = 4 * changed > ports

let work_limit n = n / 4

(* Mark the consumers of node [j] dirty; returns the last of them, or -1. *)
let mark_consumers fo dirty j =
  let lo = Array.unsafe_get fo.fo_off j and hi = Array.unsafe_get fo.fo_off (j + 1) in
  for k = lo to hi - 1 do
    Bytes.unsafe_set dirty (Array.unsafe_get fo.fo_idx k) '\001'
  done;
  if hi > lo then Array.unsafe_get fo.fo_idx (hi - 1) else -1

(* The first consumer of node [j], or [max_int]. *)
let first_consumer fo j =
  let lo = Array.unsafe_get fo.fo_off j in
  if Array.unsafe_get fo.fo_off (j + 1) > lo then Array.unsafe_get fo.fo_idx lo
  else max_int

(* Copy the staged port values [ports.(at ..)] into the nodes [nodes] of
   [values], appending each node whose value changed to [s.changed] from
   position [k]; returns the new length.  Branch-free: on random patterns
   every port is a coin flip. *)
let sync_ports s nodes ~at values k =
  let ports = s.ports and changed = s.changed in
  let k = ref k in
  for pos = 0 to Array.length nodes - 1 do
    let j = Array.unsafe_get nodes pos and c = Bytes.unsafe_get ports (at + pos) in
    Array.unsafe_set changed !k j;
    k := !k + (Char.code c lxor Char.code (Bytes.unsafe_get values j));
    Bytes.unsafe_set values j c
  done;
  !k

let stage_bools s ~at a =
  for pos = 0 to Array.length a - 1 do
    Bytes.unsafe_set s.ports (at + pos)
      (Char.unsafe_chr (Bool.to_int (Array.unsafe_get a pos)))
  done

(* ------------------------------------------------------------------ *)
(* Scalar kernel                                                       *)
(* ------------------------------------------------------------------ *)

(* Value of gate [i] (opcode [o]) from its fanins' values in [vals].
   Inlined into both scans below, so the full sweep pays no call per
   node. *)
let[@inline] scalar_gate p vals o i =
  let off = p.fanin_off and idx = p.fanin_idx in
  let lo = Array.unsafe_get off i and hi = Array.unsafe_get off (i + 1) in
  let v =
    if o = op_and || o = op_nand then begin
      let acc = ref true in
      for k = lo to hi - 1 do
        if Bytes.unsafe_get vals (Array.unsafe_get idx k) = '\000' then acc := false
      done;
      if o = op_and then !acc else not !acc
    end
    else if o = op_or || o = op_nor then begin
      let acc = ref false in
      for k = lo to hi - 1 do
        if Bytes.unsafe_get vals (Array.unsafe_get idx k) <> '\000' then acc := true
      done;
      if o = op_or then !acc else not !acc
    end
    else if o = op_xor || o = op_xnor then begin
      let acc = ref false in
      for k = lo to hi - 1 do
        if Bytes.unsafe_get vals (Array.unsafe_get idx k) <> '\000' then acc := not !acc
      done;
      if o = op_xor then !acc else not !acc
    end
    else if o = op_not then Bytes.unsafe_get vals (Array.unsafe_get idx lo) = '\000'
    else if o = op_buf then Bytes.unsafe_get vals (Array.unsafe_get idx lo) <> '\000'
    else if o = op_mux then begin
      let sel = Bytes.unsafe_get vals (Array.unsafe_get idx lo) <> '\000' in
      Bytes.unsafe_get vals (Array.unsafe_get idx (if sel then lo + 2 else lo + 1))
      <> '\000'
    end
    else begin
      (* op_lut *)
      let t = Array.unsafe_get p.luts (Array.unsafe_get p.arg i) in
      let v = ref 0 in
      for k = hi - 1 downto lo do
        v :=
          (!v lsl 1)
          lor if Bytes.unsafe_get vals (Array.unsafe_get idx k) = '\000' then 0 else 1
      done;
      Bitvec.get t !v
    end
  in
  if v then '\001' else '\000'

(* Full sweep over every gate and constant from node [start]; port nodes
   already hold their values.  Returns the number of nodes swept. *)
let full_scalar p s start =
  let op = p.op and vals = s.vals in
  for i = start to p.num_nodes - 1 do
    let o = Array.unsafe_get op i in
    if o > op_key then Bytes.unsafe_set vals i (scalar_gate p vals o i)
    else if o = op_const then
      Bytes.unsafe_set vals i (if Array.unsafe_get p.arg i = 1 then '\001' else '\000')
  done;
  p.num_nodes - start

(* ------------------------------------------------------------------ *)
(* Ternary cofactor kernel                                             *)
(* ------------------------------------------------------------------ *)

(* tern codes: 0 = constant false, 1 = constant true, 2 = X (depends on a
   key input under this cofactor). *)
let t0 = '\000'

let t1 = '\001'

let tx = '\002'

(* Ternary value of gate [i] (opcode [o]) from its fanins' values;
   inlined into both scans like {!scalar_gate}. *)
let[@inline] ternary_gate p s o i =
  let off = p.fanin_off and idx = p.fanin_idx and tern = s.tern in
  let lo = Array.unsafe_get off i and hi = Array.unsafe_get off (i + 1) in
  if o = op_and || o = op_nand then begin
    let any0 = ref false and anyx = ref false in
    for k = lo to hi - 1 do
      let f = Bytes.unsafe_get tern (Array.unsafe_get idx k) in
      if f = t0 then any0 := true else if f = tx then anyx := true
    done;
    let r = if !any0 then t0 else if !anyx then tx else t1 in
    if o = op_and || r = tx then r else if r = t0 then t1 else t0
  end
  else if o = op_or || o = op_nor then begin
    let any1 = ref false and anyx = ref false in
    for k = lo to hi - 1 do
      let f = Bytes.unsafe_get tern (Array.unsafe_get idx k) in
      if f = t1 then any1 := true else if f = tx then anyx := true
    done;
    let r = if !any1 then t1 else if !anyx then tx else t0 in
    if o = op_or || r = tx then r else if r = t0 then t1 else t0
  end
  else if o = op_xor || o = op_xnor then begin
    let parity = ref false and anyx = ref false in
    for k = lo to hi - 1 do
      let f = Bytes.unsafe_get tern (Array.unsafe_get idx k) in
      if f = tx then anyx := true else if f = t1 then parity := not !parity
    done;
    if !anyx then tx
    else begin
      let r = if o = op_xor then !parity else not !parity in
      if r then t1 else t0
    end
  end
  else if o = op_not then begin
    let f = Bytes.unsafe_get tern (Array.unsafe_get idx lo) in
    if f = tx then tx else if f = t0 then t1 else t0
  end
  else if o = op_buf then Bytes.unsafe_get tern (Array.unsafe_get idx lo)
  else if o = op_mux then begin
    let sel = Bytes.unsafe_get tern (Array.unsafe_get idx lo) in
    let a = Bytes.unsafe_get tern (Array.unsafe_get idx (lo + 1)) in
    let b = Bytes.unsafe_get tern (Array.unsafe_get idx (lo + 2)) in
    if sel = t0 then a
    else if sel = t1 then b
    else if a = b && a <> tx then a
    else tx
  end
  else begin
    (* op_lut: constant iff every completion of the X fanins agrees. *)
    let t = Array.unsafe_get p.luts (Array.unsafe_get p.arg i) in
    let k_fan = hi - lo in
    let base = ref 0 and m = ref 0 in
    (* [base]: known bits in place; unknown positions collected. *)
    let unknown_pos = s.lits in
    (* borrow the lits buffer as an int scratch; rewritten by the
       encoder anyway, and never used concurrently with it *)
    for k = 0 to k_fan - 1 do
      let f = Bytes.unsafe_get tern (Array.unsafe_get idx (lo + k)) in
      if f = t1 then base := !base lor (1 lsl k)
      else if f = tx then begin
        unknown_pos.(!m) <- k;
        incr m
      end
    done;
    if !m = 0 then if Bitvec.get t !base then t1 else t0
    else begin
      let first = ref (-1) and agree = ref true in
      let combos = 1 lsl !m in
      let c = ref 0 in
      while !agree && !c < combos do
        let v = ref !base in
        for b = 0 to !m - 1 do
          if (!c lsr b) land 1 = 1 then v := !v lor (1 lsl unknown_pos.(b))
        done;
        let bit = if Bitvec.get t !v then 1 else 0 in
        if !first = -1 then first := bit else if bit <> !first then agree := false;
        incr c
      done;
      if !agree then if !first = 1 then t1 else t0 else tx
    end
  end

(* Full sweep from node [start]: every node but the inputs, which already
   hold their pinned values.  [s.unknown] stays the number of X nodes (a
   fresh scratch holds no X and counts none).  Returns the number of nodes
   swept. *)
let full_ternary p s start =
  let op = p.op and arg = p.arg and tern = s.tern in
  let n = p.num_nodes in
  let unknown = ref (if start = 0 then 0 else s.unknown) in
  if start > 0 then
    for i = start to n - 1 do
      if Bytes.unsafe_get tern i = tx then decr unknown
    done;
  for i = start to n - 1 do
    let o = Array.unsafe_get op i in
    if o <> op_input then begin
      let v =
        if o = op_key then tx
        else if o = op_const then if Array.unsafe_get arg i = 1 then t1 else t0
        else ternary_gate p s o i
      in
      Bytes.unsafe_set tern i v;
      if v = tx then incr unknown
    end
  done;
  s.unknown <- !unknown;
  n - start

(* ------------------------------------------------------------------ *)
(* Incremental scan                                                    *)
(* ------------------------------------------------------------------ *)

(* Incremental scan over [s.vals] or, with [ternary], [s.tern]: mark the
   consumers of the [k] changed port nodes in [s.changed] dirty, then
   re-evaluate dirty nodes in order, marking the consumers of every node
   whose value changed.  Past the work limit the rest of the scan is a
   full sweep.  Returns the number of nodes evaluated.  [s.unknown]
   follows X transitions, which scalar values never make. *)
let incremental p s k ~ternary =
  let fo = fanout p in
  let op = p.op and dirty = s.dirty in
  let values = if ternary then s.tern else s.vals in
  let i = ref max_int and stop = ref (-1) in
  for c = 0 to k - 1 do
    let j = Array.unsafe_get s.changed c in
    i := Int.min !i (first_consumer fo j);
    stop := Int.max !stop (mark_consumers fo dirty j)
  done;
  let limit = work_limit p.num_nodes and evals = ref 0 in
  while !i <= !stop do
    let j = !i in
    if Bytes.unsafe_get dirty j <> '\000' then begin
      Bytes.unsafe_set dirty j '\000';
      incr evals;
      let o = Array.unsafe_get op j in
      let v = if ternary then ternary_gate p s o j else scalar_gate p values o j in
      let old = Bytes.unsafe_get values j in
      if old <> v then begin
        Bytes.unsafe_set values j v;
        if old = tx then s.unknown <- s.unknown - 1
        else if v = tx then s.unknown <- s.unknown + 1;
        stop := Int.max !stop (mark_consumers fo dirty j)
      end;
      if !evals > limit then begin
        Bytes.fill dirty (j + 1) (!stop - j) '\000';
        let rest = if ternary then full_ternary p s (j + 1) else full_scalar p s (j + 1) in
        evals := !evals + rest;
        stop := -1
      end
    end;
    incr i
  done;
  !evals

(* ------------------------------------------------------------------ *)
(* Scalar entry points                                                 *)
(* ------------------------------------------------------------------ *)

(* Bring [s.vals] up to date with the port values staged in [s.ports]
   (inputs, then keys). *)
let update_scalar p s =
  let k = sync_ports s p.input_node ~at:0 s.vals 0 in
  let k = sync_ports s p.key_node ~at:p.num_inputs s.vals k in
  let evals =
    if not s.vals_full then begin
      s.vals_full <- true;
      full_scalar p s 0
    end
    else if k = 0 then 0
    else if too_many_changed ~changed:k ~ports:(p.num_inputs + p.num_keys) then
      full_scalar p s 0
    else incremental p s k ~ternary:false
  in
  Tel.Metric.add m_node_evals evals

let eval_into p s ~inputs ~keys =
  check_scratch p s;
  if Array.length inputs <> p.num_inputs then
    invalid_arg "Compiled.eval_into: input vector length mismatch";
  if Array.length keys <> p.num_keys then
    invalid_arg "Compiled.eval_into: key vector length mismatch";
  stage_bools s ~at:0 inputs;
  stage_bools s ~at:p.num_inputs keys;
  update_scalar p s;
  Tel.Metric.incr m_lanes

let node_val s i = Bytes.get s.vals i <> '\000'

let output_val p s j = Bytes.get s.vals p.outputs.(j) <> '\000'

let read_outputs p s = Array.map (fun j -> Bytes.get s.vals j <> '\000') p.outputs

let eval p ~inputs ~keys =
  let s = local_scratch p in
  eval_into p s ~inputs ~keys;
  read_outputs p s

let eval_bv p ~inputs ~keys =
  if Bitvec.length inputs <> p.num_inputs then
    invalid_arg "Compiled.eval_bv: input vector length mismatch";
  if Bitvec.length keys <> p.num_keys then
    invalid_arg "Compiled.eval_bv: key vector length mismatch";
  let s = local_scratch p in
  for pos = 0 to p.num_inputs - 1 do
    Bytes.unsafe_set s.ports pos (Char.unsafe_chr (Bool.to_int (Bitvec.get inputs pos)))
  done;
  for pos = 0 to p.num_keys - 1 do
    Bytes.unsafe_set s.ports (p.num_inputs + pos)
      (Char.unsafe_chr (Bool.to_int (Bitvec.get keys pos)))
  done;
  update_scalar p s;
  Tel.Metric.incr m_lanes;
  Bitvec.init p.num_outputs (fun j -> Bytes.get s.vals p.outputs.(j) <> '\000')

(* ------------------------------------------------------------------ *)
(* 64-lane packed kernel                                               *)
(* ------------------------------------------------------------------ *)

let run_lanes p s =
  let op = p.op and arg = p.arg in
  let off = p.fanin_off and idx = p.fanin_idx in
  let lanes = s.lanes in
  let n = p.num_nodes in
  for i = 0 to n - 1 do
    let o = Array.unsafe_get op i in
    if o > op_key then begin
      let lo = Array.unsafe_get off i and hi = Array.unsafe_get off (i + 1) in
      let v =
        if o = op_and || o = op_nand then begin
          let acc = ref (-1L) in
          for k = lo to hi - 1 do
            acc := Int64.logand !acc (Array.unsafe_get lanes (Array.unsafe_get idx k))
          done;
          if o = op_and then !acc else Int64.lognot !acc
        end
        else if o = op_or || o = op_nor then begin
          let acc = ref 0L in
          for k = lo to hi - 1 do
            acc := Int64.logor !acc (Array.unsafe_get lanes (Array.unsafe_get idx k))
          done;
          if o = op_or then !acc else Int64.lognot !acc
        end
        else if o = op_xor || o = op_xnor then begin
          let acc = ref 0L in
          for k = lo to hi - 1 do
            acc := Int64.logxor !acc (Array.unsafe_get lanes (Array.unsafe_get idx k))
          done;
          if o = op_xor then !acc else Int64.lognot !acc
        end
        else if o = op_not then
          Int64.lognot (Array.unsafe_get lanes (Array.unsafe_get idx lo))
        else if o = op_buf then Array.unsafe_get lanes (Array.unsafe_get idx lo)
        else if o = op_mux then begin
          let sel = Array.unsafe_get lanes (Array.unsafe_get idx lo) in
          let a = Array.unsafe_get lanes (Array.unsafe_get idx (lo + 1)) in
          let b = Array.unsafe_get lanes (Array.unsafe_get idx (lo + 2)) in
          Int64.logor (Int64.logand sel b) (Int64.logand (Int64.lognot sel) a)
        end
        else begin
          (* op_lut: bit-serial over the lanes; LUT gates are rare. *)
          let t = Array.unsafe_get p.luts (Array.unsafe_get arg i) in
          let out = ref 0L in
          for lane = 0 to 63 do
            let v = ref 0 in
            for k = hi - 1 downto lo do
              let w = Array.unsafe_get lanes (Array.unsafe_get idx k) in
              v :=
                (!v lsl 1)
                lor Int64.to_int (Int64.logand (Int64.shift_right_logical w lane) 1L)
            done;
            if Bitvec.get t !v then out := Int64.logor !out (Int64.shift_left 1L lane)
          done;
          !out
        end
      in
      Array.unsafe_set lanes i v
    end
    else if o = op_const then
      Array.unsafe_set lanes i (if Array.unsafe_get arg i = 1 then -1L else 0L)
  done

let eval_lanes_into p s ~inputs ~keys =
  check_scratch p s;
  if Array.length inputs <> p.num_inputs then
    invalid_arg "Compiled.eval_lanes_into: input vector length mismatch";
  if Array.length keys <> p.num_keys then
    invalid_arg "Compiled.eval_lanes_into: key vector length mismatch";
  Array.iteri (fun pos j -> s.lanes.(j) <- inputs.(pos)) p.input_node;
  Array.iteri (fun pos j -> s.lanes.(j) <- keys.(pos)) p.key_node;
  run_lanes p s;
  Tel.Metric.add m_lanes 64

let output_lanes p s j = s.lanes.(p.outputs.(j))

let read_output_lanes p s = Array.map (fun j -> s.lanes.(j)) p.outputs

let eval_lanes p ~inputs ~keys =
  let s = local_scratch p in
  eval_lanes_into p s ~inputs ~keys;
  read_output_lanes p s

(* ------------------------------------------------------------------ *)
(* Cofactor entry point                                                *)
(* ------------------------------------------------------------------ *)

(* Backward sweep: which X nodes do the non-constant outputs reach?
   Constant fanins are dead (the emitter folds their values), and a MUX
   whose select collapsed keeps only the selected branch. *)
let run_liveness p s =
  let op = p.op in
  let off = p.fanin_off and idx = p.fanin_idx in
  let tern = s.tern and live = s.live in
  let n = p.num_nodes in
  Bytes.fill live 0 n '\000';
  Array.iter
    (fun j -> if Bytes.unsafe_get tern j = tx then Bytes.unsafe_set live j '\001')
    p.outputs;
  for i = n - 1 downto 0 do
    if Bytes.unsafe_get live i = '\001' then begin
      let o = Array.unsafe_get op i in
      if o > op_key then begin
        let lo = Array.unsafe_get off i and hi = Array.unsafe_get off (i + 1) in
        if o = op_mux && Bytes.unsafe_get tern (Array.unsafe_get idx lo) <> tx then begin
          let branch =
            if Bytes.unsafe_get tern (Array.unsafe_get idx lo) = t1 then lo + 2
            else lo + 1
          in
          let j = Array.unsafe_get idx branch in
          if Bytes.unsafe_get tern j = tx then Bytes.unsafe_set live j '\001'
        end
        else
          for k = lo to hi - 1 do
            let j = Array.unsafe_get idx k in
            if Bytes.unsafe_get tern j = tx then Bytes.unsafe_set live j '\001'
          done
      end
    end
  done

let cofactor_into p s ~inputs =
  check_scratch p s;
  if Array.length inputs <> p.num_inputs then
    invalid_arg "Compiled.cofactor_into: input vector length mismatch";
  (* Key nodes stay X, so only the input ports can change. *)
  stage_bools s ~at:0 inputs;
  let k = sync_ports s p.input_node ~at:0 s.tern 0 in
  let evals =
    if not s.tern_full then begin
      s.tern_full <- true;
      full_ternary p s 0
    end
    else if k = 0 then 0
    else if too_many_changed ~changed:k ~ports:p.num_inputs then full_ternary p s 0
    else incremental p s k ~ternary:true
  in
  run_liveness p s;
  Tel.Metric.add m_node_evals evals;
  Tel.Metric.incr m_cofactors

let constants_into p s =
  check_scratch p s;
  Array.iter (fun j -> Bytes.unsafe_set s.tern j tx) p.input_node;
  ignore (full_ternary p s 0);
  s.unknown <- s.unknown + p.num_inputs;
  (* The inputs hold X, not a cofactor's pins: the next {!cofactor_into}
     starts with a full sweep. *)
  s.tern_full <- false;
  run_liveness p s

let tern_val s i = Char.code (Bytes.get s.tern i)

let output_tern p s j = Char.code (Bytes.get s.tern p.outputs.(j))

let is_live s i = Bytes.get s.live i = '\001'

let unknown_count s = s.unknown
