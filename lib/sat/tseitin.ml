module Gate = Ll_netlist.Gate
module Compiled = Ll_netlist.Compiled
module Bitvec = Ll_util.Bitvec
module Tel = Ll_telemetry.Telemetry

let m_encodes = Tel.Metric.counter "kernel.encodes"

(* Gate-memoization keys.  [fan.(0 .. len-1)] is the canonical
   fanin-literal sequence for the operator (sorted-uniq for the symmetric
   AND/OR, as-given otherwise); [tbl] is non-empty only for LUTs.  Lookups
   fill the env's reusable [probe] key in place, so a hit allocates
   nothing; only a miss stores an exact-size copy ({!Key.copy}). *)
module Key = struct
  type t = { mutable tag : int; mutable tbl : string; mutable fan : int array; mutable len : int }

  let equal a b =
    a.tag = b.tag
    && a.len = b.len
    &&
    let i = ref 0 in
    while !i < a.len && a.fan.(!i) = b.fan.(!i) do
      incr i
    done;
    !i = a.len && String.equal a.tbl b.tbl

  let hash k =
    let h = ref ((k.tag + 1) * 0x9e3779b1) in
    for i = 0 to k.len - 1 do
      h := (!h lxor (k.fan.(i) + 0x1003f)) * 0x01000193
    done;
    if k.tbl <> "" then h := !h lxor Hashtbl.hash k.tbl;
    !h land max_int

  let copy k = { k with fan = Array.sub k.fan 0 k.len }
end

module Cache = Hashtbl.Make (Key)

let tag_and = 0

let tag_or = 1

let tag_xor = 2

let tag_mux = 3

let tag_lut = 4

(* The env memoizes every encoded gate by (operator, fanin literals): a
   subcircuit appearing in several [encode] calls (e.g. the key cone shared
   by all DIP constraints of a SAT attack) is encoded once and reused.
   New entries go to [cache]; [frozen] holds the memo as it stood at each
   earlier {!copy}, newest first.  Frozen tables are never written again,
   so every copy of an env can read them, from any domain, without
   copying them. *)
type env = {
  solver : Solver.t;
  mutable true_lit : Lit.t option;
  mutable cache : Lit.t Cache.t;
  mutable frozen : Lit.t Cache.t list;
  probe : Key.t;  (* lookup key, refilled by every gate constructor *)
  mutable fanins : int array;  (* fanin literals of {!encode_node} *)
  mutable xpos : int array;  (* unknown LUT fanin positions of {!encode_node} *)
}

let create solver =
  {
    solver;
    true_lit = None;
    cache = Cache.create 4096;
    frozen = [];
    probe = { Key.tag = 0; tbl = ""; fan = Array.make 16 0; len = 0 };
    fanins = [||];
    xpos = [||];
  }

(* The memo is not copied: [env]'s table joins the frozen layers, which
   both envs then share read-only, and each continues with an empty table
   of its own.  A copy therefore costs nothing per memo entry, and the
   memos of a tree of copies share every ancestor's entries. *)
let copy env solver =
  if Cache.length env.cache > 0 then begin
    env.frozen <- env.cache :: env.frozen;
    env.cache <- Cache.create 256
  end;
  {
    solver;
    true_lit = env.true_lit;
    cache = Cache.create 256;
    frozen = env.frozen;
    probe = { env.probe with Key.fan = Array.copy env.probe.Key.fan };
    fanins = [||];
    xpos = [||];
  }

let solver env = env.solver

let emit env lits = Solver.add_clause_a env.solver lits

let fresh_lits env n = Array.init n (fun _ -> Lit.pos (Solver.new_var env.solver))

let lit_true env =
  match env.true_lit with
  | Some l -> l
  | None ->
      let l = Lit.pos (Solver.new_var env.solver) in
      emit env [| l |];
      env.true_lit <- Some l;
      l

let force env l v = emit env [| (if v then l else Lit.negate l) |]

let force_equal env a b =
  emit env [| Lit.negate a; b |];
  emit env [| a; Lit.negate b |]

(* Fill [env.probe] with operator [tag] over fanins [xs.(0 .. n-1)],
   as given or sorted and deduplicated ([sorted]: the symmetric
   AND/OR). *)
let set_probe env tag ?(tbl = "") ~sorted xs n =
  let k = env.probe in
  if Array.length k.Key.fan < n then k.Key.fan <- Array.make (max n (2 * Array.length k.Key.fan)) 0;
  let fan = k.Key.fan in
  Array.blit xs 0 fan 0 n;
  let m =
    if (not sorted) || n <= 1 then n
    else begin
      Lit.sort_prefix fan n;
      let m = ref 1 in
      for i = 1 to n - 1 do
        if fan.(i) <> fan.(!m - 1) then begin
          fan.(!m) <- fan.(i);
          incr m
        end
      done;
      !m
    end
  in
  k.Key.tag <- tag;
  k.Key.tbl <- tbl;
  k.Key.len <- m

(* The cached output for [env.probe], or [-1].  A cached gate output is
   only reusable while its variable survives inprocessing: variable
   elimination may have resolved the definition clauses away.  On an
   eliminated hit the caller re-encodes the gate onto a fresh variable
   (the fanins are checked bottom-up, so they are valid). *)
let lookup env =
  let rec find = function
    | [] -> -1
    | t :: rest -> (
        match Cache.find t env.probe with l -> l | exception Not_found -> find rest)
  in
  let l =
    match Cache.find env.cache env.probe with l -> l | exception Not_found -> find env.frozen
  in
  if l >= 0 && Solver.is_eliminated env.solver (Lit.var l) then -1 else l

(* A fresh output variable for the gate in [env.probe], cached before the
   caller emits its definition. *)
let fresh_out env =
  let out = Lit.pos (Solver.new_var env.solver) in
  Cache.replace env.cache (Key.copy env.probe) out;
  out

(* out <-> AND(xs.(0 .. n-1)) *)
let mk_and_n env xs n =
  set_probe env tag_and ~sorted:true xs n;
  let hit = lookup env in
  if hit >= 0 then hit
  else begin
    let out = fresh_out env in
    for i = 0 to n - 1 do
      emit env [| Lit.negate out; xs.(i) |]
    done;
    emit env (Array.init (n + 1) (fun i -> if i = 0 then out else Lit.negate xs.(i - 1)));
    out
  end

let mk_and env xs = mk_and_n env xs (Array.length xs)

(* out <-> OR(xs.(0 .. n-1)) *)
let mk_or_n env xs n =
  set_probe env tag_or ~sorted:true xs n;
  let hit = lookup env in
  if hit >= 0 then hit
  else begin
    let out = fresh_out env in
    for i = 0 to n - 1 do
      emit env [| out; Lit.negate xs.(i) |]
    done;
    emit env (Array.init (n + 1) (fun i -> if i = 0 then Lit.negate out else xs.(i - 1)));
    out
  end

(* out <-> lo XOR hi, lo <= hi *)
let mk_xor2 env a b =
  let lo = min a b and hi = max a b in
  let k = env.probe in
  k.Key.fan.(0) <- lo;
  k.Key.fan.(1) <- hi;
  k.Key.tag <- tag_xor;
  k.Key.tbl <- "";
  k.Key.len <- 2;
  let hit = lookup env in
  if hit >= 0 then hit
  else begin
    let out = fresh_out env in
    emit env [| Lit.negate out; lo; hi |];
    emit env [| Lit.negate out; Lit.negate lo; Lit.negate hi |];
    emit env [| out; Lit.negate lo; hi |];
    emit env [| out; lo; Lit.negate hi |];
    out
  end

let mk_xor_n env xs n =
  let acc = ref xs.(0) in
  for i = 1 to n - 1 do
    acc := mk_xor2 env !acc xs.(i)
  done;
  !acc

let mk_xor env xs = mk_xor_n env xs (Array.length xs)

(* out <-> if s then hi else lo *)
let mk_mux env sel lo hi =
  let k = env.probe in
  k.Key.fan.(0) <- sel;
  k.Key.fan.(1) <- lo;
  k.Key.fan.(2) <- hi;
  k.Key.tag <- tag_mux;
  k.Key.tbl <- "";
  k.Key.len <- 3;
  let hit = lookup env in
  if hit >= 0 then hit
  else begin
    let out = fresh_out env in
    emit env [| Lit.negate sel; Lit.negate hi; out |];
    emit env [| Lit.negate sel; hi; Lit.negate out |];
    emit env [| sel; Lit.negate lo; out |];
    emit env [| sel; lo; Lit.negate out |];
    (* Redundant but propagation-strengthening clauses. *)
    emit env [| Lit.negate lo; Lit.negate hi; out |];
    emit env [| lo; hi; Lit.negate out |];
    out
  end

(* out <-> table(xs.(0 .. k-1)) *)
let mk_lut env table xs k =
  if k > Gate.max_lut_inputs then
    invalid_arg (Printf.sprintf "Tseitin: LUT wider than %d inputs" Gate.max_lut_inputs);
  set_probe env tag_lut ~tbl:(Bitvec.to_string table) ~sorted:false xs k;
  let hit = lookup env in
  if hit >= 0 then hit
  else begin
    let out = fresh_out env in
    (* One clause per minterm: (fanins = pattern) -> out = table bit. *)
    for idx = 0 to (1 lsl k) - 1 do
      let rhs = if Bitvec.get table idx then out else Lit.negate out in
      emit env
        (Array.init (k + 1) (fun j ->
             if j = 0 then rhs
             else if (idx lsr (j - 1)) land 1 = 1 then Lit.negate xs.(j - 1)
             else xs.(j - 1)))
    done;
    out
  end

let freeze_all env lits =
  Array.iter (fun l -> Solver.freeze_var env.solver (Lit.var l)) lits

(* ------------------------------------------------------------------ *)
(* The walk over a compiled program                                    *)
(* ------------------------------------------------------------------ *)

(* [env.fanins] holds the literals of a node's unknown fanins, [env.xpos]
   the positions of a LUT's unknown fanins; both grow to the widest node
   seen, so the builder allocates nothing for ordinary gates. *)
let reserve env k =
  if Array.length env.fanins < k then begin
    env.fanins <- Array.make k 0;
    env.xpos <- Array.make k 0
  end

(* The literals of the X fanins [fanin_idx.(lo .. hi-1)] of a node into
   [env.fanins]; returns their count. *)
let gather env (p : Compiled.t) (s : Compiled.scratch) lo hi =
  let fl = env.fanins and idx = p.Compiled.fanin_idx in
  let m = ref 0 in
  for k = lo to hi - 1 do
    let j = idx.(k) in
    if Compiled.tern_val s j = 2 then begin
      fl.(!m) <- s.Compiled.lits.(j);
      incr m
    end
  done;
  !m

(* Whether an odd number of the constant fanins of a node is 1. *)
let const_parity (p : Compiled.t) (s : Compiled.scratch) lo hi =
  let parity = ref false in
  for k = lo to hi - 1 do
    if Compiled.tern_val s p.Compiled.fanin_idx.(k) = 1 then parity := not !parity
  done;
  !parity

(* [f env.fanins 2] over the two literals [a] and [b]. *)
let pair env f a b =
  env.fanins.(0) <- a;
  env.fanins.(1) <- b;
  f env env.fanins 2

(* The literal of node [i], which is X in [s]'s ternary state: its
   fanins' literals are in [s.lits], and constant fanins fold into it. *)
let encode_node env (p : Compiled.t) (s : Compiled.scratch) ~input_lits ~key_lits i =
  let o = p.Compiled.op.(i) and arg = p.Compiled.arg.(i) in
  if o = Compiled.op_input then input_lits.(arg)
  else if o = Compiled.op_key then key_lits.(arg)
  else begin
    let idx = p.Compiled.fanin_idx and lits = s.Compiled.lits in
    let lo = p.Compiled.fanin_off.(i) and hi = p.Compiled.fanin_off.(i + 1) in
    reserve env (hi - lo);
    let fl = env.fanins in
    if o = Compiled.op_and || o = Compiled.op_nand then begin
      (* Constant fanins are all 1 (a 0 would make the node constant). *)
      let m = gather env p s lo hi in
      let base = if m = 1 then fl.(0) else mk_and_n env fl m in
      if o = Compiled.op_and then base else Lit.negate base
    end
    else if o = Compiled.op_or || o = Compiled.op_nor then begin
      let m = gather env p s lo hi in
      let base = if m = 1 then fl.(0) else mk_or_n env fl m in
      if o = Compiled.op_or then base else Lit.negate base
    end
    else if o = Compiled.op_xor || o = Compiled.op_xnor then begin
      let m = gather env p s lo hi in
      let base = if m = 1 then fl.(0) else mk_xor_n env fl m in
      let base = if const_parity p s lo hi then Lit.negate base else base in
      if o = Compiled.op_xor then base else Lit.negate base
    end
    else if o = Compiled.op_not then Lit.negate lits.(idx.(lo))
    else if o = Compiled.op_buf then lits.(idx.(lo))
    else if o = Compiled.op_mux then begin
      let js = idx.(lo) and ja = idx.(lo + 1) and jb = idx.(lo + 2) in
      let ts = Compiled.tern_val s js in
      let ta = Compiled.tern_val s ja and tb = Compiled.tern_val s jb in
      if ts = 0 then lits.(ja)
      else if ts = 1 then lits.(jb)
      else begin
        let sl = lits.(js) in
        if ta = 2 && tb = 2 then
          if lits.(ja) = lits.(jb) then lits.(ja) else mk_mux env sl lits.(ja) lits.(jb)
        else if ta = 2 then
          if tb = 1 then pair env mk_or_n sl lits.(ja)
          else pair env mk_and_n (Lit.negate sl) lits.(ja)
        else if tb = 2 then
          if ta = 1 then pair env mk_or_n (Lit.negate sl) lits.(jb)
          else pair env mk_and_n sl lits.(jb)
        else if ta = 0 then sl
        else Lit.negate sl
      end
    end
    else begin
      (* op_lut: restrict the table to the X fanins. *)
      let t = p.Compiled.luts.(arg) in
      let kf = hi - lo in
      let xpos = env.xpos in
      let m = ref 0 and base = ref 0 in
      for k = 0 to kf - 1 do
        let tv = Compiled.tern_val s idx.(lo + k) in
        if tv = 1 then base := !base lor (1 lsl k)
        else if tv = 2 then begin
          xpos.(!m) <- k;
          incr m
        end
      done;
      let mm = !m and base = !base in
      if mm = 1 then begin
        let l = lits.(idx.(lo + xpos.(0))) in
        if Bitvec.get t (base lor (1 lsl xpos.(0))) then l else Lit.negate l
      end
      else begin
        let sub =
          if mm = kf then t
          else
            Bitvec.init (1 lsl mm) (fun j ->
                let v = ref base in
                for b = 0 to mm - 1 do
                  if (j lsr b) land 1 = 1 then v := !v lor (1 lsl xpos.(b))
                done;
                Bitvec.get t !v)
        in
        for b = 0 to mm - 1 do
          fl.(b) <- lits.(idx.(lo + xpos.(b)))
        done;
        mk_lut env sub fl mm
      end
    end
  end

let output_lits env (p : Compiled.t) (s : Compiled.scratch) =
  Array.map
    (fun j ->
      match Compiled.tern_val s j with
      | 2 -> s.Compiled.lits.(j)
      | 1 -> lit_true env
      | _ -> Lit.negate (lit_true env))
    p.Compiled.outputs

(* Encode every live X node in topological order; constants fold into
   their readers and dead nodes are skipped.  Returns the number of gates
   encoded and the output literals.  Port and output variables are
   re-mentioned by later clauses (miters, DIP constraints, model
   queries), so they are exempt from variable elimination; internal gate
   variables stay eliminable. *)
let walk env (p : Compiled.t) (s : Compiled.scratch) ~input_lits ~key_lits =
  freeze_all env input_lits;
  freeze_all env key_lits;
  let lits = s.Compiled.lits and op = p.Compiled.op in
  let encoded = ref 0 in
  for i = 0 to p.Compiled.num_nodes - 1 do
    if Compiled.tern_val s i = 2 && Compiled.is_live s i then begin
      if op.(i) > Compiled.op_key then incr encoded;
      lits.(i) <- encode_node env p s ~input_lits ~key_lits i
    end
  done;
  let outs = output_lits env p s in
  freeze_all env outs;
  (!encoded, outs)

let check_ports name (p : Compiled.t) ~input_lits ~key_lits =
  if Array.length input_lits <> p.Compiled.num_inputs then
    invalid_arg (name ^ ": input literal count mismatch");
  if Array.length key_lits <> p.Compiled.num_keys then
    invalid_arg (name ^ ": key literal count mismatch")

let encode_program env p s ~input_lits ~key_lits =
  check_ports "Tseitin.encode_program" p ~input_lits ~key_lits;
  snd (walk env p s ~input_lits ~key_lits)

let encode env c ~input_lits ~key_lits =
  let p = Compiled.compile c in
  check_ports "Tseitin.encode" p ~input_lits ~key_lits;
  let s = Compiled.scratch p in
  Compiled.constants_into p s;
  snd (walk env p s ~input_lits ~key_lits)

(* The per-DIP path: primary inputs are pinned, so no input literal is
   ever read. *)
let encode_cofactored env (p : Compiled.t) s ~key_lits =
  if Array.length key_lits <> p.Compiled.num_keys then
    invalid_arg "Tseitin.encode_cofactored: key literal count mismatch";
  Tel.span_begin "kernel.encode";
  let encoded, outs = walk env p s ~input_lits:[||] ~key_lits in
  Tel.Metric.incr m_encodes;
  Tel.span_end ~v:encoded ();
  outs
