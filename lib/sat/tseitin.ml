module Circuit = Ll_netlist.Circuit
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
  (* When [Some acc], emitted clauses are buffered (in reverse) instead of
     added, and flushed by {!with_batch} as one contiguous arena append. *)
  mutable pending : Lit.t array list option;
}

let create solver =
  {
    solver;
    true_lit = None;
    cache = Cache.create 4096;
    frozen = [];
    probe = { Key.tag = 0; tbl = ""; fan = Array.make 16 0; len = 0 };
    pending = None;
  }

(* The memo is not copied: [env]'s table joins the frozen layers, which
   both envs then share read-only, and each continues with an empty table
   of its own.  A copy therefore costs nothing per memo entry, and the
   memos of a tree of copies share every ancestor's entries. *)
let copy env solver =
  if env.pending <> None then invalid_arg "Tseitin.copy: inside with_batch";
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
    pending = None;
  }

let solver env = env.solver

let emit env lits =
  match env.pending with
  | None -> Solver.add_clause_a env.solver lits
  | Some acc -> env.pending <- Some (lits :: acc)

let with_batch env f =
  match env.pending with
  | Some _ -> f () (* already inside a batch: nest transparently *)
  | None ->
      env.pending <- Some [];
      Fun.protect
        ~finally:(fun () ->
          let acc = match env.pending with Some a -> a | None -> [] in
          env.pending <- None;
          Solver.add_clause_batch env.solver (List.rev acc))
        f

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

let mk_or env xs = mk_or_n env xs (Array.length xs)

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

let mk_lut env table fanin_lits =
  let k = Array.length fanin_lits in
  if k > 16 then invalid_arg "Tseitin: LUT wider than 16 inputs";
  set_probe env tag_lut ~tbl:(Bitvec.to_string table) ~sorted:false fanin_lits k;
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
             else if (idx lsr (j - 1)) land 1 = 1 then Lit.negate fanin_lits.(j - 1)
             else fanin_lits.(j - 1)))
    done;
    out
  end

let freeze_all env lits =
  Array.iter (fun l -> Solver.freeze_var env.solver (Lit.var l)) lits

let encode env c ~input_lits ~key_lits =
  if Array.length input_lits <> Circuit.num_inputs c then
    invalid_arg "Tseitin.encode: input literal count mismatch";
  if Array.length key_lits <> Circuit.num_keys c then
    invalid_arg "Tseitin.encode: key literal count mismatch";
  (* Interface variables are re-mentioned by later clauses (miters, DIP
     constraints, model queries): exempt them from variable elimination.
     Internal gate variables stay eliminable. *)
  freeze_all env input_lits;
  freeze_all env key_lits;
  let lit_of_node = Array.make (Circuit.num_nodes c) 0 in
  let next_input = ref 0 and next_key = ref 0 in
  Array.iteri
    (fun i nd ->
      let l =
        match nd with
        | Circuit.Input ->
            let l = input_lits.(!next_input) in
            incr next_input;
            l
        | Circuit.Key_input ->
            let l = key_lits.(!next_key) in
            incr next_key;
            l
        | Circuit.Const v -> if v then lit_true env else Lit.negate (lit_true env)
        | Circuit.Gate (g, fanins) -> (
            let fl = Array.map (fun j -> lit_of_node.(j)) fanins in
            match g with
            | Gate.Buf -> fl.(0)
            | Gate.Not -> Lit.negate fl.(0)
            | Gate.And -> mk_and env fl
            | Gate.Nand -> Lit.negate (mk_and env fl)
            | Gate.Or -> mk_or env fl
            | Gate.Nor -> Lit.negate (mk_or env fl)
            | Gate.Xor -> mk_xor env fl
            | Gate.Xnor -> Lit.negate (mk_xor env fl)
            | Gate.Mux -> mk_mux env fl.(0) fl.(1) fl.(2)
            | Gate.Lut table -> mk_lut env table fl)
      in
      lit_of_node.(i) <- l)
    c.Circuit.nodes;
  let outs = Array.map (fun (_, j) -> lit_of_node.(j)) c.Circuit.outputs in
  freeze_all env outs;
  outs

(* ------------------------------------------------------------------ *)
(* Direct emitter over a cofactored flat program                       *)
(* ------------------------------------------------------------------ *)

let encode_cofactored env (p : Compiled.t) (s : Compiled.scratch) ~key_lits =
  if Array.length key_lits <> p.Compiled.num_keys then
    invalid_arg "Tseitin.encode_cofactored: key literal count mismatch";
  freeze_all env key_lits;
  Tel.span_begin "kernel.encode";
  let op = p.Compiled.op and arg = p.Compiled.arg in
  let off = p.Compiled.fanin_off and idx = p.Compiled.fanin_idx in
  let lits = s.Compiled.lits in
  let n = p.Compiled.num_nodes in
  let fl = Array.make (max 1 p.Compiled.max_fanin) 0 in
  let encoded = ref 0 in
  let tern j = Compiled.tern_val s j in
  for i = 0 to n - 1 do
    (* Only key ports and live X gates get literals; constants fold into
       their readers and dead X nodes are skipped entirely. *)
    if tern i = 2 && Compiled.is_live s i then begin
      let o = op.(i) in
      let l =
        if o = Compiled.op_key then key_lits.(arg.(i))
        else begin
          incr encoded;
          let lo = off.(i) and hi = off.(i + 1) in
          if o = Compiled.op_and || o = Compiled.op_nand then begin
            (* Constant fanins are all 1 (a 0 would make the node const). *)
            let m = ref 0 in
            for k = lo to hi - 1 do
              let j = idx.(k) in
              if tern j = 2 then begin
                fl.(!m) <- lits.(j);
                incr m
              end
            done;
            let base = if !m = 1 then fl.(0) else mk_and_n env fl !m in
            if o = Compiled.op_and then base else Lit.negate base
          end
          else if o = Compiled.op_or || o = Compiled.op_nor then begin
            let m = ref 0 in
            for k = lo to hi - 1 do
              let j = idx.(k) in
              if tern j = 2 then begin
                fl.(!m) <- lits.(j);
                incr m
              end
            done;
            let base = if !m = 1 then fl.(0) else mk_or_n env fl !m in
            if o = Compiled.op_or then base else Lit.negate base
          end
          else if o = Compiled.op_xor || o = Compiled.op_xnor then begin
            let m = ref 0 and parity = ref false in
            for k = lo to hi - 1 do
              let j = idx.(k) in
              let t = tern j in
              if t = 2 then begin
                fl.(!m) <- lits.(j);
                incr m
              end
              else if t = 1 then parity := not !parity
            done;
            let base = if !m = 1 then fl.(0) else mk_xor_n env fl !m in
            let base = if !parity then Lit.negate base else base in
            if o = Compiled.op_xor then base else Lit.negate base
          end
          else if o = Compiled.op_not then Lit.negate lits.(idx.(lo))
          else if o = Compiled.op_buf then lits.(idx.(lo))
          else if o = Compiled.op_mux then begin
            let js = idx.(lo) and ja = idx.(lo + 1) and jb = idx.(lo + 2) in
            let ts = tern js and ta = tern ja and tb = tern jb in
            if ts = 0 then lits.(ja)
            else if ts = 1 then lits.(jb)
            else begin
              let sl = lits.(js) in
              if ta = 2 && tb = 2 then mk_mux env sl lits.(ja) lits.(jb)
              else if ta = 2 then
                if tb = 1 then mk_or env [| sl; lits.(ja) |]
                else mk_and env [| Lit.negate sl; lits.(ja) |]
              else if tb = 2 then
                if ta = 1 then mk_or env [| Lit.negate sl; lits.(jb) |]
                else mk_and env [| sl; lits.(jb) |]
              else if ta = 0 then sl
              else Lit.negate sl
            end
          end
          else begin
            (* op_lut: restrict the table to the X fanins. *)
            let t = p.Compiled.luts.(arg.(i)) in
            let kf = hi - lo in
            let xpos = Array.make kf 0 in
            let m = ref 0 and base = ref 0 in
            for k = 0 to kf - 1 do
              let tv = tern idx.(lo + k) in
              if tv = 1 then base := !base lor (1 lsl k)
              else if tv = 2 then begin
                xpos.(!m) <- k;
                incr m
              end
            done;
            let mm = !m in
            if mm = 1 then begin
              let l = lits.(idx.(lo + xpos.(0))) in
              if Bitvec.get t (!base lor (1 lsl xpos.(0))) then l else Lit.negate l
            end
            else begin
              let sub =
                Bitvec.init (1 lsl mm) (fun j ->
                    let v = ref !base in
                    for b = 0 to mm - 1 do
                      if (j lsr b) land 1 = 1 then v := !v lor (1 lsl xpos.(b))
                    done;
                    Bitvec.get t !v)
              in
              let fls = Array.init mm (fun b -> lits.(idx.(lo + xpos.(b)))) in
              mk_lut env sub fls
            end
          end
        end
      in
      lits.(i) <- l
    end
  done;
  let outs =
    Array.map
      (fun j ->
        match tern j with
        | 2 -> lits.(j)
        | 1 -> lit_true env
        | _ -> Lit.negate (lit_true env))
      p.Compiled.outputs
  in
  freeze_all env outs;
  Tel.Metric.incr m_encodes;
  Tel.span_end ~v:!encoded ();
  outs
