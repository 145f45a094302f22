module Bitvec = Ll_util.Bitvec

type t =
  | And
  | Or
  | Nand
  | Nor
  | Xor
  | Xnor
  | Not
  | Buf
  | Mux
  | Lut of Bitvec.t

let max_lut_inputs = 16

let arity_ok g n =
  match g with
  | And | Or | Nand | Nor | Xor | Xnor -> n >= 1
  | Not | Buf -> n = 1
  | Mux -> n = 3
  | Lut table ->
      n >= 0 && n <= 20 && Bitvec.length table = 1 lsl n

let check g fanins =
  if not (arity_ok g (Array.length fanins)) then
    invalid_arg "Gate.eval: arity mismatch"

let fold_assoc op fanins =
  let acc = ref fanins.(0) in
  for i = 1 to Array.length fanins - 1 do
    acc := op !acc fanins.(i)
  done;
  !acc

let eval g fanins =
  check g fanins;
  match g with
  | And -> fold_assoc ( && ) fanins
  | Or -> fold_assoc ( || ) fanins
  | Nand -> not (fold_assoc ( && ) fanins)
  | Nor -> not (fold_assoc ( || ) fanins)
  | Xor -> fold_assoc ( <> ) fanins
  | Xnor -> not (fold_assoc ( <> ) fanins)
  | Not -> not fanins.(0)
  | Buf -> fanins.(0)
  | Mux -> if fanins.(0) then fanins.(2) else fanins.(1)
  | Lut table ->
      let idx = ref 0 in
      for i = Array.length fanins - 1 downto 0 do
        idx := (!idx lsl 1) lor (if fanins.(i) then 1 else 0)
      done;
      Bitvec.get table !idx

let eval_sub g fanins ~len =
  if not (arity_ok g len) then invalid_arg "Gate.eval_sub: arity mismatch";
  match g with
  | And | Nand ->
      let acc = ref true in
      for i = 0 to len - 1 do
        if not fanins.(i) then acc := false
      done;
      if g = And then !acc else not !acc
  | Or | Nor ->
      let acc = ref false in
      for i = 0 to len - 1 do
        if fanins.(i) then acc := true
      done;
      if g = Or then !acc else not !acc
  | Xor | Xnor ->
      let acc = ref false in
      for i = 0 to len - 1 do
        if fanins.(i) then acc := not !acc
      done;
      if g = Xor then !acc else not !acc
  | Not -> not fanins.(0)
  | Buf -> fanins.(0)
  | Mux -> if fanins.(0) then fanins.(2) else fanins.(1)
  | Lut table ->
      let idx = ref 0 in
      for i = len - 1 downto 0 do
        idx := (!idx lsl 1) lor (if fanins.(i) then 1 else 0)
      done;
      Bitvec.get table !idx

let eval_lanes_sub g fanins ~len =
  if not (arity_ok g len) then invalid_arg "Gate.eval_lanes_sub: arity mismatch";
  let open Int64 in
  match g with
  | And | Nand ->
      let acc = ref (-1L) in
      for i = 0 to len - 1 do
        acc := logand !acc fanins.(i)
      done;
      if g = And then !acc else lognot !acc
  | Or | Nor ->
      let acc = ref 0L in
      for i = 0 to len - 1 do
        acc := logor !acc fanins.(i)
      done;
      if g = Or then !acc else lognot !acc
  | Xor | Xnor ->
      let acc = ref 0L in
      for i = 0 to len - 1 do
        acc := logxor !acc fanins.(i)
      done;
      if g = Xor then !acc else lognot !acc
  | Not -> lognot fanins.(0)
  | Buf -> fanins.(0)
  | Mux -> logor (logand fanins.(0) fanins.(2)) (logand (lognot fanins.(0)) fanins.(1))
  | Lut table ->
      let out = ref 0L in
      for lane = 0 to 63 do
        let idx = ref 0 in
        for i = len - 1 downto 0 do
          let bit = logand (shift_right_logical fanins.(i) lane) 1L in
          idx := (!idx lsl 1) lor to_int bit
        done;
        if Bitvec.get table !idx then out := logor !out (shift_left 1L lane)
      done;
      !out

let eval_lanes g fanins =
  check g fanins;
  let open Int64 in
  match g with
  | And -> fold_assoc logand fanins
  | Or -> fold_assoc logor fanins
  | Nand -> lognot (fold_assoc logand fanins)
  | Nor -> lognot (fold_assoc logor fanins)
  | Xor -> fold_assoc logxor fanins
  | Xnor -> lognot (fold_assoc logxor fanins)
  | Not -> lognot fanins.(0)
  | Buf -> fanins.(0)
  | Mux -> logor (logand fanins.(0) fanins.(2)) (logand (lognot fanins.(0)) fanins.(1))
  | Lut table ->
      (* Bit-serial over the 64 lanes; LUT gates are rare after expansion. *)
      let out = ref 0L in
      let k = Array.length fanins in
      for lane = 0 to 63 do
        let idx = ref 0 in
        for i = k - 1 downto 0 do
          let bit = logand (shift_right_logical fanins.(i) lane) 1L in
          idx := (!idx lsl 1) lor to_int bit
        done;
        if Bitvec.get table !idx then out := logor !out (shift_left 1L lane)
      done;
      !out

let is_symmetric = function
  | And | Or | Nand | Nor | Xor | Xnor -> true
  | Not | Buf | Mux | Lut _ -> false

let name = function
  | And -> "AND"
  | Or -> "OR"
  | Nand -> "NAND"
  | Nor -> "NOR"
  | Xor -> "XOR"
  | Xnor -> "XNOR"
  | Not -> "NOT"
  | Buf -> "BUF"
  | Mux -> "MUX"
  | Lut table -> "LUT_" ^ Bitvec.to_string table

let of_name s =
  match String.uppercase_ascii s with
  | "AND" -> Some And
  | "OR" -> Some Or
  | "NAND" -> Some Nand
  | "NOR" -> Some Nor
  | "XOR" -> Some Xor
  | "XNOR" -> Some Xnor
  | "NOT" | "INV" -> Some Not
  | "BUF" | "BUFF" -> Some Buf
  | "MUX" -> Some Mux
  | _ -> None

let equal a b =
  match (a, b) with
  | Lut ta, Lut tb -> Bitvec.equal ta tb
  | Lut _, _ | _, Lut _ -> false
  | _ -> a = b

let pp fmt g = Format.pp_print_string fmt (name g)
