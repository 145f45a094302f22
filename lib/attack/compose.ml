module Circuit = Ll_netlist.Circuit
module Builder = Ll_netlist.Builder
module Bitvec = Ll_util.Bitvec
module Instantiate = Ll_netlist.Instantiate

(* Multi-key composition (Fig. 1(b)): the cubes form a depth-pruned
   binary decision tree — every cube's condition list pins inputs in one
   global order, and at each tree node all remaining cubes either
   terminate (one leaf covering the whole subspace) or agree on the next
   pinned input.  The MUX tree is rebuilt by recursive partition on that
   input, so leaves at different depths (the adaptive attack's output)
   compose like a uniform 2^N split. *)
let build_cubes ?(optimize = true) locked ~cubes =
  if Array.length cubes = 0 then invalid_arg "Compose.build_cubes: no cubes";
  Array.iter
    (fun (_, k) ->
      if Bitvec.length k <> Circuit.num_keys locked then
        invalid_arg "Compose.build_cubes: key length mismatch")
    cubes;
  let b = Builder.create ~name:(locked.Circuit.name ^ "_multikey") () in
  let inputs =
    Array.map (fun j -> Builder.input b (Circuit.node_name locked j)) locked.Circuit.inputs
  in
  let n_in = Array.length inputs in
  (* One copy of the locked netlist per cube, keys bound to constants. *)
  let copies =
    Array.map
      (fun (_, key) ->
        let key_signals =
          Array.init (Bitvec.length key) (fun i -> Builder.const b (Bitvec.get key i))
        in
        Instantiate.append b locked ~inputs ~keys:key_signals)
      cubes
  in
  (* [items]: (remaining condition, cube index); the consumed prefix is
     implied by the recursion path. *)
  let rec select o items =
    match items with
    | [ ([], i) ] -> copies.(i).(o)
    | [] -> invalid_arg "Compose.build_cubes: cubes do not cover the input space"
    | _ ->
        let pos =
          match items with
          | ((p, _) :: _, _) :: _ -> p
          | _ -> invalid_arg "Compose.build_cubes: overlapping cubes"
        in
        if pos < 0 || pos >= n_in then
          invalid_arg "Compose.build_cubes: condition position out of range";
        let step value =
          List.filter_map
            (fun (cond, i) ->
              match cond with
              | (p, v) :: rest when p = pos ->
                  if v = value then Some (rest, i) else None
              | _ -> invalid_arg "Compose.build_cubes: overlapping cubes")
            items
        in
        (* Low branch first: the node order is part of the output. *)
        let low = select o (step false) in
        let high = select o (step true) in
        Builder.mux b ~select:inputs.(pos) ~low ~high
  in
  let items = Array.to_list (Array.mapi (fun i (cond, _) -> (cond, i)) cubes) in
  Array.iteri
    (fun o (name, _) -> Builder.output b name (select o items))
    locked.Circuit.outputs;
  let composed = Builder.finish b in
  if optimize then Ll_synth.Optimize.run composed else composed

(* A fixed split's tasks pin the split inputs in split order, in
   condition-integer order ({!Ll_synth.Cofactor.conditions}: the first
   split input is the least significant bit).  Reversed, every condition
   pins the last split input first, so the root MUX selects
   [split_inputs.(n-1)] and the copies appear in task order. *)
let of_attack ?optimize locked (attack : Split_attack.t) =
  match Split_attack.keys attack with
  | None -> None
  | Some keys ->
      let cubes =
        Array.map2
          (fun (task : Split_attack.task) key -> (List.rev task.condition, key))
          attack.Split_attack.tasks keys
      in
      Some (build_cubes ?optimize locked ~cubes)

let of_cube_attack ?optimize locked (attack : Cube_attack.t) =
  match Cube_attack.keys attack with
  | None -> None
  | Some cubes -> Some (build_cubes ?optimize locked ~cubes)
