module Circuit = Ll_netlist.Circuit
module Builder = Ll_netlist.Builder
module Gate = Ll_netlist.Gate
module Cone = Ll_netlist.Cone
module Bitvec = Ll_util.Bitvec
module Prng = Ll_util.Prng

let lockable_nodes c =
  Array.to_list c.Circuit.nodes
  |> List.mapi (fun i nd -> (i, nd))
  |> List.filter_map (fun (i, nd) ->
         match nd with
         | Circuit.Gate _ | Circuit.Input -> Some i
         | Circuit.Key_input | Circuit.Const _ -> None)
  |> Array.of_list

let lock ?(prng = Prng.create 1) ?base_key ~num_keys c =
  if num_keys < 1 then invalid_arg "Sll.lock: bad key count";
  let base = Compose_key.base_of ?base_key c in
  let candidates = lockable_nodes c in
  if Array.length candidates < num_keys then
    invalid_arg "Sll.lock: not enough lockable wires";
  (* Greedy placement: each new victim maximises cone overlap with the
     victims chosen so far. *)
  let chosen = ref [] in
  let cones = Hashtbl.create 16 in
  (* victim -> (fanin cone, fanout cone) *)
  let cone_of v =
    match Hashtbl.find_opt cones v with
    | Some pair -> pair
    | None ->
        let pair = (Cone.fanin_cone c ~roots:[ v ], Cone.fanout_cone c ~roots:[ v ]) in
        Hashtbl.replace cones v pair;
        pair
  in
  let interferes candidate victim =
    (* Sequential ("run") interference: one key gate lies on a path through
       the other, so neither bit can be sensitized without controlling the
       other.  (Convergence-based interference would count almost any pair
       in output-converging netlists, giving no signal to the greedy
       choice.) *)
    let _, cand_out = cone_of candidate in
    let _, vic_out = cone_of victim in
    cand_out.(victim) || vic_out.(candidate)
  in
  let score candidate =
    List.fold_left
      (fun acc victim -> if interferes candidate victim then acc + 1 else acc)
      0 !chosen
  in
  for _ = 1 to num_keys do
    let available =
      Array.to_list candidates |> List.filter (fun v -> not (List.mem v !chosen))
    in
    let scored = List.map (fun v -> (score v, v)) available in
    let best_score = List.fold_left (fun acc (sc, _) -> max acc sc) 0 scored in
    let best = List.filter (fun (sc, _) -> sc = best_score) scored |> List.map snd in
    let pick = List.nth best (Prng.int prng (List.length best)) in
    chosen := pick :: !chosen
  done;
  let victims = List.rev !chosen in
  let key_bits = Bitvec.random prng num_keys in
  let key_of = Hashtbl.create 16 in
  List.iteri (fun pos v -> Hashtbl.replace key_of v pos) victims;
  let wrap ctx i s =
    match Hashtbl.find_opt key_of i with
    | None -> None
    | Some pos ->
        let kind = if Bitvec.get key_bits pos then Gate.Xnor else Gate.Xor in
        Some (Builder.gate ctx.Rework.builder kind [| s; ctx.Rework.new_keys.(pos) |])
  in
  let circuit = Rework.apply c ~num_new_keys:num_keys ~wrap () in
  Locked.make ~circuit
    ~correct_key:(Bitvec.append base key_bits)
    ~scheme:(Printf.sprintf "sll(k=%d)" num_keys)

let interference_edges c =
  (* Key gates: gates with a key port among their fanins. *)
  let is_key_port = Array.make (Circuit.num_nodes c) false in
  Array.iter (fun j -> is_key_port.(j) <- true) c.Circuit.keys;
  let key_gates =
    Array.to_list c.Circuit.nodes
    |> List.mapi (fun i nd -> (i, nd))
    |> List.filter_map (fun (i, nd) ->
           match nd with
           | Circuit.Gate (_, fanins) when Array.exists (fun j -> is_key_port.(j)) fanins ->
               Some i
           | Circuit.Gate _ | Circuit.Input | Circuit.Key_input | Circuit.Const _ -> None)
  in
  let count = ref 0 in
  List.iter
    (fun g1 ->
      let fanout = Cone.fanout_cone c ~roots:[ g1 ] in
      List.iter (fun g2 -> if g2 <> g1 && fanout.(g2) then incr count) key_gates)
    key_gates;
  !count
