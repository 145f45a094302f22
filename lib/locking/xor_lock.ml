module Circuit = Ll_netlist.Circuit
module Builder = Ll_netlist.Builder
module Gate = Ll_netlist.Gate
module Bitvec = Ll_util.Bitvec
module Prng = Ll_util.Prng

let lock ?(prng = Prng.create 1) ?base_key ~num_keys c =
  if num_keys < 1 then invalid_arg "Xor_lock.lock: bad key count";
  let base = Compose_key.base_of ?base_key c in
  let lockable =
    Array.to_list c.Circuit.nodes
    |> List.mapi (fun i nd -> (i, nd))
    |> List.filter_map (fun (i, nd) ->
           match nd with
           | Circuit.Gate _ | Circuit.Input -> Some i
           | Circuit.Key_input | Circuit.Const _ -> None)
    |> Array.of_list
  in
  if Array.length lockable < num_keys then
    invalid_arg "Xor_lock.lock: not enough lockable wires";
  let chosen = Prng.sample prng ~k:num_keys ~n:(Array.length lockable) in
  let victims = List.map (fun i -> lockable.(i)) chosen in
  let key_bits = Bitvec.random prng num_keys in
  (* victim node index -> key position *)
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
    ~scheme:(Printf.sprintf "xor(k=%d)" num_keys)
