module Circuit = Ll_netlist.Circuit
module Compiled = Ll_netlist.Compiled

type t = {
  num_inputs : int;
  num_outputs : int;
  behaviour : bool array -> bool array;
  (* Account one query on this oracle and every ancestor it was
     restricted from. *)
  record : unit -> unit;
  queries : int Atomic.t;
}

let make ~num_inputs ~num_outputs ~behaviour ~parent_record =
  let queries = Atomic.make 0 in
  let record () =
    Atomic.incr queries;
    parent_record ()
  in
  { num_inputs; num_outputs; behaviour; record; queries }

let of_circuit c =
  if Circuit.num_keys c > 0 then invalid_arg "Oracle.of_circuit: circuit has key ports";
  (* Compile once; each querying domain gets its own scratch from the
     per-domain cache, so one oracle value can serve a whole pool without
     locks or per-query allocation in the simulator. *)
  let prog = Compiled.compile c in
  make
    ~num_inputs:(Circuit.num_inputs c)
    ~num_outputs:(Circuit.num_outputs c)
    ~behaviour:(fun inputs -> Compiled.eval prog ~inputs ~keys:[||])
    ~parent_record:ignore

let of_function ~num_inputs ~num_outputs behaviour =
  make ~num_inputs ~num_outputs ~behaviour ~parent_record:ignore

let query o inputs =
  if Array.length inputs <> o.num_inputs then invalid_arg "Oracle.query: pattern length";
  o.record ();
  o.behaviour inputs

let query_count o = Atomic.get o.queries

let num_inputs o = o.num_inputs
let num_outputs o = o.num_outputs

let restrict o condition =
  let pinned = Array.make o.num_inputs None in
  List.iter
    (fun (pos, v) ->
      if pos < 0 || pos >= o.num_inputs then invalid_arg "Oracle.restrict: position";
      if pinned.(pos) <> None then invalid_arg "Oracle.restrict: duplicate position";
      pinned.(pos) <- Some v)
    condition;
  let free =
    Array.to_list pinned
    |> List.mapi (fun i v -> (i, v))
    |> List.filter_map (fun (i, v) -> match v with None -> Some i | Some _ -> None)
    |> Array.of_list
  in
  let widen narrow =
    let full = Array.make o.num_inputs false in
    Array.iteri (fun i v -> match v with Some b -> full.(i) <- b | None -> ()) pinned;
    Array.iteri (fun j pos -> full.(pos) <- narrow.(j)) free;
    full
  in
  make ~num_inputs:(Array.length free) ~num_outputs:o.num_outputs
    ~behaviour:(fun narrow -> o.behaviour (widen narrow))
    ~parent_record:o.record
