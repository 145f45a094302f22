(* The public face of {!Cube_engine}: the same engine without the
   internal split-order and cancel-on-failure knobs. *)
include Cube_engine

let run ?config ?seed locked ~oracle = Cube_engine.run ?config ?seed locked ~oracle

let run_parallel ?config ?num_domains ?pool ?seed locked ~oracle =
  Cube_engine.run_parallel ?config ?num_domains ?pool ?seed locked ~oracle
