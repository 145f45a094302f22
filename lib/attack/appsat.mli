(** AppSAT-style approximate SAT attack [Shamsi et al., HOST'17].

    AppSAT is a stopping rule on the one DIP loop: it runs {!Sat_attack}
    (and so inherits its key-cone constraint encoding, solver and
    telemetry) with a [stop] hook that periodically estimates the error
    rate of the session's current candidate key by random sampling
    against the oracle; once the estimate drops to [target_error] the
    attack stops and returns the {e approximate} key.  Against point-function schemes (SARLock,
    Anti-SAT) this terminates after a handful of DIPs with a key that is
    wrong on only a vanishing input fraction — the classic counter to
    "provably SAT-resilient" locking, and a useful contrast to the paper's
    multi-key attack, which achieves {e exact} recovery per cofactor at a
    similar cost. *)

type result = {
  key : Ll_util.Bitvec.t option;  (** best candidate at termination *)
  estimated_error : float;  (** sampled error rate of that key *)
  exact : bool;  (** true when the DIP loop actually converged (UNSAT) *)
  num_dips : int;
  oracle_queries : int;
  total_time : float;
}

val run :
  ?prng:Ll_util.Prng.t ->
  ?target_error:float ->
  ?check_every:int ->
  ?samples:int ->
  ?max_iterations:int ->
  ?pool:Ll_runtime.Pool.t ->
  Ll_netlist.Circuit.t ->
  oracle:Oracle.t ->
  result
(** Defaults: [target_error = 0.01], [check_every = 5] DIPs,
    [samples = 512] random patterns per estimate, [max_iterations = 1000].
    The candidate is scored after every [check_every]-th DIP and once
    more when the loop reaches [max_iterations] DIPs, where it stops
    whatever the estimate.  Raises [Invalid_argument] like
    {!Sat_attack.run}, and when [check_every < 1], [samples < 1] or
    [max_iterations < 0].

    [pool] spreads each error estimate's random-pattern batches over a
    {!Ll_runtime.Pool}.  The batch structure and its [Prng.split] streams
    are fixed in batch order, so the estimate (and hence the whole attack)
    is deterministic and identical with or without a pool, at any pool
    width. *)
