(** The M/G/k queue Section VII-C proposes as the bandwidth-limited
    refinement of the M/G/inf model: with only k servers, "the actual
    arrival times of individuals at a server would occasionally have to
    be delayed until there was available capacity ... [which reduces] the
    fit of the multiplexed traffic to a self-similar model, [but] does
    not eliminate the underlying large-scale correlations". *)

type stats = {
  served : int;
  mean_wait : float;
  max_wait : float;
  mean_in_system : float;
}

val simulate :
  k:int ->
  arrivals:float array ->
  service:(Prng.Rng.t -> float) ->
  Prng.Rng.t ->
  stats
(** FCFS across [k] servers; arrivals must be sorted. Requires [k >= 1]
    and at least one arrival. *)

val count_process :
  k:int ->
  rate:float ->
  service:(Prng.Rng.t -> float) ->
  dt:float ->
  n:int ->
  ?warmup:float ->
  Prng.Rng.t ->
  float array
(** Number of customers in the system (waiting + in service) sampled
    every [dt], Poisson arrivals at [rate] — the finite-capacity
    counterpart of {!Traffic.Mg_inf.count_process}. [k = max_int]
    degenerates to M/G/inf. *)
