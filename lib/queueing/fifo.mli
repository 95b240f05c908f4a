(** Single-server FIFO queue driven by an arrival-time trace (Lindley
    recursion). This is the instrument behind the paper's warning that
    exponential TELNET interarrivals "significantly underestimate
    performance measures such as average packet delay". *)

type stats = {
  n : int;  (** Packets served. *)
  mean_wait : float;  (** Mean time spent waiting (excluding service). *)
  mean_sojourn : float;  (** Waiting + service. *)
  max_wait : float;
  p50_wait : float;
  p99_wait : float;
  p999_wait : float;
  utilization : float;  (** Busy fraction of the simulated horizon. *)
  dropped : int;  (** Packets lost to a finite buffer (0 if infinite). *)
}

val simulate :
  ?buffer:int ->
  arrivals:float array ->
  service:(Prng.Rng.t -> float) ->
  Prng.Rng.t ->
  stats
(** [simulate ~arrivals ~service rng]: arrivals must be sorted
    non-decreasing; each packet's service time is drawn from [service].
    [buffer], if given, is the maximum number of packets waiting
    (excluding the one in service); packets arriving to a full buffer are
    dropped. Requires at least one arrival. *)

val simulate_const :
  ?buffer:int -> arrivals:float array -> service_time:float -> unit -> stats
(** Deterministic service times. *)
