(** Combinators over arrival processes represented as sorted arrays of
    event times (seconds from trace start). *)

val merge : float array list -> float array
(** Merge sorted arrays of event times into one sorted array. *)

val shift : float -> float array -> float array
(** Add a constant offset to every event time. *)

val clip : lo:float -> hi:float -> float array -> float array
(** Keep events with lo <= t < hi. *)

val thin : keep:float -> Prng.Rng.t -> float array -> float array
(** Independently keep each event with probability [keep]. *)

val interarrivals : float array -> float array
(** Successive differences; requires at least 2 events. *)

val is_sorted : float array -> bool
