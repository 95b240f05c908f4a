(** Descriptive statistics over float arrays. All functions require a
    non-empty input unless stated otherwise. *)

val mean : float array -> float

val variance : float array -> float
(** Population variance (divide by n). The paper's variance-time plots use
    the plain variance of the aggregated series. *)

val variance_unbiased : float array -> float
(** Sample variance (divide by n-1); requires at least two elements. *)

val std : float array -> float
val geometric_mean : float array -> float
(** Requires strictly positive entries. *)

val minimum : float array -> float
val maximum : float array -> float

val quantile : float array -> float -> float
(** [quantile xs p] for [0 <= p <= 1], linear interpolation between order
    statistics (type-7). Input need not be sorted. *)

val median : float array -> float

val autocorrelation : float array -> int -> float
(** [autocorrelation xs k]: sample autocorrelation at lag [k], normalised
    by the lag-0 autocovariance. Requires [0 <= k < length xs]. *)

val autocorrelations : float array -> int -> float array
(** Lags 0..k inclusive. *)

val diffs : float array -> float array
(** Successive differences: [diffs [|a;b;c|] = [|b-a; c-b|]]; used to turn
    event times into interarrival times. Requires length >= 2. *)

val summary : float array -> string
(** Human-readable one-line summary (n, mean, std, min, median, max). *)

val ecdf_grid : float array -> float array -> (float * float) array
(** [ecdf_grid xs grid] evaluates the empirical CDF of samples [xs] at
    each point of [grid], returning (grid point, fraction <= point) —
    the sampling grid behind the paper's printed distribution figures.
    An empty [xs] gives 0 everywhere. *)
