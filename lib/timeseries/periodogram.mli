(** Periodogram estimation, the input to Whittle's estimator and Beran's
    goodness-of-fit test.

    I(lambda_j) = |sum_t x_t exp (-i t lambda_j)|^2 / (2 pi n) at the
    Fourier frequencies lambda_j = 2 pi j / n, j = 1 .. floor((n-1)/2).
    The series is demeaned first. *)

type t = {
  freqs : float array;  (** lambda_j in (0, pi]. *)
  power : float array;  (** I(lambda_j). *)
}

val compute : float array -> t
(** Requires at least 4 observations. *)

val low_frequency : t -> fraction:float -> t
(** Keep only the lowest [fraction] of the frequencies (used by the
    log-periodogram Hurst regression). Keeps at least 2 points. *)
