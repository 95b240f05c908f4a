(** Abry-Veitch wavelet (Haar) estimator of the Hurst parameter.

    The Haar detail-coefficient energy at octave j of an LRD process
    scales like 2^(j (2H - 1)); regressing log2 (mean d_j^2) on j over
    the mid octaves estimates H. Because Haar details difference
    adjacent block sums, slow trends (the paper's Fig. 1 diurnal
    profiles) cancel at octaves short of the modulation period — the
    estimator that stays usable where variance-time and Whittle are
    biased by nonstationarity.

    The decomposition runs on unnormalised pair sums, the identical
    recurrence {!Timeseries.Pyramid} streams, so {!decompose} on a
    series and {!octaves_of_pyramid} on a pyramid fed the same series
    (under any chunking) agree {e bit-for-bit}. *)

type octave = { j : int; n_coeffs : int; log2_energy : float }

type estimate = {
  h : float;
  slope : float;  (** Fitted slope of log2 energy vs octave. *)
  r2 : float;
  stderr_h : float;  (** OLS standard error of H: stderr(slope) / 2. *)
  j_lo : int;  (** Octave window actually fitted. *)
  j_hi : int;
}

val decompose : float array -> octave list
(** Haar detail energies per octave; octave [j] has [floor (n / 2^j)]
    coefficients (no power-of-two truncation). Raises
    [Invalid_argument] on fewer than 16 observations. *)

val octaves_of_pyramid : Timeseries.Pyramid.t -> octave list
(** Same, read out of a pyramid's streamed octave energies —
    bit-identical to [decompose] on the materialized series. *)

val estimate_octaves : ?j_lo:int -> ?j_hi:int -> octave list -> estimate
(** OLS of log2 energy on octave over [j_lo, j_hi] (defaults: 2 to the
    largest octave with at least 8 coefficients), weighted equally.
    H = (slope + 1) / 2. An octave is usable when it has coefficients
    and non-zero energy: a zero-energy octave ([log2_energy =
    neg_infinity], a series with no variation at that scale) is skipped
    like an empty one. Raises [Invalid_argument] naming the bounds when
    the window holds fewer than 2 usable octaves (e.g. a series just
    over the 16-observation minimum, where the default window is empty
    or a single octave, or an all-zero window — no degenerate
    nan/0-stderr fit). *)

val estimate : ?j_lo:int -> ?j_hi:int -> float array -> estimate
(** [estimate_octaves] of [decompose]. The default window needs at
    least 64 observations. *)

val estimate_of_pyramid : ?j_lo:int -> ?j_hi:int -> Timeseries.Pyramid.t -> estimate
(** [estimate_octaves] of [octaves_of_pyramid]: the streaming
    estimator. *)
