(** Single-pass dyadic aggregation pyramid.

    The paper's variance-time analysis needs the variance of the
    M-aggregated count process at ~K log-spaced levels M. Re-aggregating
    an in-memory series once per level costs O(n*K) time and O(n)
    resident floats; this module folds incoming chunks {e upward}
    instead: level k holds Welford/Chan moment accumulators
    ({!Moments.t}) over the sums of aligned blocks of [2^k] raw values,
    built by pairwise combination of level [k-1], so the whole dyadic
    ladder costs O(n) time and O(levels + chunk) space, independent of
    how the input is chunked (block sums are bit-identical for every
    chunking; only the moment-merge rounding, ~1 ulp, depends on it).

    Non-dyadic levels (the paper's quarter-decade M) are served two
    ways:

    - {e exactly}, when registered up front via [create ~levels]: a
      level [m] with 2-adic valuation [v] subscribes to the completed
      block sums of cascade level [v], grouping [m / 2^v] of them per
      block, so it sees exactly the blocks [Counts.aggregate] would
      (trailing partial blocks dropped). Total extra cost is
      [sum n / 2^v(m)] — still O(n) for quarter-decade ladders;
    - {e resampled}, for unregistered levels: {!stat} falls back to the
      nearest dyadic level (in log space) and flags the answer
      [exact = false].

    Telemetry: bumps [pyramid.chunks] per push, and grows
    [pyramid.levels] / [pyramid.resident-floats.peak] as the cascade
    deepens (no-ops unless {!Engine.Telemetry} is enabled). *)

type t

val create : ?levels:int list -> unit -> t
(** [create ~levels ()]: a fresh pyramid; [levels] lists aggregation
    levels to track exactly in addition to the dyadic ladder (powers of
    two and levels < 1 are ignored — the former are always exact). *)

val push : t -> float array -> unit
(** Fold a chunk of consecutive raw values. The chunk is read, never
    retained, so callers may reuse the buffer. *)

val push_slice : t -> float array -> int -> int -> unit
(** [push_slice t xs pos len]: fold [xs.(pos .. pos+len-1)]. *)

val count : t -> int
(** Raw values folded so far. *)

val mean : t -> float
(** Mean of all raw values ([nan] when empty). *)

val depth : t -> int
(** Dyadic levels with at least one completed block. *)

val chunks : t -> int
(** Number of [push]/[push_slice] calls so far. *)

val resident_floats : t -> int
(** Current float storage held by the pyramid: scratch buffers plus
    per-level and per-subscriber state — O(levels + largest chunk), the
    quantity the 10^8-event streaming path keeps constant. *)

type level_stat = {
  requested : int;  (** The level asked for. *)
  served : int;  (** The level actually served (differs when resampled). *)
  exact : bool;
  blocks : int;  (** Completed blocks at [served]. *)
  mean_sum : float;  (** Mean of block sums ([nan] if no blocks). *)
  var_sum : float;  (** Population variance of block sums. *)
}

val stat : t -> int -> level_stat option
(** [stat t m]: moment summary for aggregation level [m] — exact for
    dyadic or registered levels, nearest-dyadic otherwise; [None] when
    [m < 1] or no completed block is available. The variance of block
    {e means} (what the variance-time plot wants) is
    [var_sum /. (served^2)]. *)

(** {1 Wavelet octave energies}

    The cascade pairs adjacent level-(j-1) block sums [(s_L, s_R)] to
    build level [j]; each such pair is, up to normalisation, one Haar
    detail coefficient at octave [j] ([d = (s_L - s_R) / 2^(j/2)]).
    The pyramid accumulates the unnormalised energy
    [sum (s_L - s_R)^2] per octave as it pairs — one term at a time in
    pair-position order, so the accumulator is {e bit-identical} under
    every chunking of the input, and matches batch
    [Lrd.Wavelet.decompose] exactly. Snapshots carry the energies and
    {!merge_into} adds them (levels at and above the boundary valuation
    are bit-exact; below it, merge-order rounding, same policy as the
    moment accumulators). *)

type octave_energy = {
  oe_j : int;  (** Octave: details over aligned blocks of [2^oe_j] raw values. *)
  oe_pairs : int;  (** Completed detail coefficients at this octave. *)
  oe_raw : float;  (** Unnormalised [sum (s_L - s_R)^2]; divide by
                       [2^oe_j * oe_pairs] for the mean squared detail. *)
}

val wavelet_octaves : t -> octave_energy list
(** Ascending in [oe_j], octaves with at least one completed
    coefficient. Octave [j]'s coefficient count is the completed-block
    count of level [j] (every level-[j] value is the sum of exactly one
    pair). *)

(** {1 Snapshot / merge algebra}

    The contract behind the windowed estimators and the multi-process
    trace farm: [create ()] → [push]* → [snapshot] → [merge] → read out.
    Only {e level-free} pyramids (no registered levels) take part: the
    algebra covers the dyadic ladder, the wavelet energies and the
    carries, and [snapshot] and [merge_into] raise [Invalid_argument] on
    a pyramid created with registered levels. A snapshot is an
    immutable, self-contained copy of the analysis state — O(levels)
    floats, never the data — and merging replays concatenation: if
    pyramid [a] consumed a stream's first half and [b] its second half,
    then [merge (snapshot a) (snapshot b)] equals the single-pass batch
    pyramid on the whole stream, with every dyadic block sum and carry
    {e bit-for-bit} identical and moment accumulators equal to
    merge-order rounding (the property suite pins 1e-12 relative).

    Exactness requires alignment of the {e left} operand, because the
    right operand's block boundaries must land on the concatenated
    stream's: with [a = count dst] and [b] the snapshot's count, the
    contract is [b <= 2^v2(a)], so equal power-of-two shards fold
    exactly at any count. Violations raise [Invalid_argument]; the
    merged pyramid remains open for further [push]es. *)

type snapshot

val snapshot : t -> snapshot
(** Immutable copy of the current analysis state. The pyramid is not
    perturbed and stays open; snapshots may outlive it. Raises
    [Invalid_argument] if [t] has registered levels. *)

val snapshot_count : snapshot -> int
(** Raw values the snapshot has absorbed. *)

val merge_into : t -> snapshot -> unit
(** [merge_into dst s]: append [s]'s stream after [dst]'s, in place.
    Raises [Invalid_argument] if [dst] has registered levels or the
    alignment contract above is violated. Merging into an empty pyramid
    adopts the snapshot wholesale. *)

val of_snapshot : snapshot -> t
(** A live level-free pyramid equal to the snapshotted state
    ([create ()] then {!merge_into}), open for further pushes. *)

val merge : snapshot -> snapshot -> snapshot
(** Pure form: [snapshot] of [of_snapshot a] merged with [b]. *)

(** {1 Wire codec}

    The farm's worker processes ship snapshots to the coordinator as
    {!Engine.Frame} payloads. The codec is fixed-width little-endian
    with floats as raw IEEE bits, so deserialization is the exact
    inverse of serialization on every field — a round-tripped snapshot
    merges bit-for-bit like the original. Version 2 added the per-level
    wavelet detail energies; version 3 dropped the registered-level
    section. Workers and coordinator are always the same binary, so no
    cross-version compatibility is kept. *)

val snapshot_to_string : snapshot -> string

val snapshot_of_string : string -> (snapshot, string) result
(** [Error] (never an exception) on truncation, trailing bytes, an
    unknown codec version, or out-of-range fields. *)
