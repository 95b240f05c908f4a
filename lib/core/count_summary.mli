(** The mergeable summary of a run of bin counts, and its one read-out.

    A summary holds what the paper's read-outs of a count series need —
    a variance-time plot for H and a Hill fit of the upper tail — in a
    form that merges: a dyadic {!Timeseries.Pyramid} (no registered
    levels, so every {!ladder} level is exact), the [top_k] largest
    counts, a 1% {!Stats.Quantile_sketch} of the counts and the event
    total; never the counts themselves. {!Core.Farm} summarises each
    macro-shard and absorbs the shards' parts in shard order;
    {!Core.Streaming.Window} keeps one summary per pane.

    [absorb a (part b)] leaves [a] summarising [a]'s run followed by
    [b]'s: the pyramid replays concatenation (which needs [b]'s count
    [<= 2^v2] of [a]'s, so power-of-two runs fold exactly in order), the
    top-k of a concatenation is the merge of the parts' top-ks, and
    sketches add bucket-wise. The total, tail, sketch and wavelet
    energies come out bit-identical to one pass over the whole run; the
    pyramid's moments to merge-order rounding. *)

type t

val top_k : int
(** 64: the default number of largest counts kept for the Hill fit. *)

val sketch_accuracy : float
(** 0.01, shared by every count sketch so any two merge. *)

val create : ?top_k:int -> unit -> t
(** Raises [Invalid_argument] when [top_k < 2]. *)

val push_slice : t -> float array -> int -> int -> unit
(** [push_slice t xs pos len] appends the counts [xs.(pos .. pos+len-1)]
    (finite, [>= 0]). *)

val count : t -> int
(** Bins summarised. *)

val total : t -> float
val pyramid : t -> Timeseries.Pyramid.t
val sketch : t -> Stats.Quantile_sketch.t

val ceil_pow2 : int -> int
(** Smallest power of two [>= n]: the pane and shard lengths. *)

type part
(** A frozen summary: pyramid snapshot, tail (descending), sketch and
    total. It shares the summary's sketch, so take it when the summary
    is finished, or absorb it at once. *)

val part : t -> part

val absorb : t -> part -> unit
(** Append the part's run after [t]'s. Raises [Invalid_argument] when
    the pyramids cannot merge ({!Timeseries.Pyramid.merge_into}). *)

val encode : part -> string
(** The farm's wire form: total (i64), tail length (u32) and values
    (f64), the pyramid snapshot (u16-prefixed), then the sketch. *)

val decode : string -> (part, string) result
(** Total: truncated, trailing or corrupted bytes give [Error]. *)

(** {1 Read-out} *)

val ladder : int -> int list
(** Dyadic variance-time levels for [n] bins, [1; 2; 4; ...] up to
    [n / 8] (so >= 8 blocks each); [[]] below 3 levels. *)

val variance_time : levels:int list -> Timeseries.Pyramid.t -> Lrd.Hurst.estimate
(** Variance-time H over [levels]; all [nan] (no estimate, never an
    exception) with fewer than 2 levels or a zero mean — a short or
    quiet window has no trustworthy H. *)

val variance_time_of_counts : float array -> Lrd.Hurst.estimate
(** The same rule over a materialized series and its
    {!Timeseries.Counts.default_levels}. *)

val h_vt : t -> Lrd.Hurst.estimate
(** {!variance_time} over [ladder (count t)]. *)

val wavelet : Timeseries.Pyramid.t -> Lrd.Wavelet.estimate option
(** [None] when there are too few octaves to fit. *)

val alpha : t -> float
(** Hill tail index over the kept tail, its smallest value the
    threshold; [nan] below 8 positive exceedances. *)

val pp_wavelet : Format.formatter -> Lrd.Wavelet.estimate option -> unit
(** The [H(wavelet)] report line. *)

val pp_count_q : Format.formatter -> Stats.Quantile_sketch.t -> unit
(** The [count-q] report line. *)
