(** Mergeable first/second-moment accumulators (Welford/Chan).

    The streaming pyramid ({!Pyramid}) maintains one of these per
    aggregation level, so the whole variance-time curve is available
    after a single pass over the data. [add] is Welford's online update;
    [add_slice] folds a contiguous slice with a two-pass reduction and
    then Chan-merges it (faster and slightly more accurate than
    element-wise updates); [merge_counts] is Chan's parallel combine of a
    pre-summarised batch, used both across chunk boundaries and across
    generation shards. *)

type t = {
  mutable n : int;
  mutable mean : float;
  mutable m2 : float;  (** Sum of squared deviations from the mean. *)
}

val create : unit -> t
(** Empty accumulator: [n = 0], [mean = 0], [m2 = 0]. *)

val add : t -> float -> unit
(** Welford single-observation update. *)

val add_slice : t -> float array -> int -> int -> unit
(** [add_slice t xs pos len]: fold [xs.(pos .. pos+len-1)] into [t]
    (two-pass over the slice, then one Chan merge). *)

val merge_counts : t -> int -> float -> float -> unit
(** [merge_counts t n mean m2]: Chan-merge a pre-summarised batch of [n]
    observations with the given mean and sum of squared deviations —
    the primitive behind [add_slice], exposed for callers that compute
    the batch summary in a fused pass (the pyramid's cascade) or merge
    shipped summaries (its snapshot merge). *)

val count : t -> int

val mean : t -> float
(** [nan] when empty. *)

val variance : t -> float
(** Population variance (divide by n), matching
    {!Stats.Descriptive.variance}; [nan] when empty. *)
