(** Chunked streaming consumers with a checked lifecycle.

    A sink receives a stream of float chunks ({!push}) and produces a
    final result ({!finish}); generators expose [iter_chunks]-style
    producers and never materialise the full series, so a 10^8-event
    trace can be binned, pyramided and R/S-analysed in O(levels +
    chunk) memory.

    Lifecycle: [make] → [push]* → [finish], exactly once. The type is
    abstract and the transitions are checked — pushing after [finish],
    or finishing twice, raises [Invalid_argument] naming the sink
    instead of silently corrupting downstream state. Combinators
    ([tee], [counts]) finish their inner sinks through the same
    checked path, so a lifecycle violation anywhere in a sink tree
    surfaces at the offending node.

    Contract: [push] may be handed a buffer the producer reuses — sinks
    must copy anything they keep. *)

type 'a t

val make :
  ?name:string ->
  push:(float array -> unit) ->
  finish:(unit -> 'a) ->
  unit ->
  'a t
(** [make ~name ~push ~finish ()]: wrap raw callbacks in a
    lifecycle-checked sink. [name] (default ["sink"]) appears in
    violation messages. *)

val push : 'a t -> float array -> unit
(** Feed one chunk. Raises [Invalid_argument] once the sink is
    finished. *)

val finish : 'a t -> 'a
(** Produce the final result and close the sink. Raises
    [Invalid_argument] on a second call. *)

val tee : 'a t -> 'b t -> ('a * 'b) t
(** Duplicate every chunk into both sinks. *)

val fold : init:'acc -> f:('acc -> float array -> 'acc) -> 'acc t
(** Plain chunk fold; [finish] returns the accumulated value. *)

val to_array : unit -> float array t
(** Collect every value into one array (O(n) memory — for tests and for
    bridging to the legacy array APIs). *)

val length : unit -> int t
(** Count values, retaining nothing. *)

val of_pyramid : Pyramid.t -> Pyramid.t t
(** Feed chunks into the pyramid; [finish] hands the pyramid back. *)

val counts :
  ?t_start:float -> bin:float -> n_bins:int -> ?chunk:int -> 'a t -> 'a t
(** Streaming twin of {!Counts.of_events}: consumes chunks of
    {e non-decreasing event times} and pushes chunks of per-bin counts
    (bins of width [bin] from [t_start], exactly [n_bins] of them — the
    trailing bins are flushed as zeros by [finish]) into the inner sink.
    Events outside [[t_start, t_start + n_bins * bin)] are ignored, and
    the in-range bin index is clamped to [n_bins - 1] exactly as
    [Counts.of_events] does. Raises [Invalid_argument] on a
    non-monotone event time (it would need a bin already emitted), on
    [bin <= 0], or on [n_bins < 0]. [chunk] (default 65536) is the
    count-buffer size. *)

val iter_array : ?chunk:int -> float array -> 'a t -> 'a
(** Feed an existing array through a sink in chunks of [chunk] (default
    65536) and finish it — the bridge from array producers to sinks. *)
