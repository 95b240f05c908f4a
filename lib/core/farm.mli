(** The [wanpoisson farm] driver: sharded multi-process trace analysis.

    The stream of count bins is cut into a fixed grid of {e macro-shards}
    — power-of-two bin ranges whose layout depends only on the spec,
    never on the worker count. Each worker process owns the macro-shards
    congruent to its index mod [workers]; per shard it generates the
    Poisson events for that bin range (generation windows and RNG
    streams are keyed by absolute shard/window coordinates, the PR-5
    sharding discipline), bins them ({!Timeseries.Sink.counts}) into a
    {!Count_summary} in O(levels x chunk) memory, and ships one
    {!Count_summary.part} per shard (snapshot, tail, sketch, total) to
    the coordinator through {!Engine.Job}'s frame envelope. The
    coordinator {!Count_summary.absorb}s the parts in {e global shard
    order} — a left fold whose shape is identical at any worker count —
    so stdout is byte-identical at [--workers 1] and [--workers 64].
    Macro-shards hold a power of two bins (the last may be partial), so
    every merge is alignment-legal.

    Only the Poisson model farms out: its increments over disjoint
    bin-aligned windows are independent, so per-window RNG streams keyed
    by absolute position reproduce one global sample path at any
    partition. The renewal/busy-period models ([pareto], [mginf],
    [onoff]) carry cross-bin state whose law at a shard boundary has no
    closed form — sharding them would silently change the model, so
    {!plan} rejects them instead. *)

type spec = {
  model : string;  (** Only ["poisson"]; see above. *)
  events : float;  (** Expected events; bins = events / rate / bin. *)
  rate : float;
  bin : float;
  chunk : int;  (** Streaming chunk size (bins / events per buffer). *)
  seed : int;
  workers : int;  (** Worker processes for {!run}; never changes values. *)
  shards : int;  (** Target macro-shard count (layout rounds to powers
                     of two); actual count is {!plan}'s [n_macro]. *)
}

val default : spec

type plan = {
  n_bins : int;
  macro_bins : int;  (** Bins per macro-shard; a power of two. *)
  n_macro : int;
  gen_bins : int;  (** Bins per generation window (~[chunk] events). *)
}

val plan : spec -> plan
(** Raises [Invalid_argument] on an unsupported model, an out-of-range
    field, or a NaN/infinite float (naming the field). *)

val job : (spec, Count_summary.part) Engine.Job.t
(** The farm as an {!Engine.Job}: units are macro-shards (one
    {!Count_summary.part} frame each), RNG streams are keyed
    [farm#shard#window]. *)

val run :
  exe:string ->
  ?opts:Engine.Job.opts ->
  spec ->
  (Count_summary.t * Engine.Job.obs, string) Stdlib.result
(** Coordinator: {!Engine.Job.run} over [spec.workers] worker processes
    re-executing [exe], then the shard-order merge into one summary of
    the whole trace. [Error] when any
    worker dies, stalls, or omits a shard; raises [Invalid_argument]
    only on a bad spec (see {!plan}). *)

val run_inline : ?obs:bool -> spec -> Count_summary.t
(** The same computation — per-shard streaming, frame encode/decode,
    shard-order merge — in one process ({!Engine.Job.run_inline}), used
    by the [farm-count-1e8] bench and the test suite. Produces the
    identical summary. [obs] (default false) additionally
    emulates a metrics+trace worker, which is what the
    [farm-count-1e8-obs] bench measures against [farm-count-1e8] for
    the <= 5% observability-overhead gate. *)

val pp : Format.formatter -> spec -> Count_summary.t -> unit
(** Deterministic fixed-precision report: the {!Count_summary} read-out
    of the merged summary ([nan] H for a run that drew no events).
    Deliberately omits the worker
    count and any timing: stdout must be byte-identical at any
    [--workers]. *)
