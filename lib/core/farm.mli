(** The [wanpoisson farm] driver: sharded multi-process trace analysis.

    The stream of count bins is cut into a fixed grid of {e macro-shards}
    — power-of-two bin ranges whose layout depends only on the spec,
    never on the worker count. Each worker process owns the macro-shards
    congruent to its index mod [workers]; per shard it generates the
    Poisson events for that bin range (generation windows and RNG
    streams are keyed by absolute shard/window coordinates, the PR-5
    sharding discipline), folds them through the local streaming stack
    ({!Timeseries.Sink.counts} → {!Timeseries.Pyramid} + a top-k tail
    sink) in O(levels x chunk) memory, and ships
    one partial per shard (snapshot, tail, sketch) to the coordinator
    through {!Engine.Job}'s frame envelope. The coordinator
    {!Timeseries.Pyramid.merge_into}s the snapshots in {e global shard
    order} — a left fold whose shape is identical at any worker count —
    so stdout is byte-identical at [--workers 1] and [--workers 64].

    Every macro-shard holds a power of two bins (the last may be
    partial), so each merge satisfies the alignment contract
    [b <= 2^v2(a)] unconditionally; the pyramid is dyadic-only (no
    registered levels) and the variance-time read-out uses the dyadic
    ladder, exactly like {!Core.Streaming.Window}.

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
  top_k : int;  (** Tail-sink size for the Hill read-out. *)
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

type result = {
  bins : int;
  macro_bins : int;
  n_macro : int;
  total : float;  (** Events actually counted. *)
  mean : float;
  h_vt : Lrd.Hurst.estimate;  (** Variance-time H over the dyadic ladder. *)
  h_wav : Lrd.Wavelet.estimate option;
      (** Abry-Veitch wavelet H from the shard-merged octave energies
          (the snapshot wire codec carries them, so no worker ever
          holds more than its macro-shards); [None] when the plan is
          too shallow for 2 fitted octaves. *)
  alpha : float;  (** Hill tail index over the merged top-[top_k] bin
                      counts ([nan] below 9 positive exceedances). *)
  count_sketch : Stats.Quantile_sketch.t;
      (** Per-bin count quantile sketch: per-shard partials merged in
          global shard order (bit-identical at any worker count; the
          read-out carries the sketch's documented relative-error
          bound). *)
  chunks : int;
  levels : int;
  resident : int;
}

type part
(** One macro-shard's partial: pyramid snapshot, top-k tail, count
    sketch and event total — one frame on the wire. *)

val job : (spec, part) Engine.Job.t
(** The farm as an {!Engine.Job}: units are macro-shards, RNG streams
    are keyed [farm#shard#window]. *)

val run :
  exe:string ->
  ?opts:Engine.Job.opts ->
  spec ->
  (result * Engine.Job.obs, string) Stdlib.result
(** Coordinator: {!Engine.Job.run} over [spec.workers] worker processes
    re-executing [exe], then the shard-order merge. [Error] when any
    worker dies, stalls, or omits a shard; raises [Invalid_argument]
    only on a bad spec (see {!plan}). *)

val run_inline : ?obs:bool -> spec -> result
(** The same computation — per-shard streaming, frame encode/decode,
    shard-order merge — in one process ({!Engine.Job.run_inline}), used
    by the [farm-count-1e8] bench and the test suite. Produces the
    identical [result] record. [obs] (default false) additionally
    emulates a metrics+trace worker, which is what the
    [farm-count-1e8-obs] bench measures against [farm-count-1e8] for
    the <= 5% observability-overhead gate. *)

val pp : Format.formatter -> spec -> result -> unit
(** Deterministic fixed-precision report. Deliberately omits the worker
    count and any timing: stdout must be byte-identical at any
    [--workers]. *)
