(** The [wanpoisson stream] driver: one-pass LRD analysis of traces that
    never materialise.

    A model generates its count series in chunks ({!Traffic.Poisson_proc},
    {!Lrd.Pareto_count}, {!Traffic.Mg_inf}, {!Traffic.Onoff}); the chunks
    flow through one {!Timeseries.Sink} tee into the aggregation pyramid
    (variance-time curve), the R/S sink and a running total — so a
    10^8-event Poisson trace is analysed in O(levels x chunk) memory.

    Poisson generation is sharded: bin-aligned windows holding ~[chunk]
    expected events each are generated [wave_width] at a time across the
    {!Engine.Par} budget and folded into the sink in shard order. Shard
    RNG streams come from [Task.derive_rng ~seed "stream#c"], and the
    wave width is a constant, so stdout is byte-identical at any
    [--jobs]. Because every {!Timeseries.Counts.default_levels} level is
    registered in the pyramid up front, the streamed variance-time (and
    R/S) estimates match the materialized ones on the same sample path
    to rounding — the pyramid's decomposed subscribers sum block
    boundary runs whose parenthesisation depends on the chunking, so
    agreement is to ~1 ulp rather than bit-exact. [make stream-smoke]
    checks equal event totals and Hurst agreement within the 0.03
    acceptance band; the test suite pins the 1e-9 relative bound. *)

type spec = {
  model : string;  (** poisson | pareto | mginf | onoff *)
  events : float;
      (** poisson: expected event count (bins = events/rate/bin);
          other models: the number of count bins to sample. *)
  rate : float;  (** poisson / mginf arrival rate; onoff per-source ON rate *)
  bin : float;  (** bin width (s) *)
  beta : float;  (** Pareto shape for pareto / mginf / onoff *)
  chunk : int;  (** chunk size (bins or events) for the streaming path *)
  seed : int;
  materialized : bool;
      (** analyse the same sample path through the array entry points
          (O(bins) memory) instead of the sinks — the baseline the smoke
          test diffs against *)
  wavelet : bool;
      (** report the Abry-Veitch wavelet H (default true). The octave
          energies are accumulated by the pyramid either way (a fused
          ~3 flop/pair side effect of the cascade); this gates only the
          read-out and the report line. *)
}

val default : spec

type result = {
  bins : int;
  total : float;  (** events actually counted *)
  mean : float;
  h_vt : Lrd.Hurst.estimate;
  h_rs : Lrd.Hurst.estimate;
  h_wav : Lrd.Wavelet.estimate option;
      (** Abry-Veitch wavelet H from the streamed octave energies
          (batch [Lrd.Wavelet.estimate] when materialized — the same
          logscale diagram bit-for-bit on the same counts); [None] when
          disabled or the series is too short for 2 fitted octaves. *)
  count_sketch : Stats.Quantile_sketch.t;
      (** Per-bin count quantile sketch (1% accuracy). Bucket increments
          commute, so the streamed and materialized paths build the
          identical sketch on the same sample path — the count-q report
          line is byte-identical between them. *)
  chunks : int;  (** chunks pushed through the pyramid (0 if materialized) *)
  levels : int;  (** dyadic cascade depth (0 if materialized) *)
  resident : int;  (** peak floats resident in the pyramid *)
}

val run : spec -> result
(** Raises [Invalid_argument] on an unknown [model] or a non-finite
    [events], [rate], [bin] or [beta] (naming the field). [h_vt] has
    [nan] fields when there are too few bins for 2 variance-time levels
    (under 20) or no events ({!Count_summary.variance_time}). The onoff
    model's streaming and materialized paths are different (equally
    valid) sample paths — the streaming path gives each source a split
    RNG sub-stream; the other models agree bit for bit. *)

val pp : Format.formatter -> spec -> result -> unit
(** Deterministic fixed-precision report (what [wanpoisson stream]
    prints). *)

(** Windowed rolling estimation over a stream of count bins.

    A window manager consumes bin-count chunks and republishes rolling
    estimates — variance-time Hurst, Hill tail index of the marginal,
    event rate — without ever materialising the window. Both kinds are
    built from {e tumbling panes}: power-of-two-sized
    {!Count_summary}s, so reading a sliding window is one exact in-order
    merge (the full previous pane's {!Count_summary.part}, then the
    partial current pane's; see {!Count_summary.absorb}) and never a
    moment subtraction. Every read-out is {!Count_summary}'s.

    - [Tumbling]: one estimate per completed pane, covering exactly
      [window] bins.
    - [Sliding]: one estimate every [cadence] bins, covering the last
      [window + fill] bins (between [window] and [2 * window] once the
      first pane completes; the opening partial pane is estimated alone
      once it holds >= 16 bins).

    Memory is O(log window + top_k) per pane — the window itself is
    never stored. *)
module Window : sig
  type kind = Tumbling | Sliding

  type estimate = {
    seq : int;  (** 1-based estimate index. *)
    upto : int;  (** Bins consumed when this estimate was emitted. *)
    covered : int;  (** Bins the estimate covers (ending at [upto]). *)
    (* The {!Count_summary} read-outs over the covered bins. *)
    h : Lrd.Hurst.estimate;  (** Variance-time H ([nan] when too short or quiet). *)
    hw : float;
        (** Wavelet H ([nan] when too few octaves); unlike [h], honest
            under diurnal drift, which the ladder reads as long memory. *)
    rate : float;  (** Events per time unit: mean bin count / bin width. *)
    alpha : float;  (** Hill tail index over the top-[top_k] bin counts. *)
    q50 : float;  (** Per-bin count quantiles (1% accuracy). *)
    q99 : float;
    q999 : float;
  }

  type t

  val create :
    kind:kind ->
    window:int ->
    ?cadence:int ->
    ?top_k:int ->
    bin:float ->
    emit:(estimate -> unit) ->
    unit ->
    t
  (** [window] (bins) is rounded up to a power of two; [cadence]
      (sliding only; default [window / 4]) is rounded up to a power of
      two and clamped to [window], so it always divides the pane.
      [top_k] (default 64) bounds the tail read-out. Raises
      [Invalid_argument] when [window < 16], [bin <= 0], [cadence < 1]
      or [top_k < 2]. *)

  val push_slice : t -> float array -> int -> int -> unit
  (** [push_slice t xs pos len] feeds the bin counts
      [xs.(pos .. pos+len-1)]; [emit] fires synchronously as boundaries
      pass. *)

  val bins : t -> int
  (** Total bins consumed. *)
end
