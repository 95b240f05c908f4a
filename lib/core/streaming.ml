type spec = {
  model : string;
  events : float;
  rate : float;
  bin : float;
  beta : float;
  chunk : int;
  seed : int;
  materialized : bool;
  wavelet : bool;
}

let default =
  {
    model = "poisson";
    events = 1e6;
    rate = 1000.;
    bin = 1.;
    beta = 1.5;
    chunk = 65536;
    seed = 42;
    materialized = false;
    wavelet = true;
  }

(* How many generation shards a wave materialises at once. Fixed (never
   derived from the jobs budget) so the shard layout — and therefore the
   byte output — is identical at any [--jobs]; [Engine.Par.map] already
   guarantees order- and budget-independent results within a wave. *)
let wave_width = 8

type result = {
  bins : int;
  total : float;  (* events actually counted *)
  mean : float;
  h_vt : Lrd.Hurst.estimate;
  h_rs : Lrd.Hurst.estimate;
  h_wav : Lrd.Wavelet.estimate option;
      (* [None] when disabled by the spec or too few bins/octaves *)
  count_sketch : Stats.Quantile_sketch.t;
      (* per-bin count quantiles; identical on both analysis paths *)
  chunks : int;  (* chunks pushed through the pyramid *)
  levels : int;  (* dyadic cascade depth *)
  resident : int;  (* peak floats resident in the pyramid *)
}

let rs_max_block n_bins = Int.max 1 (Int.min 32768 (n_bins / 4))

(* Shared read-out: the analysis sinks every model's count chunks feed.
   Registering [default_levels n_bins] up front makes every variance-time
   level exact, so the streamed estimate equals the materialized one. *)
let analysis_sinks n_bins =
  let levels = Timeseries.Counts.default_levels n_bins in
  let pyr = Timeseries.Pyramid.create ~levels () in
  let rs = Lrd.Hurst.rs_sink ~max_block:(rs_max_block n_bins) () in
  let total =
    Timeseries.Sink.fold ~init:0. ~f:(fun acc c ->
        Array.fold_left ( +. ) acc c)
  in
  let sketch =
    Stats.Quantile_sketch.create ~accuracy:Count_summary.sketch_accuracy ()
  in
  let sketch_sink =
    Timeseries.Sink.make ~name:"count-sketch"
      ~push:(Array.iter (Stats.Quantile_sketch.add sketch))
      ~finish:(fun () -> sketch)
      ()
  in
  let sink =
    Timeseries.Sink.tee (Timeseries.Sink.of_pyramid pyr)
      (Timeseries.Sink.tee rs (Timeseries.Sink.tee total sketch_sink))
  in
  (levels, sink)

let result_of ~wavelet ~levels ~n_bins (pyr, (h_rs, (total, sketch))) =
  {
    bins = n_bins;
    total;
    mean = Timeseries.Pyramid.mean pyr;
    h_vt = Count_summary.variance_time ~levels pyr;
    h_rs;
    h_wav = (if wavelet then Count_summary.wavelet pyr else None);
    count_sketch = sketch;
    chunks = Timeseries.Pyramid.chunks pyr;
    levels = Timeseries.Pyramid.depth pyr;
    resident = Timeseries.Pyramid.resident_floats pyr;
  }

(* Poisson: independent per-shard event streams on bin-aligned windows,
   generated [wave_width] shards at a time across the [Par] budget and
   folded into the counting sink in shard order. Every shard draws from
   [Task.derive_rng ~seed "stream#c"], so the sample path depends only on
   (seed, rate, bin, chunk, bins) — not on scheduling. Shards are sized
   to hold ~[chunk] expected events each, so a wave keeps
   O(wave_width * chunk) floats in flight whatever the event density. *)
let poisson_shard_bins ~rate ~bin ~chunk =
  Int.max 1 (int_of_float (Float.round (float_of_int chunk /. (rate *. bin))))

let poisson_shard ~seed ~rate ~bin ~shard_bins ~n_bins c =
  let lo_bin = c * shard_bins in
  let hi_bin = Int.min n_bins (lo_bin + shard_bins) in
  let rng = Engine.Task.derive_rng ~seed (Printf.sprintf "stream#%d" c) in
  let duration = float_of_int (hi_bin - lo_bin) *. bin in
  let events = Traffic.Poisson_proc.homogeneous ~rate ~duration rng in
  Traffic.Arrival.shift (float_of_int lo_bin *. bin) events

let poisson_waves ~seed ~rate ~bin ~chunk ~n_bins f =
  let shard_bins = poisson_shard_bins ~rate ~bin ~chunk in
  let n_shards = (n_bins + shard_bins - 1) / shard_bins in
  let w = ref 0 in
  while !w < n_shards do
    let upto = Int.min n_shards (!w + wave_width) in
    let shards = List.init (upto - !w) (fun i -> !w + i) in
    let pieces =
      Engine.Par.map (poisson_shard ~seed ~rate ~bin ~shard_bins ~n_bins) shards
    in
    List.iter f pieces;
    w := upto
  done

let run_poisson spec =
  let n_bins =
    Int.max 1 (int_of_float (Float.round (spec.events /. spec.rate /. spec.bin)))
  in
  let levels, analysis = analysis_sinks n_bins in
  let sink =
    Timeseries.Sink.counts ~bin:spec.bin ~n_bins ~chunk:spec.chunk analysis
  in
  poisson_waves ~seed:spec.seed ~rate:spec.rate ~bin:spec.bin ~chunk:spec.chunk
    ~n_bins (Timeseries.Sink.push sink);
  (n_bins, levels, Timeseries.Sink.finish sink)

let run_counts spec iter =
  let n_bins = Int.max 1 (int_of_float (Float.round spec.events)) in
  let levels, sink = analysis_sinks n_bins in
  iter ~n_bins (Timeseries.Sink.push sink);
  (n_bins, levels, Timeseries.Sink.finish sink)

let pareto_location ~beta = if beta > 1. then (beta -. 1.) /. beta else 1.

let onoff_sources spec =
  List.init 16 (fun _ ->
      Traffic.Onoff.pareto_source ~beta:spec.beta
        ~mean_period:(50. *. spec.bin) ~on_rate:spec.rate)

let stream spec =
  let rng () = Engine.Task.derive_rng ~seed:spec.seed "stream" in
  match spec.model with
  | "poisson" -> run_poisson spec
  | "pareto" ->
    run_counts spec (fun ~n_bins push ->
        Lrd.Pareto_count.iter_count_chunks ~chunk:spec.chunk ~beta:spec.beta
          ~a:1. ~bin:spec.bin ~bins:n_bins (rng ()) push)
  | "mginf" ->
    run_counts spec (fun ~n_bins push ->
        let service =
          Dist.Pareto.sample
            (Dist.Pareto.create
               ~location:(pareto_location ~beta:spec.beta)
               ~shape:spec.beta)
        in
        Traffic.Mg_inf.iter_chunks ~chunk:spec.chunk ~rate:spec.rate ~service
          ~dt:spec.bin ~n:n_bins (rng ()) push)
  | "onoff" ->
    run_counts spec (fun ~n_bins push ->
        Traffic.Onoff.iter_chunks ~chunk:spec.chunk
          ~sources:(onoff_sources spec) ~dt:spec.bin ~n:n_bins (rng ()) push)
  | m ->
    invalid_arg
      (Printf.sprintf
         "Streaming.stream: unknown model %S (want poisson|pareto|mginf|onoff)"
         m)

(* The materialized baseline: the same sample path built as one big
   array, analysed through the pre-streaming entry points
   ([Counts.of_events] / [Hurst.variance_time] / [Hurst.rescaled_range]).
   Used by [make stream-smoke] to check the streamed estimates agree. *)
let materialize spec =
  let counts =
    match spec.model with
    | "poisson" ->
      let n_bins =
        Int.max 1
          (int_of_float (Float.round (spec.events /. spec.rate /. spec.bin)))
      in
      let pieces = ref [] in
      poisson_waves ~seed:spec.seed ~rate:spec.rate ~bin:spec.bin
        ~chunk:spec.chunk ~n_bins (fun a -> pieces := a :: !pieces);
      let events = Array.concat (List.rev !pieces) in
      Timeseries.Counts.of_events ~bin:spec.bin
        ~t_end:(float_of_int n_bins *. spec.bin)
        events
    | "pareto" ->
      let n_bins = Int.max 1 (int_of_float (Float.round spec.events)) in
      Lrd.Pareto_count.count_process ~beta:spec.beta ~a:1. ~bin:spec.bin
        ~bins:n_bins
        (Engine.Task.derive_rng ~seed:spec.seed "stream")
    | "mginf" ->
      let n_bins = Int.max 1 (int_of_float (Float.round spec.events)) in
      let service =
        Dist.Pareto.sample
          (Dist.Pareto.create
             ~location:(pareto_location ~beta:spec.beta)
             ~shape:spec.beta)
      in
      Traffic.Mg_inf.count_process ~rate:spec.rate ~service ~dt:spec.bin
        ~n:n_bins
        (Engine.Task.derive_rng ~seed:spec.seed "stream")
    | "onoff" ->
      let n_bins = Int.max 1 (int_of_float (Float.round spec.events)) in
      Traffic.Onoff.count_process ~sources:(onoff_sources spec) ~dt:spec.bin
        ~n:n_bins
        (Engine.Task.derive_rng ~seed:spec.seed "stream")
    | m -> invalid_arg (Printf.sprintf "Streaming.materialize: unknown model %S" m)
  in
  let n_bins = Array.length counts in
  let h_vt = Count_summary.variance_time_of_counts counts in
  let h_rs =
    if n_bins >= 32 then Lrd.Hurst.rescaled_range ~max_block:(rs_max_block n_bins) counts
    else { Lrd.Hurst.h = nan; slope = nan; r2 = nan }
  in
  let h_wav =
    if spec.wavelet && n_bins >= 16 then
      match Lrd.Wavelet.estimate counts with
      | e -> Some e
      | exception Invalid_argument _ -> None
    else None
  in
  (* The identical sketch the streamed path builds: the chunking only
     changes add order, and bucket increments commute. *)
  let count_sketch =
    Stats.Quantile_sketch.create ~accuracy:Count_summary.sketch_accuracy ()
  in
  Array.iter (Stats.Quantile_sketch.add count_sketch) counts;
  {
    bins = n_bins;
    total = Array.fold_left ( +. ) 0. counts;
    mean = Stats.Descriptive.mean counts;
    h_vt;
    h_rs;
    h_wav;
    count_sketch;
    chunks = 0;
    levels = 0;
    resident = n_bins;
  }

let run spec =
  Engine.Job.check_finite "stream"
    [
      ("events", spec.events); ("rate", spec.rate); ("bin", spec.bin);
      ("beta", spec.beta);
    ];
  if spec.materialized then materialize spec
  else
    let n_bins, levels, out = stream spec in
    result_of ~wavelet:spec.wavelet ~levels ~n_bins out

let pp fmt spec r =
  Format.fprintf fmt "stream model=%s events=%g bins=%d bin=%g seed=%d%s@."
    spec.model spec.events r.bins spec.bin spec.seed
    (if spec.materialized then " (materialized)" else "");
  Format.fprintf fmt "  total-count   %.0f@." r.total;
  Format.fprintf fmt "  mean/bin      %.6f@." r.mean;
  Format.fprintf fmt "  H(var-time)   %.6f  (slope %.6f, r2 %.4f)@."
    r.h_vt.Lrd.Hurst.h r.h_vt.Lrd.Hurst.slope r.h_vt.Lrd.Hurst.r2;
  Format.fprintf fmt "  H(R/S)        %.6f  (r2 %.4f)@." r.h_rs.Lrd.Hurst.h
    r.h_rs.Lrd.Hurst.r2;
  if spec.wavelet then Count_summary.pp_wavelet fmt r.h_wav;
  Count_summary.pp_count_q fmt r.count_sketch;
  if not spec.materialized then
    Format.fprintf fmt "  pyramid       chunks=%d levels=%d resident-floats=%d@."
      r.chunks r.levels r.resident

(* ------------------------- windowed estimation ---------------------- *)

module Window = struct
  type kind = Tumbling | Sliding

  type estimate = {
    seq : int;
    upto : int;
    covered : int;
    h : Lrd.Hurst.estimate;
    hw : float;  (* rolling wavelet H; nan when too few octaves *)
    rate : float;
    alpha : float;
    q50 : float;  (* per-bin count quantiles over the covered window, *)
    q99 : float;  (* from the panes' mergeable sketches (1% accuracy) *)
    q999 : float;
  }

  type t = {
    kind : kind;
    window : int;  (* pane size in bins; a power of two *)
    cadence : int;  (* sliding emit period; divides [window] *)
    bin : float;
    top_k : int;
    emit : estimate -> unit;
    mutable cur : Count_summary.t;  (* the current tumbling pane *)
    mutable prev : Count_summary.part option;  (* the completed pane *)
    mutable since : int;  (* bins since the last sliding emit *)
    mutable total : int;  (* bins consumed overall *)
    mutable seq : int;  (* estimates emitted *)
  }

  let create ~kind ~window ?cadence ?(top_k = Count_summary.top_k) ~bin ~emit
      () =
    if window < 16 then
      invalid_arg
        (Printf.sprintf "Streaming.Window.create: window = %d (want >= 16)"
           window);
    if bin <= 0. then
      invalid_arg
        (Printf.sprintf "Streaming.Window.create: bin = %g (want > 0)" bin);
    let cur = Count_summary.create ~top_k () in
    (* Power-of-two panes make the pane merge unconditionally exact
       (count of the full pane has maximal 2-adic valuation); a
       power-of-two cadence then divides the pane, so emits and pane
       rotations never straddle. *)
    let window = Count_summary.ceil_pow2 window in
    let cadence =
      match cadence with
      | None -> Int.max 1 (window / 4)
      | Some c ->
        if c < 1 then
          invalid_arg
            (Printf.sprintf "Streaming.Window.create: cadence = %d (want >= 1)"
               c);
        Int.min window (Count_summary.ceil_pow2 c)
    in
    {
      kind;
      window;
      cadence;
      bin;
      top_k;
      emit;
      cur;
      prev = None;
      since = 0;
      total = 0;
      seq = 0;
    }

  let bins t = t.total

  let estimate_of t s =
    t.seq <- t.seq + 1;
    let q = Stats.Quantile_sketch.quantile (Count_summary.sketch s) in
    let pyr = Count_summary.pyramid s in
    {
      seq = t.seq;
      upto = t.total;
      covered = Count_summary.count s;
      h = Count_summary.h_vt s;
      hw =
        (match Count_summary.wavelet pyr with
        | Some e -> e.Lrd.Wavelet.h
        | None -> nan);
      rate = Timeseries.Pyramid.mean pyr /. t.bin;
      alpha = Count_summary.alpha s;
      q50 = q 0.5;
      q99 = q 0.99;
      q999 = q 0.999;
    }

  let emit_sliding t =
    match t.prev with
    | None -> if Count_summary.count t.cur >= 16 then t.emit (estimate_of t t.cur)
    | Some prev ->
      (* Full previous pane + current partial pane: the rolling window
         covers the last [window + fill] bins. The merge replays
         concatenation exactly (see {!Count_summary.absorb}). *)
      let s = Count_summary.create ~top_k:t.top_k () in
      Count_summary.absorb s prev;
      Count_summary.absorb s (Count_summary.part t.cur);
      t.emit (estimate_of t s)

  let rotate t =
    (match t.kind with
    | Tumbling -> t.emit (estimate_of t t.cur)
    | Sliding -> t.prev <- Some (Count_summary.part t.cur));
    t.cur <- Count_summary.create ~top_k:t.top_k ()

  let push_slice t xs pos len =
    let pos = ref pos and len = ref len in
    while !len > 0 do
      let take = Int.min !len (t.window - Count_summary.count t.cur) in
      let take =
        match t.kind with
        | Sliding -> Int.min take (t.cadence - t.since)
        | Tumbling -> take
      in
      Count_summary.push_slice t.cur xs !pos take;
      t.total <- t.total + take;
      pos := !pos + take;
      len := !len - take;
      (match t.kind with
      | Sliding ->
        t.since <- t.since + take;
        if t.since = t.cadence then begin
          emit_sliding t;
          t.since <- 0
        end
      | Tumbling -> ());
      if Count_summary.count t.cur = t.window then rotate t
    done
end
