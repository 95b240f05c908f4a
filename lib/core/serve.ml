type spec = {
  source : string;
  events : float;
  rate : float;
  bin : float;
  beta : float;
  chunk : int;
  seed : int;
  window : int;
  cadence : int;
  sliding : bool;
  top_k : int;
  emit : string;
  h_drift : float;
  h_threshold : float;
  rate_drift : float;
  rate_threshold : float;
  alpha_drift : float;
  alpha_threshold : float;
  warmup : int;
}

let default =
  {
    source = "splice";
    events = 1e6;
    rate = 100.;
    bin = 1.;
    beta = 1.2;
    chunk = 65536;
    seed = 42;
    window = 256;
    cadence = 64;
    sliding = true;
    top_k = 64;
    emit = "jsonl";
    h_drift = 0.05;
    h_threshold = 0.25;
    rate_drift = 0.15;
    rate_threshold = 0.75;
    alpha_drift = 0.5;
    alpha_threshold = 2.5;
    warmup = 6;
  }

type summary = {
  bins : int;
  total : float;  (* events counted *)
  estimates : int;
  drifts : int;
  last : Streaming.Window.estimate option;
  interarrival : Stats.Quantile_sketch.t option;
      (* true inter-arrival sketch; stdin source only, where raw event
         times (not just bin counts) pass through the driver *)
}

(* JSON-safe float: JSON has no NaN/inf, so unavailable estimates
   serialise as null. %.6g is locale-independent in OCaml — the output
   is byte-deterministic for a fixed seed. *)
let jf v =
  if Float.is_nan v || not (Float.is_finite v) then "null"
  else Printf.sprintf "%.6g" v

let pp_estimate fmt spec (e : Streaming.Window.estimate) =
  match spec.emit with
  | "jsonl" ->
    Format.fprintf fmt
      "{\"type\":\"estimate\",\"seq\":%d,\"upto\":%d,\"covered\":%d,\"h\":%s,\"r2\":%s,\"hw\":%s,\"rate\":%s,\"alpha\":%s,\"q50\":%s,\"q99\":%s,\"q999\":%s}@."
      e.seq e.upto e.covered (jf e.h.Lrd.Hurst.h) (jf e.h.Lrd.Hurst.r2)
      (jf e.hw) (jf e.rate) (jf e.alpha) (jf e.q50) (jf e.q99) (jf e.q999)
  | _ ->
    Format.fprintf fmt
      "est seq=%-4d upto=%-8d covered=%-6d H=%s r2=%s Hw=%s rate=%s alpha=%s \
       q50=%s q99=%s q999=%s@."
      e.seq e.upto e.covered (jf e.h.Lrd.Hurst.h) (jf e.h.Lrd.Hurst.r2)
      (jf e.hw) (jf e.rate) (jf e.alpha) (jf e.q50) (jf e.q99) (jf e.q999)

let side_name = function Stats.Cusum.Up -> "up" | Stats.Cusum.Down -> "down"

let pp_drift fmt spec ~metric ~target (e : Streaming.Window.estimate)
    (a : Stats.Cusum.alarm) =
  match spec.emit with
  | "jsonl" ->
    Format.fprintf fmt
      "{\"type\":\"drift\",\"metric\":%S,\"side\":%S,\"seq\":%d,\"upto\":%d,\"stat\":%s,\"value\":%s,\"target\":%s}@."
      metric (side_name a.side) e.seq e.upto (jf a.stat) (jf a.value) (jf target)
  | _ ->
    Format.fprintf fmt
      "DRIFT metric=%s side=%s seq=%d upto=%d stat=%s value=%s target=%s@."
      metric (side_name a.side) e.seq e.upto (jf a.stat) (jf a.value) (jf target)

(* The three rolling-estimate monitors. H is watched directly; the rate
   on a log2 scale (so thresholds are relative, not absolute); the Hill
   tail index directly with generous slack (it is the noisiest of the
   three). All self-calibrate against the stream's opening regime. *)
type monitors = {
  m_h : Stats.Cusum.t;
  m_rate : Stats.Cusum.t;
  m_alpha : Stats.Cusum.t;
}

let make_monitors spec =
  {
    m_h =
      Stats.Cusum.create ~drift:spec.h_drift ~threshold:spec.h_threshold
        ~warmup:spec.warmup ();
    m_rate =
      Stats.Cusum.create ~drift:spec.rate_drift ~threshold:spec.rate_threshold
        ~warmup:spec.warmup ();
    m_alpha =
      Stats.Cusum.create ~drift:spec.alpha_drift ~threshold:spec.alpha_threshold
        ~warmup:spec.warmup ();
  }

let observe_monitors fmt spec mons drifts (e : Streaming.Window.estimate) =
  let watch det metric value =
    match Stats.Cusum.observe det value with
    | None -> ()
    | Some a ->
      incr drifts;
      let target =
        match Stats.Cusum.target det with Some m -> m | None -> nan
      in
      (* Adopt the post-shift regime as the new baseline: one drift
         event per regime change, not one per estimate while the shift
         persists. *)
      Stats.Cusum.recalibrate det;
      pp_drift fmt spec ~metric ~target e a;
      Engine.Log.warn "serve.drift"
        [
          ("metric", Engine.Log.S metric);
          ("side", Engine.Log.S (side_name a.Stats.Cusum.side));
          ("seq", Engine.Log.I e.seq);
          ("upto", Engine.Log.I e.upto);
          ("stat", Engine.Log.F a.stat);
          ("value", Engine.Log.F a.value);
          ("target", Engine.Log.F target);
        ]
  in
  watch mons.m_h "h" e.h.Lrd.Hurst.h;
  watch mons.m_rate "rate" (if e.rate > 0. then Float.log2 e.rate else nan);
  watch mons.m_alpha "alpha" e.alpha

(* ------------------------- count sources --------------------------- *)

(* Incremental event-time binner for unbounded stdin streams:
   [Sink.counts] needs the horizon up front, this does not. The trailing
   partial bin is emitted, so every event lands in some bin. *)
let bin_stdin ?ia ~bin ~chunk push_counts ic =
  let buf = Array.make (Int.max 1 chunk) 0. in
  let fill = ref 0 and cur = ref 0 and cnt = ref 0. in
  let last = ref neg_infinity in
  let seen = ref false in
  let prev_t = ref nan in
  let emit_bin () =
    buf.(!fill) <- !cnt;
    incr fill;
    cnt := 0.;
    if !fill = Array.length buf then begin
      push_counts buf 0 !fill;
      fill := 0
    end
  in
  let on_event t =
    if t < !last then
      invalid_arg
        (Printf.sprintf
           "serve: event times must be non-decreasing (%g after %g)" t !last);
    last := t;
    if t >= 0. then begin
      seen := true;
      (match ia with
      | Some sk when not (Float.is_nan !prev_t) ->
        Stats.Quantile_sketch.add sk (t -. !prev_t)
      | _ -> ());
      prev_t := t;
      let i = int_of_float (t /. bin) in
      while !cur < i do
        emit_bin ();
        incr cur
      done;
      cnt := !cnt +. 1.
    end
  in
  (try
     while true do
       let line = String.trim (input_line ic) in
       if line <> "" && line.[0] <> '#' then
         match float_of_string_opt line with
         | Some t when Float.is_finite t -> on_event t
         | _ -> invalid_arg (Printf.sprintf "serve: bad event time %S" line)
     done
   with End_of_file -> ());
  if !seen then emit_bin ();
  if !fill > 0 then push_counts buf 0 !fill

let poisson_counts ~rate ~bin ~chunk ~n_bins rng push_counts =
  let d = Dist.Poisson_d.create ~mean:(rate *. bin) in
  let buf = Array.make (Int.max 1 chunk) 0. in
  let left = ref n_bins in
  while !left > 0 do
    let take = Int.min !left (Array.length buf) in
    for i = 0 to take - 1 do
      buf.(i) <- float_of_int (Dist.Poisson_d.sample d rng)
    done;
    push_counts buf 0 take;
    left := !left - take
  done

(* ON/OFF aggregate tuned to the same marginal rate as the Poisson
   source (16 sources at ~50% duty), so a Poisson -> ON/OFF splice
   shifts the correlation structure (H) without moving the rate — the
   drift the H monitor, not the rate monitor, should flag. *)
let onoff_sources_matched spec =
  List.init 16 (fun _ ->
      Traffic.Onoff.pareto_source ~beta:spec.beta
        ~mean_period:(50. *. spec.bin)
        ~on_rate:(2. *. spec.rate /. 16.))

let onoff_counts spec ~n_bins rng push_counts =
  Traffic.Onoff.iter_chunks ~chunk:spec.chunk
    ~sources:(onoff_sources_matched spec) ~dt:spec.bin ~n:n_bins rng
    (fun c -> push_counts c 0 (Array.length c))

(* Diurnally modulated Poisson: the paper's Fig. 1 WWW profile replayed
   as a rate envelope. One "day" is compressed to [day_bins] bins (at
   least 4 cycles over the run when the stream is long enough), the
   per-hour arrival rate is [24 * fraction * rate] so the daily average
   stays [rate], and bins are sampled independently Poisson. The rolling
   variance-time H reads the slow envelope as spurious long memory; the
   wavelet H differences it away — the serve-side demo of the estimator
   disagreement. *)
let diurnal_counts spec ~n_bins rng push_counts =
  let profile = Trace.Diurnal.www in
  let day_bins = Int.max 96 (n_bins / 4) in
  (* Linearly interpolate between the hourly weights: a continuous
     piecewise-linear envelope. Stepping the rate once per hour instead
     would inject discontinuities whose Haar details contaminate every
     octave — exactly the artefact the wavelet's trend robustness (one
     vanishing moment, so constants cancel and smooth drift is confined
     to the coarsest octaves) is supposed to dodge. *)
  let rate_at i =
    let u = float_of_int (i mod day_bins) /. float_of_int day_bins *. 24. in
    let h = int_of_float u in
    let frac = u -. float_of_int h in
    let f0 = Trace.Diurnal.fraction profile h
    and f1 = Trace.Diurnal.fraction profile (h + 1) in
    spec.rate *. 24. *. (f0 +. (frac *. (f1 -. f0)))
  in
  let buf = Array.make (Int.max 1 spec.chunk) 0. in
  let fill = ref 0 in
  for i = 0 to n_bins - 1 do
    let d =
      Dist.Poisson_d.create ~mean:(Float.max 1e-9 (rate_at i *. spec.bin))
    in
    buf.(!fill) <- float_of_int (Dist.Poisson_d.sample d rng);
    incr fill;
    if !fill = Array.length buf then begin
      push_counts buf 0 !fill;
      fill := 0
    end
  done;
  if !fill > 0 then push_counts buf 0 !fill

let n_bins_of spec =
  Int.max 1 (int_of_float (Float.round (spec.events /. spec.rate /. spec.bin)))

let feed ?ia spec push_counts =
  let rng tag = Engine.Task.derive_rng ~seed:spec.seed ("serve" ^ tag) in
  match spec.source with
  | "stdin" -> bin_stdin ?ia ~bin:spec.bin ~chunk:spec.chunk push_counts stdin
  | "poisson" ->
    poisson_counts ~rate:spec.rate ~bin:spec.bin ~chunk:spec.chunk
      ~n_bins:(n_bins_of spec) (rng "") push_counts
  | "onoff" -> onoff_counts spec ~n_bins:(n_bins_of spec) (rng "") push_counts
  | "diurnal" ->
    diurnal_counts spec ~n_bins:(n_bins_of spec) (rng "") push_counts
  | "splice" ->
    (* First half Poisson, second half ON/OFF at the same marginal rate:
       the canonical injected regime change. *)
    let n = n_bins_of spec in
    let n1 = n / 2 in
    poisson_counts ~rate:spec.rate ~bin:spec.bin ~chunk:spec.chunk ~n_bins:n1
      (rng "#poisson") push_counts;
    onoff_counts spec ~n_bins:(n - n1) (rng "#onoff") push_counts
  | s ->
    invalid_arg
      (Printf.sprintf
         "serve: unknown source %S (want splice|poisson|onoff|diurnal|stdin)" s)

let run ?(fmt = Format.std_formatter) spec =
  let mons = make_monitors spec in
  let drifts = ref 0 in
  let estimates = ref 0 in
  let last = ref None in
  let total = ref 0. in
  let emit e =
    incr estimates;
    last := Some e;
    pp_estimate fmt spec e;
    observe_monitors fmt spec mons drifts e
  in
  let win =
    Streaming.Window.create
      ~kind:(if spec.sliding then Streaming.Window.Sliding else Tumbling)
      ~window:spec.window ~cadence:spec.cadence ~top_k:spec.top_k ~bin:spec.bin
      ~emit ()
  in
  let ia =
    if spec.source = "stdin" then Some (Stats.Quantile_sketch.create ())
    else None
  in
  feed ?ia spec (fun buf pos len ->
      for i = pos to pos + len - 1 do
        total := !total +. buf.(i)
      done;
      Streaming.Window.push_slice win buf pos len);
  let s =
    {
      bins = Streaming.Window.bins win;
      total = !total;
      estimates = !estimates;
      drifts = !drifts;
      last = !last;
      interarrival = ia;
    }
  in
  let iaq =
    match ia with
    | Some sk when Stats.Quantile_sketch.count sk > 0 ->
      let q p = Stats.Quantile_sketch.quantile sk p in
      Some (q 0.5, q 0.99, q 0.999)
    | _ -> None
  in
  (match spec.emit with
  | "jsonl" ->
    let ia_fields =
      match iaq with
      | None -> ""
      | Some (q50, q99, q999) ->
        Printf.sprintf ",\"ia50\":%s,\"ia99\":%s,\"ia999\":%s" (jf q50) (jf q99)
          (jf q999)
    in
    Format.fprintf fmt
      "{\"type\":\"summary\",\"bins\":%d,\"events\":%s,\"estimates\":%d,\"drifts\":%d%s}@."
      s.bins (jf s.total) s.estimates s.drifts ia_fields
  | _ ->
    let ia_fields =
      match iaq with
      | None -> ""
      | Some (q50, q99, q999) ->
        Printf.sprintf " ia50=%s ia99=%s ia999=%s" (jf q50) (jf q99) (jf q999)
    in
    Format.fprintf fmt "serve done bins=%d events=%s estimates=%d drifts=%d%s@."
      s.bins (jf s.total) s.estimates s.drifts ia_fields);
  s
