(* Sharded multi-process trace farm. See farm.mli for the architecture
   and determinism argument; DESIGN.md section 12 for the wire format. *)

type spec = {
  model : string;
  events : float;
  rate : float;
  bin : float;
  chunk : int;
  seed : int;
  workers : int;
  shards : int;
  top_k : int;
}

let default =
  {
    model = "poisson";
    events = 1e6;
    rate = 1000.;
    bin = 1.;
    chunk = 65536;
    seed = 42;
    workers = 1;
    shards = 128;
    top_k = 64;
  }

(* ---------------- plan ---------------- *)

type plan = { n_bins : int; macro_bins : int; n_macro : int; gen_bins : int }

let ceil_pow2 n =
  let p = ref 1 in
  while !p < n do
    p := !p lsl 1
  done;
  !p

let plan spec =
  if spec.model <> "poisson" then
    invalid_arg
      (Printf.sprintf
         "Farm.plan: model %S cannot farm out (only poisson increments over \
          disjoint windows are independent; renewal/busy-period models \
          carry cross-shard state)"
         spec.model);
  Engine.Job.check_finite "Farm.plan"
    [ ("events", spec.events); ("rate", spec.rate); ("bin", spec.bin) ];
  if spec.events < 1. then invalid_arg "Farm.plan: events must be at least 1";
  if spec.rate <= 0. || spec.bin <= 0. then
    invalid_arg "Farm.plan: rate and bin must be positive";
  if spec.chunk < 1 then invalid_arg "Farm.plan: chunk must be at least 1";
  if spec.workers < 1 then invalid_arg "Farm.plan: workers must be at least 1";
  if spec.shards < 1 then invalid_arg "Farm.plan: shards must be at least 1";
  if spec.top_k < 2 then invalid_arg "Farm.plan: top-k must be at least 2";
  let n_bins =
    Int.max 1 (int_of_float (Float.round (spec.events /. spec.rate /. spec.bin)))
  in
  let gen_bins =
    Int.max 1
      (int_of_float (Float.round (float_of_int spec.chunk /. (spec.rate *. spec.bin))))
  in
  (* Power-of-two macro-shards: every shard-order merge then satisfies
     the snapshot alignment contract b <= 2^v2(a) unconditionally. At
     least one full generation window per shard keeps the per-shard
     streaming state at O(levels + chunk). *)
  let macro_bins =
    ceil_pow2 (Int.max gen_bins ((n_bins + spec.shards - 1) / spec.shards))
  in
  let n_macro = (n_bins + macro_bins - 1) / macro_bins in
  { n_bins; macro_bins; n_macro; gen_bins }

(* ---------------- tail sink (top-k bin counts) ---------------- *)

type topk = { arr : float array; mutable n : int; mutable imin : int }

let topk_create k = { arr = Array.make k neg_infinity; n = 0; imin = 0 }

let topk_offer t v =
  if t.n < Array.length t.arr then begin
    t.arr.(t.n) <- v;
    if v < t.arr.(t.imin) then t.imin <- t.n;
    t.n <- t.n + 1
  end
  else if v > t.arr.(t.imin) then begin
    t.arr.(t.imin) <- v;
    for i = 0 to t.n - 1 do
      if t.arr.(i) < t.arr.(t.imin) then t.imin <- i
    done
  end

let topk_sorted_desc t =
  let a = Array.sub t.arr 0 t.n in
  Array.sort (fun x y -> Float.compare y x) a;
  a

(* Merge two descending arrays, keeping the [keep] largest. Top-k of a
   concatenation equals the merge of per-part top-ks, so shard-order
   folding reconstructs the global tail exactly. *)
let merge_desc a b keep =
  let out = Array.make (Int.min keep (Array.length a + Array.length b)) 0. in
  let i = ref 0 and j = ref 0 in
  for o = 0 to Array.length out - 1 do
    if !j >= Array.length b || (!i < Array.length a && a.(!i) >= b.(!j)) then begin
      out.(o) <- a.(!i);
      incr i
    end
    else begin
      out.(o) <- b.(!j);
      incr j
    end
  done;
  out

(* Hill tail index over the merged top-k, (k+1)-th order statistic as
   the threshold; needs >= 8 positive exceedances of a positive
   threshold (same read-out as Core.Streaming.Window). *)
let hill_of_tops tops =
  let k = Array.length tops - 1 in
  if k < 8 || tops.(k) <= 0. then nan else Stats.Fit.hill tops ~k

(* ---------------- per-macro-shard streaming ---------------- *)

type part = {
  p_snap : Timeseries.Pyramid.snapshot;
  p_tops : float array;  (* sorted descending *)
  p_sketch : Stats.Quantile_sketch.t;  (* per-bin count quantiles *)
  p_events : int;
}

(* All per-bin count sketches share one accuracy so shard partials
   merge; 1% relative value error is the documented read-out bound. *)
let sketch_accuracy = 0.01

(* One macro-shard: generate its bin range window by window (RNG streams
   keyed by absolute (shard, window) coordinates, so the sample path is
   invariant under any worker partition) and fold the counts through a
   dyadic pyramid plus the tail and quantile-sketch sinks. Memory: one
   window of ~chunk events, one chunk of count bins, O(levels) pyramid
   state, O(log range / accuracy) sketch buckets. [tick] fires after
   each generation window — the worker's heartbeat point — and once
   more with the shard's total. *)
let compute_shard ~tick spec i =
  let plan = plan spec in
  let lo = i * plan.macro_bins in
  let hi = Int.min plan.n_bins (lo + plan.macro_bins) in
  let len = hi - lo in
  let pyr = Timeseries.Pyramid.create () in
  let tail = topk_create spec.top_k in
  let sketch = Stats.Quantile_sketch.create ~accuracy:sketch_accuracy () in
  let events = ref 0. in
  let consume =
    Timeseries.Sink.make ~name:"farm-shard"
      ~push:(fun counts ->
        Timeseries.Pyramid.push pyr counts;
        Array.iter
          (fun v ->
            events := !events +. v;
            topk_offer tail v;
            Stats.Quantile_sketch.add sketch v)
          counts)
      ~finish:(fun () -> ())
      ()
  in
  let sink =
    Timeseries.Sink.counts
      ~t_start:(float_of_int lo *. spec.bin)
      ~bin:spec.bin ~n_bins:len ~chunk:spec.chunk consume
  in
  let n_windows = (len + plan.gen_bins - 1) / plan.gen_bins in
  for j = 0 to n_windows - 1 do
    let wlo = lo + (j * plan.gen_bins) in
    let whi = Int.min hi (wlo + plan.gen_bins) in
    let rng =
      Engine.Task.derive_rng ~seed:spec.seed (Printf.sprintf "farm#%d#%d" i j)
    in
    let duration = float_of_int (whi - wlo) *. spec.bin in
    let evs = Traffic.Poisson_proc.homogeneous ~rate:spec.rate ~duration rng in
    Timeseries.Sink.push sink
      (Traffic.Arrival.shift (float_of_int wlo *. spec.bin) evs);
    tick ~events:(int_of_float !events)
  done;
  Timeseries.Sink.finish sink;
  tick ~events:(int_of_float !events);
  {
    p_snap = Timeseries.Pyramid.snapshot pyr;
    p_tops = topk_sorted_desc tail;
    p_sketch = sketch;
    p_events = int_of_float !events;
  }

(* One partial per shard on the wire: event count, tail, snapshot, then
   the sketch as the remainder. *)
let encode_part p =
  let b = Buffer.create 1024 in
  Engine.Frame.Wr.i64 b p.p_events;
  Engine.Frame.Wr.u32 b (Array.length p.p_tops);
  Array.iter (Engine.Frame.Wr.f64 b) p.p_tops;
  Engine.Frame.Wr.str b (Timeseries.Pyramid.snapshot_to_string p.p_snap);
  Buffer.add_string b (Stats.Quantile_sketch.to_string p.p_sketch);
  Buffer.contents b

let decode_part s =
  let open Engine.Frame.Rd in
  match
    let c = of_string s in
    let p_events = i64 c in
    let n = u32 c in
    if n > 1 lsl 20 then raise (Malformed "shard tail too large");
    let p_tops = Array.init n (fun _ -> f64 c) in
    let snap = str c in
    (Timeseries.Pyramid.snapshot_of_string snap,
     Stats.Quantile_sketch.of_string (rest c), p_events, p_tops)
  with
  | Ok p_snap, Ok p_sketch, p_events, p_tops ->
    Ok { p_snap; p_tops; p_sketch; p_events }
  | Error e, _, _, _ | _, Error e, _, _ -> Error e
  | exception Malformed m -> Error m

(* ---------------- coordinator merge + read-out ---------------- *)

type result = {
  bins : int;
  macro_bins : int;
  n_macro : int;
  total : float;
  mean : float;
  h_vt : Lrd.Hurst.estimate;
  h_wav : Lrd.Wavelet.estimate option;
  alpha : float;
  count_sketch : Stats.Quantile_sketch.t;
  chunks : int;
  levels : int;
  resident : int;
}

(* Dyadic variance-time ladder, capped so >= 8 blocks support the
   shallowest fitted level (same ladder as Core.Streaming.Window). *)
let vt_levels covered =
  let rec go m acc =
    if m > covered / 8 then List.rev acc else go (2 * m) (m :: acc)
  in
  go 1 []

(* [parts] holds every macro-shard once, in shard order; merging is a
   left fold in that order, so the coordinator state — and therefore
   the printed report — is bit-identical at any worker count. *)
let merge_parts spec parts =
  let plan = plan spec in
  let pyr = Timeseries.Pyramid.of_snapshot parts.(0).p_snap in
  let tops = ref parts.(0).p_tops in
  let total = ref parts.(0).p_events in
  (* Sketch merging is bucket-wise integer addition — bit-identical
     under any merge tree — but fold in global shard order anyway, the
     same discipline as the pyramid/tail merges. *)
  let sketch = Stats.Quantile_sketch.create ~accuracy:sketch_accuracy () in
  Stats.Quantile_sketch.merge_into sketch parts.(0).p_sketch;
  for i = 1 to plan.n_macro - 1 do
    Timeseries.Pyramid.merge_into pyr parts.(i).p_snap;
    tops := merge_desc !tops parts.(i).p_tops spec.top_k;
    Stats.Quantile_sketch.merge_into sketch parts.(i).p_sketch;
    total := !total + parts.(i).p_events
  done;
  let levels = vt_levels plan.n_bins in
  let h_vt =
    if List.length levels < 3 then { Lrd.Hurst.h = nan; slope = nan; r2 = nan }
    else Lrd.Hurst.variance_time_of_pyramid ~levels pyr
  in
  (* The wire codec carried each shard's octave energies; the shard-order
     merge reassembled them, so this is the 10^9-event logscale diagram
     without any worker having seen more than its macro-shards. *)
  let h_wav =
    match Lrd.Wavelet.estimate_of_pyramid pyr with
    | e -> Some e
    | exception Invalid_argument _ -> None
  in
  {
    bins = plan.n_bins;
    macro_bins = plan.macro_bins;
    n_macro = plan.n_macro;
    total = float_of_int !total;
    mean = Timeseries.Pyramid.mean pyr;
    h_vt;
    h_wav;
    alpha = hill_of_tops !tops;
    count_sketch = sketch;
    chunks = Timeseries.Pyramid.chunks pyr;
    levels = Timeseries.Pyramid.depth pyr;
    resident = Timeseries.Pyramid.resident_floats pyr;
  }

(* ---------------- the job ---------------- *)

let spec_to_json spec =
  Engine.Json.(
    Obj
      [
        ("model", Str spec.model);
        ("events", Float spec.events);
        ("rate", Float spec.rate);
        ("bin", Float spec.bin);
        ("chunk", Int spec.chunk);
        ("seed", Int spec.seed);
        ("workers", Int spec.workers);
        ("shards", Int spec.shards);
        ("top_k", Int spec.top_k);
      ])

let spec_of_json j =
  Engine.Job.read_fields j (fun f ->
      {
        model = f.str "model";
        events = f.float "events";
        rate = f.float "rate";
        bin = f.float "bin";
        chunk = f.int "chunk";
        seed = f.int "seed";
        workers = f.int "workers";
        shards = f.int "shards";
        top_k = f.int "top_k";
      })

let job =
  {
    Engine.Job.name = "farm";
    units = (fun spec -> (plan spec).n_macro);
    compute = compute_shard;
    encode = encode_part;
    decode = decode_part;
    spec_to_json;
    spec_of_json;
  }

let run ~exe ?opts spec =
  Result.map
    (fun (parts, obs) ->
      (Engine.Telemetry.span ~name:"farm.merge" (fun () -> merge_parts spec parts), obs))
    (Engine.Job.run job ~exe ?opts ~workers:spec.workers spec)

let run_inline ?obs spec = merge_parts spec (Engine.Job.run_inline ?obs job spec)

let pp fmt spec r =
  Format.fprintf fmt "farm model=%s events=%g bins=%d bin=%g seed=%d@."
    spec.model spec.events r.bins spec.bin spec.seed;
  Format.fprintf fmt "  macro-shards  %d x %d bins@." r.n_macro r.macro_bins;
  Format.fprintf fmt "  total-count   %.0f@." r.total;
  Format.fprintf fmt "  mean/bin      %.6f@." r.mean;
  Format.fprintf fmt "  H(var-time)   %.6f  (slope %.6f, r2 %.4f)@."
    r.h_vt.Lrd.Hurst.h r.h_vt.Lrd.Hurst.slope r.h_vt.Lrd.Hurst.r2;
  (match r.h_wav with
  | Some w ->
    Format.fprintf fmt
      "  H(wavelet)    %.6f  (slope %.6f, r2 %.4f, se %.4f, j %d..%d)@."
      w.Lrd.Wavelet.h w.Lrd.Wavelet.slope w.Lrd.Wavelet.r2
      w.Lrd.Wavelet.stderr_h w.Lrd.Wavelet.j_lo w.Lrd.Wavelet.j_hi
  | None -> Format.fprintf fmt "  H(wavelet)    n/a@.");
  Format.fprintf fmt "  tail-alpha    %.6f  (top-%d bin counts)@." r.alpha
    spec.top_k;
  (let q = Stats.Quantile_sketch.quantiles r.count_sketch in
   match q [ 0.5; 0.9; 0.99; 0.999 ] with
   | [ p50; p90; p99; p999 ] ->
     Format.fprintf fmt
       "  count-q       p50=%.6g p90=%.6g p99=%.6g p999=%.6g  (rel-err <= \
        %g)@."
       p50 p90 p99 p999
       (Stats.Quantile_sketch.accuracy r.count_sketch)
   | _ -> ());
  Format.fprintf fmt "  pyramid       chunks=%d levels=%d resident-floats=%d@."
    r.chunks r.levels r.resident
