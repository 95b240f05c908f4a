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
  }

(* ---------------- plan ---------------- *)

type plan = { n_bins : int; macro_bins : int; n_macro : int; gen_bins : int }

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
    Count_summary.ceil_pow2
      (Int.max gen_bins ((n_bins + spec.shards - 1) / spec.shards))
  in
  let n_macro = (n_bins + macro_bins - 1) / macro_bins in
  { n_bins; macro_bins; n_macro; gen_bins }

(* ---------------- per-macro-shard streaming ---------------- *)

(* One macro-shard: generate its bin range window by window (RNG streams
   keyed by absolute (shard, window) coordinates, so the sample path is
   invariant under any worker partition) and fold the counts into a
   {!Count_summary}. Memory: one window of ~chunk events, one chunk of
   count bins and the summary's O(levels + top-k + sketch buckets).
   [tick] fires after each generation window — the worker's heartbeat
   point — and once more with the shard's total. *)
let compute_shard ~tick spec i =
  let plan = plan spec in
  let lo = i * plan.macro_bins in
  let hi = Int.min plan.n_bins (lo + plan.macro_bins) in
  let len = hi - lo in
  let summary = Count_summary.create () in
  let consume =
    Timeseries.Sink.make ~name:"farm-shard"
      ~push:(fun counts ->
        Count_summary.push_slice summary counts 0 (Array.length counts))
      ~finish:(fun () -> ())
      ()
  in
  let events () = int_of_float (Count_summary.total summary) in
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
    tick ~events:(events ())
  done;
  Timeseries.Sink.finish sink;
  tick ~events:(events ());
  Count_summary.part summary

(* ---------------- coordinator merge ---------------- *)

(* [parts] holds every macro-shard once, in shard order; merging is a
   left fold in that order, so the merged summary — and therefore the
   printed report — is bit-identical at any worker count. *)
let merge_parts parts =
  let s = Count_summary.create () in
  Array.iter (Count_summary.absorb s) parts;
  s

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
      })

let job =
  {
    Engine.Job.name = "farm";
    units = (fun spec -> (plan spec).n_macro);
    compute = compute_shard;
    encode = Count_summary.encode;
    decode = Count_summary.decode;
    spec_to_json;
    spec_of_json;
  }

let run ~exe ?opts spec =
  Result.map
    (fun (parts, obs) ->
      (Engine.Telemetry.span ~name:"farm.merge" (fun () -> merge_parts parts), obs))
    (Engine.Job.run job ~exe ?opts ~workers:spec.workers spec)

let run_inline ?obs spec = merge_parts (Engine.Job.run_inline ?obs job spec)

(* The shard-merged octave energies make this the whole trace's
   logscale diagram, though no worker saw more than its macro-shards. *)
let pp fmt spec s =
  let plan = plan spec in
  let pyr = Count_summary.pyramid s in
  let h = Count_summary.h_vt s in
  Format.fprintf fmt "farm model=%s events=%g bins=%d bin=%g seed=%d@."
    spec.model spec.events plan.n_bins spec.bin spec.seed;
  Format.fprintf fmt "  macro-shards  %d x %d bins@." plan.n_macro
    plan.macro_bins;
  Format.fprintf fmt "  total-count   %.0f@." (Count_summary.total s);
  Format.fprintf fmt "  mean/bin      %.6f@." (Timeseries.Pyramid.mean pyr);
  Format.fprintf fmt "  H(var-time)   %.6f  (slope %.6f, r2 %.4f)@."
    h.Lrd.Hurst.h h.Lrd.Hurst.slope h.Lrd.Hurst.r2;
  Count_summary.pp_wavelet fmt (Count_summary.wavelet pyr);
  Format.fprintf fmt "  tail-alpha    %.6f  (top-%d bin counts)@."
    (Count_summary.alpha s) Count_summary.top_k;
  Count_summary.pp_count_q fmt (Count_summary.sketch s);
  Format.fprintf fmt "  pyramid       chunks=%d levels=%d resident-floats=%d@."
    (Timeseries.Pyramid.chunks pyr) (Timeseries.Pyramid.depth pyr)
    (Timeseries.Pyramid.resident_floats pyr)
