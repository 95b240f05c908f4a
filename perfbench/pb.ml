(* In-process helper of the benchmark (perfbench/run.py).

     pb ref <stream|farm|netsim|serve> key=value ...
     pb trace <stream|farm|netsim|serve|registry|prng|pareto> key=value ...
     pb exec RESULT_FILE PROGRAM ARG...

   [ref] computes a workload's expected stdout from the public entry
   points (Core.Streaming.run, Core.Farm.run_inline, Core.Netsim.run_inline,
   Core.Serve.run) so run.py can compare the timed
   command's bytes against it. [trace] replays the same work through each
   library's public functions with a span around every call into a layer,
   and reports the spans plus the work counts they are normalised by.
   [spans=0] runs the identical replay with the recorder off, which is the
   untraced twin the tracing overhead is measured against.

   [exec] is the launcher of every timed command: it runs PROGRAM with
   this process's stdin, stdout and stderr, and writes the exit code,
   wall time and peak RSS to RESULT_FILE. The RSS comes from
   getrusage(RUSAGE_CHILDREN), which covers the command and every child
   it reaped (farm and netsim workers). A child's peak RSS counts the
   pages of the process it was forked from, so the command is forked from
   this small process rather than from the Python harness.

   [ref] and [trace] print one JSON object on stdout. Spans are
   [id, parent, name, start_ns, end_ns], times relative to the start of
   the process; run.py computes self times and the per-layer metrics. *)

let args = Hashtbl.create 16

let arg k =
  match Hashtbl.find_opt args k with
  | Some v -> v
  | None -> failwith ("pb: missing argument " ^ k)

let arg_f k = float_of_string (arg k)
let arg_i k = int_of_string (arg k)

(* ---------------- span recorder ---------------- *)

let recording = ref true
let origin = Unix.gettimeofday ()
let now_ns () = int_of_float ((Unix.gettimeofday () -. origin) *. 1e9)
let spans = ref []
let next_id = ref 0
let stack = ref []
let lock = Mutex.create ()

(* Nested span on the calling domain; the parent is the innermost open
   span. Only the registry replay records from several domains, and it
   uses [root_span]. *)
let span name f =
  if not !recording then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    let t0 = now_ns () in
    let finish () =
      let t1 = now_ns () in
      stack := List.tl !stack;
      spans := (id, parent, name, t0, t1) :: !spans
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

(* A parentless span safe to record from any domain. *)
let root_span name f =
  if not !recording then f ()
  else begin
    let t0 = now_ns () in
    let v = f () in
    let t1 = now_ns () in
    Mutex.protect lock (fun () ->
        let id = !next_id in
        incr next_id;
        spans := (id, -1, name, t0, t1) :: !spans);
    v
  end

let spans_json () =
  Engine.Json.List
    (List.rev_map
       (fun (id, parent, name, t0, t1) ->
         Engine.Json.(List [ Int id; Int parent; Str name; Int t0; Int t1 ]))
       !spans)

let emit fields =
  print_string (Engine.Json.to_string (Engine.Json.Obj fields));
  print_newline ()

let timed f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

let report pp = Format.asprintf "%t" pp

(* ---------------- specs (the CLI's defaults for unset flags) ---------------- *)

let stream_spec () =
  { Core.Streaming.default with
    model = "poisson"; events = arg_f "events"; rate = arg_f "rate";
    bin = arg_f "bin"; seed = arg_i "seed" }

let farm_spec () =
  { Core.Farm.default with
    model = "poisson"; events = arg_f "events"; rate = arg_f "rate";
    bin = arg_f "bin"; seed = arg_i "seed"; workers = arg_i "workers" }

let netsim_spec () =
  { Core.Netsim.default with
    model = "onoff"; events = arg_f "events"; replicas = arg_i "replicas";
    sources = arg_i "sources"; beta = arg_f "beta";
    discipline = arg "discipline"; topology = arg "topology";
    buffer = arg_i "buffer"; load = arg_f "load"; seed = arg_i "seed";
    workers = arg_i "workers" }

let serve_spec () =
  { Core.Serve.default with
    source = "stdin"; bin = arg_f "bin"; window = arg_i "window";
    cadence = arg_i "cadence" }

(* ---------------- references ---------------- *)

let reference what =
  let text =
    match what with
    | "stream" ->
      let spec = stream_spec () in
      report (fun f -> Core.Streaming.pp f spec (Core.Streaming.run spec))
    | "farm" ->
      let spec = farm_spec () in
      report (fun f -> Core.Farm.pp f spec (Core.Farm.run_inline spec))
    | "netsim" ->
      let spec = netsim_spec () in
      report (fun f -> Core.Netsim.pp f spec (Core.Netsim.run_inline spec))
    | "serve" ->
      let buf = Buffer.create (1 lsl 20) in
      let fmt = Format.formatter_of_buffer buf in
      ignore (Core.Serve.run ~fmt (serve_spec ()));
      Format.pp_print_flush fmt ();
      Buffer.contents buf
    | w -> failwith ("pb ref: unknown workload " ^ w)
  in
  emit [ ("text", Str text) ]

(* ---------------- traced replays ---------------- *)

(* Core.Streaming.run for the poisson model, call for call: the same
   shards, RNG streams, sink tee and read-out, with a span around each
   layer call. Its report must equal the stream command's stdout. *)
let trace_stream () =
  let spec = stream_spec () in
  let rate = spec.rate and bin = spec.bin and chunk = spec.chunk in
  let n_bins =
    Int.max 1 (int_of_float (Float.round (spec.events /. rate /. bin)))
  in
  let levels = Timeseries.Counts.default_levels n_bins in
  let pyr = Timeseries.Pyramid.create ~levels () in
  let rs =
    Lrd.Hurst.rs_sink ~max_block:(Int.max 1 (Int.min 32768 (n_bins / 4))) ()
  in
  let total = ref 0. in
  let sketch = Stats.Quantile_sketch.create ~accuracy:0.01 () in
  let analysis =
    Timeseries.Sink.make ~name:"pb-analysis"
      ~push:(fun c ->
        span "timeseries.pyramid" (fun () -> Timeseries.Pyramid.push pyr c);
        span "lrd.rs" (fun () -> Timeseries.Sink.push rs c);
        total := Array.fold_left ( +. ) !total c;
        span "stats.sketch" (fun () ->
            Array.iter (Stats.Quantile_sketch.add sketch) c))
      ~finish:(fun () -> ())
      ()
  in
  let counts = Timeseries.Sink.counts ~bin ~n_bins ~chunk analysis in
  let shard_bins =
    Int.max 1 (int_of_float (Float.round (float_of_int chunk /. (rate *. bin))))
  in
  let n_shards = (n_bins + shard_bins - 1) / shard_bins in
  let events = ref 0 and draws = ref 0 in
  let (), wall =
    timed (fun () ->
        for c = 0 to n_shards - 1 do
          let lo = c * shard_bins in
          let hi = Int.min n_bins (lo + shard_bins) in
          let rng =
            Engine.Task.derive_rng ~seed:spec.seed (Printf.sprintf "stream#%d" c)
          in
          let evs =
            span "traffic.poisson_gen" (fun () ->
                Traffic.Arrival.shift (float_of_int lo *. bin)
                  (Traffic.Poisson_proc.homogeneous ~rate
                     ~duration:(float_of_int (hi - lo) *. bin) rng))
          in
          events := !events + Array.length evs;
          draws := !draws + Prng.Rng.draw_count rng;
          span "timeseries.bin" (fun () -> Timeseries.Sink.push counts evs)
        done;
        span "timeseries.bin" (fun () -> Timeseries.Sink.finish counts))
  in
  let r, readout =
    timed (fun () ->
        span "lrd.readout" (fun () ->
            let h_rs = Timeseries.Sink.finish rs in
            let h_wav =
              match Lrd.Wavelet.estimate_of_pyramid pyr with
              | e -> Some e
              | exception Invalid_argument _ -> None
            in
            let r =
              { Core.Streaming.bins = n_bins; total = !total;
                mean = Timeseries.Pyramid.mean pyr;
                h_vt = Lrd.Hurst.variance_time_of_pyramid ~levels pyr; h_rs;
                h_wav; count_sketch = sketch;
                chunks = Timeseries.Pyramid.chunks pyr;
                levels = Timeseries.Pyramid.depth pyr;
                resident = Timeseries.Pyramid.resident_floats pyr }
            in
            ignore (Stats.Quantile_sketch.quantiles sketch [ 0.5; 0.9; 0.99; 0.999 ]);
            r))
  in
  emit
    [
      ("wall_s", Float (wall +. readout));
      ("text", Str (report (fun f -> Core.Streaming.pp f spec r)));
      ("counts", Obj [ ("events", Int !events); ("bins", Int n_bins);
                       ("draws", Int !draws) ]);
      ("spans", spans_json ());
    ]

(* The farm's per-macro-shard work in one process, on the public layer
   functions: generate and bin each generation window, fold the counts
   into a dyadic pyramid and a count sketch, ship the pyramid snapshot
   through a frame, decode it and merge it in shard order. *)
let trace_farm () =
  let spec = farm_spec () in
  let plan = Core.Farm.plan spec in
  let bin = spec.bin in
  let merged = ref None in
  let bytes = ref 0 and events = ref 0 in
  let (), wall =
    timed (fun () ->
        for i = 0 to plan.n_macro - 1 do
          let lo = i * plan.macro_bins in
          let hi = Int.min plan.n_bins (lo + plan.macro_bins) in
          let pyr = Timeseries.Pyramid.create () in
          let sketch = Stats.Quantile_sketch.create ~accuracy:0.01 () in
          let consume =
            Timeseries.Sink.make ~name:"pb-shard"
              ~push:(fun c ->
                span "timeseries.pyramid" (fun () -> Timeseries.Pyramid.push pyr c);
                span "stats.sketch" (fun () ->
                    Array.iter (Stats.Quantile_sketch.add sketch) c))
              ~finish:(fun () -> ())
              ()
          in
          let sink =
            Timeseries.Sink.counts ~t_start:(float_of_int lo *. bin) ~bin
              ~n_bins:(hi - lo) ~chunk:spec.chunk consume
          in
          let n_windows = (hi - lo + plan.gen_bins - 1) / plan.gen_bins in
          for j = 0 to n_windows - 1 do
            let wlo = lo + (j * plan.gen_bins) in
            let whi = Int.min hi (wlo + plan.gen_bins) in
            let rng =
              Engine.Task.derive_rng ~seed:spec.seed
                (Printf.sprintf "farm#%d#%d" i j)
            in
            let evs =
              span "traffic.poisson_gen" (fun () ->
                  Traffic.Arrival.shift (float_of_int wlo *. bin)
                    (Traffic.Poisson_proc.homogeneous ~rate:spec.rate
                       ~duration:(float_of_int (whi - wlo) *. bin) rng))
            in
            events := !events + Array.length evs;
            span "timeseries.bin" (fun () -> Timeseries.Sink.push sink evs)
          done;
          span "timeseries.bin" (fun () -> Timeseries.Sink.finish sink);
          let payload =
            span "engine.frame" (fun () ->
                let b = Buffer.create 256 in
                Engine.Frame.Wr.u32 b i;
                Buffer.add_string b
                  (Timeseries.Pyramid.snapshot_to_string
                     (Timeseries.Pyramid.snapshot pyr));
                let wire =
                  Engine.Frame.encode
                    { Engine.Frame.kind = 1; payload = Buffer.contents b }
                in
                bytes := !bytes + String.length wire;
                match Engine.Frame.decode wire 0 with
                | Ok (f, _) -> f.payload
                | Error e -> failwith (Engine.Frame.error_to_string e))
          in
          span "timeseries.snapshot_merge" (fun () ->
              match
                Timeseries.Pyramid.snapshot_of_string
                  (String.sub payload 4 (String.length payload - 4))
              with
              | Error e -> failwith e
              | Ok snap -> (
                match !merged with
                | None -> merged := Some (Timeseries.Pyramid.of_snapshot snap)
                | Some acc -> Timeseries.Pyramid.merge_into acc snap))
        done)
  in
  emit
    [
      ("wall_s", Float wall);
      ("counts", Obj [ ("events", Int !events); ("shards", Int plan.n_macro);
                       ("frame_bytes", Int !bytes) ]);
      ("spans", spans_json ());
    ]

(* Core.Netsim's replica loop: the superposed ON/OFF stream of each
   replica feeds the network chunk by chunk, exactly as the worker does,
   so the network spans nest inside the superposition span. *)
let trace_netsim () =
  let spec = netsim_spec () in
  let plan = Core.Netsim.plan spec in
  let packets = ref 0 and offered0 = ref 0 and dropped0 = ref 0 in
  let (), wall =
    timed (fun () ->
        for r = 0 to spec.replicas - 1 do
          let rng =
            Engine.Task.derive_rng ~seed:spec.seed (Printf.sprintf "netsim#%d" r)
          in
          let net =
            Queueing.Network.create ~sketch_accuracy:0.01
              ~seed:((spec.seed * 0x9e3779b9) lxor r)
              ~topology:plan.topo ~discipline:plan.disc ~buffer:spec.buffer
              ~services:(Array.make plan.n_links plan.service)
              ()
          in
          let sources =
            List.init spec.sources (fun _ ->
                Traffic.Onoff.pareto_source ~beta:spec.beta
                  ~mean_period:spec.mean_period ~on_rate:spec.on_rate)
          in
          span "traffic.superpose" (fun () ->
              Traffic.Superpose.iter ~chunk:spec.chunk ~sources
                ~horizon:plan.horizon rng (fun times srcs len ->
                  packets := !packets + len;
                  span "queueing.network" (fun () ->
                      Queueing.Network.push_chunk net ~times ~srcs ~pos:0 ~len)));
          let stats =
            span "queueing.network" (fun () -> Queueing.Network.finish net)
          in
          Array.iter
            (fun (c : Queueing.Network.class_stats) ->
              offered0 := !offered0 + c.served + c.dropped;
              dropped0 := !dropped0 + c.dropped)
            stats.(0).classes
        done)
  in
  emit
    [
      ("wall_s", Float wall);
      ( "counts",
        Obj [ ("packets", Int !packets); ("replicas", Int spec.replicas);
              ("link0_offered", Int !offered0);
              ("link0_dropped", Int !dropped0) ] );
      ("spans", spans_json ());
    ]

(* The serve pipeline's two library layers on the same event lines:
   the window manager with the command's flags, and the inter-arrival
   sketch. The lines are parsed and binned outside any span, the way
   Core.Serve bins stdin. Then Core.Serve.run itself reads the same
   lines from stdin, so run.py can derive the ingest cost (parse +
   incremental binning + record formatting) as the remainder. *)
let trace_serve () =
  let spec = serve_spec () in
  let ic = open_in (arg "events_file") in
  let times = ref [] in
  (try
     while true do
       times := float_of_string (String.trim (input_line ic)) :: !times
     done
   with End_of_file -> close_in ic);
  let times = Array.of_list (List.rev !times) in
  let n = Array.length times in
  let bins = ref [] and cur = ref 0 and cnt = ref 0. in
  Array.iter
    (fun t ->
      let i = int_of_float (t /. spec.bin) in
      while !cur < i do
        bins := !cnt :: !bins;
        cnt := 0.;
        incr cur
      done;
      cnt := !cnt +. 1.)
    times;
  if n > 0 then bins := !cnt :: !bins;
  let counts = Array.of_list (List.rev !bins) in
  let estimates = ref 0 in
  let win =
    Core.Streaming.Window.create ~kind:Core.Streaming.Window.Sliding
      ~window:spec.window ~cadence:spec.cadence ~top_k:spec.top_k
      ~bin:spec.bin ~emit:(fun _ -> incr estimates) ()
  in
  let ia = Stats.Quantile_sketch.create () in
  let (), wall =
    timed (fun () ->
        let nb = Array.length counts in
        let pos = ref 0 in
        while !pos < nb do
          let len = Int.min spec.chunk (nb - !pos) in
          span "core.window" (fun () ->
              Core.Streaming.Window.push_slice win counts !pos len);
          pos := !pos + len
        done;
        let pos = ref 1 in
        while !pos < n do
          let hi = Int.min n (!pos + spec.chunk) in
          span "stats.ia_sketch" (fun () ->
              for i = !pos to hi - 1 do
                Stats.Quantile_sketch.add ia (times.(i) -. times.(i - 1))
              done);
          pos := hi
        done;
        let buf = Buffer.create (1 lsl 20) in
        let fmt = Format.formatter_of_buffer buf in
        span "core.serve_run" (fun () -> ignore (Core.Serve.run ~fmt spec)))
  in
  emit
    [
      ("wall_s", Float wall);
      ( "counts",
        Obj [ ("events", Int n); ("bins", Int (Array.length counts));
              ("estimates", Int !estimates) ] );
      ("spans", spans_json ());
    ]

(* Every registry task on [jobs] domains, as bench/main.exe runs them,
   with a span around each task body. *)
let trace_registry () =
  let tasks =
    List.map
      (fun (t : Engine.Task.t) ->
        { t with body = (fun ctx -> root_span ("core.registry_task:" ^ t.id)
                            (fun () -> t.body ctx)) })
      (Core.Registry.tasks ())
  in
  let results, wall =
    timed (fun () ->
        Engine.Pool.run ~jobs:(arg_i "jobs") ~seed:(arg_i "seed") tasks)
  in
  let ok =
    List.filter_map
      (function Ok (a : Engine.Artifact.t) -> Some a | Error _ -> None)
      results
  in
  emit
    [
      ("wall_s", Float wall);
      ("failed", Int (List.length results - List.length ok));
      ( "texts",
        List
          (List.map
             (fun (a : Engine.Artifact.t) ->
               Engine.Json.(Obj [ ("id", Str a.id); ("text", Str a.text) ]))
             ok) );
      ( "durations_s",
        Obj (List.map (fun (a : Engine.Artifact.t) -> (a.id, Engine.Json.Float a.duration_s)) ok) );
      ("spans", spans_json ());
    ]

(* Prng.Rng.fill_float for a given number of draws. *)
let trace_prng () =
  let draws = arg_i "draws" in
  let rng = Engine.Task.derive_rng ~seed:(arg_i "seed") "pb-prng" in
  let buf = Array.make 65536 0. in
  let left = ref draws in
  let (), wall =
    timed (fun () ->
        span "prng.fill_float" (fun () ->
            while !left > 0 do
              let len = Int.min !left (Array.length buf) in
              Prng.Rng.fill_float rng buf 0 len;
              left := !left - len
            done))
  in
  emit [ ("wall_s", Float wall); ("counts", Obj [ ("draws", Int draws) ]);
         ("spans", spans_json ()) ]

(* One of fig15's nine count processes (beta 1, a 1, bin 1e6, 1000 bins;
   seeds 1000..1008), picked by the benchmark seed. *)
let trace_pareto () =
  let rng = Prng.Rng.create (1000 + (arg_i "seed" mod 9)) in
  let counts, wall =
    timed (fun () ->
        span "lrd.pareto_count" (fun () ->
            Lrd.Pareto_count.count_process ~beta:1.0 ~a:1.0 ~bin:1e6 ~bins:1000
              rng))
  in
  let arrivals = Array.fold_left ( +. ) 0. counts in
  emit [ ("wall_s", Float wall);
         ("counts", Obj [ ("arrivals", Int (int_of_float arrivals)) ]);
         ("spans", spans_json ()) ]

let trace what =
  match what with
  | "stream" -> trace_stream ()
  | "farm" -> trace_farm ()
  | "netsim" -> trace_netsim ()
  | "serve" -> trace_serve ()
  | "registry" -> trace_registry ()
  | "prng" -> trace_prng ()
  | "pareto" -> trace_pareto ()
  | w -> failwith ("pb trace: unknown replay " ^ w)

external children_maxrss_kb : unit -> int = "pb_children_maxrss_kb"

let exec result argv =
  let t0 = Unix.gettimeofday () in
  let pid =
    Unix.create_process argv.(0) argv Unix.stdin Unix.stdout Unix.stderr
  in
  let _, status = Unix.waitpid [] pid in
  let wall = Unix.gettimeofday () -. t0 in
  let rc =
    match status with
    | Unix.WEXITED c -> c
    | Unix.WSIGNALED s | Unix.WSTOPPED s -> 128 + abs s
  in
  let oc = open_out result in
  output_string oc
    (Engine.Json.to_string
       (Obj [ ("rc", Int rc); ("wall_s", Float wall);
              ("maxrss_kb", Int (children_maxrss_kb ())) ]));
  close_out oc

let () =
  match Array.to_list Sys.argv with
  | _ :: "exec" :: result :: (_ :: _ as argv) -> exec result (Array.of_list argv)
  | _ :: mode :: what :: kvs ->
    List.iter
      (fun kv ->
        match String.index_opt kv '=' with
        | Some i ->
          Hashtbl.replace args (String.sub kv 0 i)
            (String.sub kv (i + 1) (String.length kv - i - 1))
        | None -> failwith ("pb: expected key=value, got " ^ kv))
      kvs;
    recording := (match Hashtbl.find_opt args "spans" with
                  | Some "0" -> false | _ -> true);
    (match mode with
     | "ref" -> reference what
     | "trace" -> trace what
     | m -> failwith ("pb: unknown mode " ^ m))
  | _ ->
    prerr_endline "usage: pb <ref|trace> <what> key=value ...";
    exit 2
