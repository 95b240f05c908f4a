(* Benchmark / reproduction harness on top of the execution engine.

   Default: regenerate every table, figure, and in-text experiment of the
   paper (the ids of DESIGN.md's per-experiment index), timing each.
   Experiments run on a domain pool and render into private buffers, so
   stdout carries only the experiment reports — byte-identical for a
   given --seed whatever --jobs is — while timing and progress lines go
   to stderr.

     dune exec bench/main.exe                    # everything, one domain/core
     dune exec bench/main.exe -- --list          # list experiment ids
     dune exec bench/main.exe -- --jobs 4        # four worker domains
     dune exec bench/main.exe -- --only fig5     # a single experiment
     dune exec bench/main.exe -- --out artifacts # files + run.json manifest
     dune exec bench/main.exe -- --log run.jsonl # structured event log
     dune exec bench/main.exe -- --report-html report.html
     dune exec bench/main.exe -- --perf --record BENCH_history.jsonl *)

let fmt = Format.std_formatter
let efmt = Format.err_formatter

let list_ids () =
  List.iter
    (fun (e : Core.Registry.entry) ->
      Format.fprintf fmt "%-14s %s@." e.id e.title)
    Core.Registry.all

let select_entries only =
  match only with
  | [] -> Ok Core.Registry.all
  | ids ->
    let unknown = List.filter (fun id -> Core.Registry.find id = None) ids in
    if unknown <> [] then
      Error
        (Printf.sprintf "unknown id%s %s; try --list"
           (if List.length unknown > 1 then "s" else "")
           (String.concat ", " unknown))
    else
      Ok
        (List.filter_map Core.Registry.find ids)

(* ------------------------------------------------------------------ *)
(* Target preflight: every sink named on the command line must be
   checked before any experiment runs, so a typo'd path fails in
   milliseconds with the offending path, not after the whole run. *)

let rec mkdirs d =
  if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
    mkdirs (Filename.dirname d);
    (try Sys.mkdir d 0o755 with Sys_error _ -> ())
  end

let check_writable_dir dir =
  mkdirs dir;
  let probe = Filename.concat dir ".write-probe" in
  match open_out probe with
  | oc ->
    close_out_noerr oc;
    (try Sys.remove probe with Sys_error _ -> ());
    Ok ()
  | exception Sys_error _ ->
    Error (Printf.sprintf "cannot write %s: not a writable directory" dir)

let preflight (c : Engine.Cli.config) =
  let targets =
    (match c.out with
     | Some d -> [ check_writable_dir d ]
     | None -> [])
    @ List.filter_map
        (Option.map Engine.Cli.check_writable_file)
        [ c.trace; c.log; c.report_html; c.record ]
  in
  match List.find_opt Result.is_error targets with
  | Some (Error msg) ->
    prerr_endline msg;
    exit 2
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Perf-trajectory sparkline for the HTML report: one normalised line
   per benchmark (mean ns of each record / mean ns of its first), so
   wildly different absolute scales share one chart. *)

let perf_sparkline path =
  match Engine.Perf_history.load path with
  | Error e ->
    Format.fprintf efmt "[note: no perf trajectory: %s]@." e;
    []
  | Ok records ->
    let mean ns =
      List.fold_left ( +. ) 0. ns /. float_of_int (Int.max 1 (List.length ns))
    in
    let names =
      List.sort_uniq compare
        (List.concat_map
           (fun (r : Engine.Perf_history.record) ->
             List.map
               (fun (e : Engine.Perf_history.entry) -> e.bench)
               r.entries)
           records)
    in
    let series =
      List.filter_map
        (fun name ->
          let points =
            List.filteri (fun _ _ -> true) records
            |> List.mapi (fun i (r : Engine.Perf_history.record) ->
                   ( i,
                     List.find_opt
                       (fun (e : Engine.Perf_history.entry) ->
                         e.bench = name)
                       r.entries ))
            |> List.filter_map (fun (i, e) ->
                   Option.map
                     (fun (e : Engine.Perf_history.entry) ->
                       (float_of_int i, mean e.ns))
                     e)
          in
          match points with
          | [] | [ _ ] -> None
          | (_, first) :: _ when first > 0. ->
            Some
              {
                Core.Svg.label = name;
                style = Core.Svg.Line;
                points =
                  Array.of_list
                    (List.map (fun (i, v) -> (i, v /. first)) points);
              }
          | _ -> None)
        names
    in
    if series = [] then []
    else
      [
        ( Printf.sprintf "Perf trajectory (%s)" path,
          Core.Svg.render ~width:760 ~height:240
            ~title:"mean ns per record, normalised to first record"
            ~xlabel:"record" ~ylabel:"ratio" series );
      ]

(* ------------------------------------------------------------------ *)

let run_experiments (c : Engine.Cli.config) =
  match select_entries c.only with
  | Error msg ->
    prerr_endline msg;
    exit 1
  | Ok entries ->
    preflight c;
    (* Telemetry and logging are opt-in; flip them on before the pool
       starts so every span / counter / event of the run is recorded
       from a clean slate. *)
    let telemetry = c.metrics || c.trace <> None || c.report_html <> None in
    if telemetry then begin
      Engine.Telemetry.set_enabled true;
      Engine.Telemetry.reset ()
    end;
    let logging =
      c.log <> None || c.metrics || c.report_html <> None || c.out <> None
    in
    if logging then begin
      Engine.Log.set_enabled true;
      Engine.Log.reset ();
      Engine.Log.set_level c.log_level;
      Option.iter
        (fun path ->
          match Engine.Log.open_file path with
          | Ok () -> ()
          | Error msg ->
            prerr_endline ("cannot write " ^ msg);
            exit 2)
        c.log
    end;
    Format.fprintf fmt
      "Reproduction harness: Paxson & Floyd, \"Wide-Area Traffic: The \
       Failure of Poisson Modeling\"@.";
    Format.fprintf efmt "(%d experiments, %d worker domain%s, seed %d)@."
      (List.length entries) c.jobs
      (if c.jobs = 1 then "" else "s")
      c.seed;
    Engine.Log.info "run.start"
      [
        ("experiments", Engine.Log.I (List.length entries));
        ("jobs", Engine.Log.I c.jobs);
        ("seed", Engine.Log.I c.seed);
      ];
    let tasks = List.map Core.Registry.task entries in
    let t0 = Unix.gettimeofday () in
    let figures = c.out <> None || c.report_html <> None in
    let results = Engine.Pool.run ~jobs:c.jobs ~seed:c.seed ~figures tasks in
    let failed = ref 0 in
    let artifacts = ref [] in
    List.iter2
      (fun (e : Core.Registry.entry) result ->
        match result with
        | Ok (a : Engine.Artifact.t) ->
          artifacts := a :: !artifacts;
          Format.pp_print_string fmt a.text;
          Format.fprintf efmt "[%s done in %.2fs]@." a.id a.duration_s;
          Option.iter
            (fun dir -> ignore (Engine.Artifact.save ~dir a))
            c.out
        | Error exn ->
          incr failed;
          Format.fprintf efmt "[%s FAILED: %s]@." e.id
            (Printexc.to_string exn))
      entries results;
    let artifacts = List.rev !artifacts in
    let total = Unix.gettimeofday () -. t0 in
    Format.fprintf efmt "[total %.2fs, jobs=%d%s]@." total c.jobs
      (if !failed = 0 then ""
       else Printf.sprintf ", %d FAILED" !failed);
    Engine.Log.info "run.done"
      [
        ("total_s", Engine.Log.F total);
        ("failed", Engine.Log.I !failed);
      ];
    (* Provenance manifest: content hashes of everything the run
       produced, for cross-run verification (verify-manifest). *)
    let manifest =
      if c.out <> None || c.report_html <> None then
        Some
          (Engine.Manifest.of_run ~created_at:(Unix.gettimeofday ())
             ~seed:c.seed ~jobs:c.jobs ~total_s:total artifacts)
      else None
    in
    Option.iter
      (fun dir ->
        Option.iter
          (fun m ->
            let path = Filename.concat dir "run.json" in
            Engine.Manifest.write ~path m;
            Format.fprintf efmt "[manifest written to %s]@." path)
          manifest;
        Format.fprintf efmt "[artifacts written under %s/]@." dir)
      c.out;
    if c.metrics then begin
      Engine.Telemetry.pp_summary Format.err_formatter;
      List.iter
        (fun ev -> Format.fprintf efmt "%a@." Engine.Log.pp_event ev)
        (Engine.Log.warnings ())
    end;
    Option.iter
      (fun path ->
        let oc = open_out path in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () -> output_string oc (Engine.Telemetry.to_chrome_trace ()));
        Format.fprintf efmt "[chrome trace written to %s]@." path)
      c.trace;
    Option.iter
      (fun path ->
        let sparklines =
          match c.record with
          | Some hist when Sys.file_exists hist -> perf_sparkline hist
          | _ -> []
        in
        let html =
          Engine.Report_html.render ?manifest
            ~log_events:(Engine.Log.events ()) ~sparklines
            ~title:"wanpoisson run report"
            ~build:(Engine.Build_info.describe ()) ~seed:c.seed ~jobs:c.jobs
            ~total_s:total ~artifacts
            ~events:(Engine.Telemetry.events ())
            ~counters:(Engine.Telemetry.counters ()) ()
        in
        let oc = open_out path in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () -> output_string oc html);
        Format.fprintf efmt "[HTML report written to %s]@." path)
      c.report_html;
    if logging then begin
      Engine.Log.close_file ();
      Engine.Log.set_enabled false
    end;
    if telemetry then Engine.Telemetry.set_enabled false;
    if !failed > 0 then exit 1

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks of the hot primitives.                     *)

let perf (c : Engine.Cli.config) =
  let open Bechamel in
  preflight c;
  let rng = Prng.Rng.create 42 in
  let fgn_input = Lrd.Fgn.generate ~h:0.8 ~n:4096 (Prng.Rng.create 1) in
  let counts = Array.map (fun x -> (x *. 3.) +. 10.) fgn_input in
  let interarrivals =
    Array.init 500 (fun _ -> Tcplib.Telnet.sample_interarrival rng)
  in
  let tests =
    [
      Test.make ~name:"fft-4096"
        (Staged.stage (fun () -> ignore (Timeseries.Fft.dft_real fgn_input)));
      Test.make ~name:"fgn-generate-4096"
        (Staged.stage (fun () ->
             ignore (Lrd.Fgn.generate ~h:0.8 ~n:4096 (Prng.Rng.create 7))));
      Test.make ~name:"whittle-4096"
        (Staged.stage (fun () -> ignore (Lrd.Whittle.estimate fgn_input)));
      Test.make ~name:"variance-time-4096"
        (Staged.stage (fun () ->
             ignore (Timeseries.Variance_time.curve counts)));
      Test.make ~name:"anderson-darling-500"
        (Staged.stage (fun () ->
             ignore (Stest.Anderson_darling.test_exponential interarrivals)));
      Test.make ~name:"tcplib-sample-1000"
        (Staged.stage (fun () ->
             for _ = 1 to 1000 do
               ignore (Tcplib.Telnet.sample_interarrival rng)
             done));
      (* The PR-2 hot-path kernels. pareto-count-1e6-bin is one fig15
         seed at 1/1000 scale (bin 1e3 instead of 1e6, same per-arrival
         loop); whittle-objective-eval is one golden-section step on the
         precomputed tables; par-map-overhead is Par.map's bookkeeping
         with a zero budget (the jobs=1 fast path). *)
      Test.make ~name:"pareto-count-1e6-bin"
        (Staged.stage (fun () ->
             ignore
               (Lrd.Pareto_count.count_process ~beta:1.0 ~a:1.0 ~bin:1e3
                  ~bins:1000 (Prng.Rng.create 1000))));
      (* The PR-5 streaming benchmarks. vt-curve-1e6 is the pyramid's
         one-pass variance-time curve on a million counts;
         vt-curve-1e6-naive is the aggregate-per-level path it replaced
         (same levels, same floats to ~1e-9) — the recorded pair behind
         BENCH_stream.json's >= 5x claim. pyramid-push-1e6 isolates the
         cascade's push rate, and stream-count-1e8 is the full streamed
         analysis (sharded generation -> counting sink -> pyramid + R/S)
         of 1e8 Poisson events in O(levels x chunk) memory. *)
      (let vt_counts =
         let r = Prng.Rng.create 2024 in
         Array.init 1_000_000 (fun _ -> 5. +. Prng.Rng.float r)
       in
       Test.make ~name:"vt-curve-1e6"
         (Staged.stage (fun () ->
              ignore (Timeseries.Variance_time.curve vt_counts))));
      (let vt_counts =
         let r = Prng.Rng.create 2024 in
         Array.init 1_000_000 (fun _ -> 5. +. Prng.Rng.float r)
       in
       Test.make ~name:"vt-curve-1e6-naive"
         (Staged.stage (fun () ->
              ignore (Timeseries.Variance_time.curve_naive vt_counts))));
      (let vt_counts =
         let r = Prng.Rng.create 2024 in
         Array.init 1_000_000 (fun _ -> 5. +. Prng.Rng.float r)
       in
       Test.make ~name:"pyramid-push-1e6"
         (Staged.stage (fun () ->
              let pyr = Timeseries.Pyramid.create () in
              let pos = ref 0 in
              while !pos < Array.length vt_counts do
                let len =
                  Int.min 65536 (Array.length vt_counts - !pos)
                in
                Timeseries.Pyramid.push_slice pyr vt_counts !pos len;
                pos := !pos + len
              done)));
      Test.make ~name:"stream-count-1e8"
        (Staged.stage (fun () ->
             ignore
               (Core.Streaming.run
                  {
                    Core.Streaming.default with
                    events = 1e8;
                    rate = 1000.;
                    bin = 0.01;
                  })));
      (* The PR-8 wavelet pair: the same 1e7-event streamed analysis
         with and without the wavelet read-out. The octave energies are
         fused into the pyramid cascade either way, so [make
         wavelet-smoke]'s perf-diff gate holds these two to the same
         time — the read-out is O(levels) and the fusion is ~3 flops per
         pair. *)
      Test.make ~name:"stream-count-1e7"
        (Staged.stage (fun () ->
             ignore
               (Core.Streaming.run
                  {
                    Core.Streaming.default with
                    events = 1e7;
                    rate = 1000.;
                    bin = 0.01;
                    wavelet = false;
                  })));
      Test.make ~name:"wavelet-stream-1e7"
        (Staged.stage (fun () ->
             ignore
               (Core.Streaming.run
                  {
                    Core.Streaming.default with
                    events = 1e7;
                    rate = 1000.;
                    bin = 0.01;
                  })));
      (* The farm benchmarks. frame-encode-decode round-trips one ~1 KB
         checksummed frame (the wire cost per shipped partial);
         snapshot-merge is one coordinator merge step over two 32768-
         count pyramid snapshots via the wire codec; farm-count-1e8 is
         the full workers=1 farm computation (shard streaming + frame
         round-trips + shard-order merge) on the same 1e8-event spec as
         stream-count-1e8 — BENCH_farm.json pairs the two. *)
      (let payload = String.init 1024 (fun i -> Char.chr (i land 0xff)) in
       Test.make ~name:"frame-encode-decode"
         (Staged.stage (fun () ->
              let s = Engine.Frame.encode { Engine.Frame.kind = 1; payload } in
              match Engine.Frame.decode s 0 with
              | Ok _ -> ()
              | Error _ -> assert false)));
      (let snap seed =
         let r = Prng.Rng.create seed in
         let pyr = Timeseries.Pyramid.create () in
         let buf = Array.init 4096 (fun _ -> 5. +. Prng.Rng.float r) in
         for _ = 1 to 8 do
           Timeseries.Pyramid.push pyr buf
         done;
         Timeseries.Pyramid.snapshot pyr
       in
       let a = snap 1 and b = snap 2 in
       let b_wire = Timeseries.Pyramid.snapshot_to_string b in
       Test.make ~name:"snapshot-merge"
         (Staged.stage (fun () ->
              match Timeseries.Pyramid.snapshot_of_string b_wire with
              | Ok b -> ignore (Timeseries.Pyramid.merge a b)
              | Error _ -> assert false)));
      Test.make ~name:"farm-count-1e8"
        (Staged.stage (fun () ->
             ignore
               (Core.Farm.run_inline
                  {
                    Core.Farm.default with
                    events = 1e8;
                    rate = 1000.;
                    bin = 0.01;
                  })));
      (* The PR-9 observability benchmarks. farm-count-1e8-obs is the
         same farm computation with the worker's telemetry span,
         heartbeat tick and obs-frame round-trips live — paired with
         farm-count-1e8 in BENCH_farm.json, and [make obs-smoke]'s
         perf-diff gate holds the pair within 5%. sketch-push-1e6 is
         the quantile sketch's hot add path on realistic bin counts
         (mostly integer-valued, so the memoised small-int table is
         exercised); sketch-merge is one coordinator-side bucket-wise
         merge of two heavy-tailed 1e5-sample sketches. *)
      Test.make ~name:"farm-count-1e8-obs"
        (Staged.stage (fun () ->
             Engine.Telemetry.set_enabled true;
             Engine.Telemetry.reset ();
             ignore
               (Core.Farm.run_inline ~obs:true
                  {
                    Core.Farm.default with
                    events = 1e8;
                    rate = 1000.;
                    bin = 0.01;
                  });
             Engine.Telemetry.set_enabled false));
      (let samples =
         let r = Prng.Rng.create 77 in
         Array.init 1_000_000 (fun _ ->
             float_of_int (900 + Prng.Rng.int r 200))
       in
       Test.make ~name:"sketch-push-1e6"
         (Staged.stage (fun () ->
              let t = Stats.Quantile_sketch.create () in
              Array.iter (Stats.Quantile_sketch.add t) samples)));
      (let heavy seed =
         let r = Prng.Rng.create seed in
         let t = Stats.Quantile_sketch.create () in
         for _ = 1 to 100_000 do
           Stats.Quantile_sketch.add t
             ((1e-3 +. Prng.Rng.float r) ** -2.)
         done;
         t
       in
       let a = heavy 1 and b = heavy 2 in
       Test.make ~name:"sketch-merge"
         (Staged.stage (fun () -> ignore (Stats.Quantile_sketch.merge a b))));
      (* The PR-10 superposition pair: superpose-1k-1e7 streams ~1e7
         arrivals from 1000 Pareto ON/OFF sources through the SoA
         engine (index-heap scheduling + per-window counting sort);
         superpose-merge-1k-1e7 is the replaced idiom — materialise
         every source, then Arrival.merge — on the identical sample
         path (same splits, same floats). [make netsim-smoke]'s
         perf-diff gate holds the SoA engine to >= 3x over it. *)
      (let sources =
         List.init 1000 (fun _ ->
             Traffic.Onoff.pareto_source ~beta:1.5 ~mean_period:50.
               ~on_rate:2.)
       in
       Test.make ~name:"superpose-1k-1e7"
         (Staged.stage (fun () ->
              let n = ref 0 in
              Traffic.Superpose.iter ~sources ~horizon:1e4
                (Prng.Rng.create 99) (fun _ _ len -> n := !n + len))));
      (let sources =
         List.init 1000 (fun _ ->
             Traffic.Onoff.pareto_source ~beta:1.5 ~mean_period:50.
               ~on_rate:2.)
       in
       Test.make ~name:"superpose-merge-1k-1e7"
         (Staged.stage (fun () ->
              ignore
                (Traffic.Superpose.arrivals_naive ~sources ~horizon:1e4
                   (Prng.Rng.create 99)))));
      (let pgram = Timeseries.Periodogram.compute fgn_input in
       let f = Lrd.Whittle.fgn_objective_fn pgram in
       Test.make ~name:"whittle-objective-eval"
         (Staged.stage (fun () -> ignore (f 0.795))));
      (let items = List.init 100 Fun.id in
       Engine.Par.set_extra_domains 0;
       Test.make ~name:"par-map-overhead"
         (Staged.stage (fun () ->
              ignore (Engine.Par.map (fun i -> i + 1) items))));
      (* The telemetry non-cost claim: a span site with telemetry off is
         one atomic load + branch on top of calling the thunk. DESIGN.md
         section 8 requires that increment to stay under 5 ns/site:
         subtract the paired baseline (same thunk, no span) from the
         span entry to read it off. *)
      (let sink = ref 0 in
       let work () = !sink + 1 in
       Test.make ~name:"telemetry-span-baseline"
         (Staged.stage (fun () -> sink := work ())));
      (Engine.Telemetry.set_enabled false;
       let sink = ref 0 in
       let work () = !sink + 1 in
       Test.make ~name:"telemetry-span-overhead"
         (Staged.stage (fun () ->
              sink := Engine.Telemetry.span ~name:"off" work)));
    ]
  in
  let names = List.map Test.name tests in
  let tests =
    match c.only with
    | [] -> tests
    | wanted ->
      let unknown = List.filter (fun n -> not (List.mem n names)) wanted in
      if unknown <> [] then begin
        Printf.eprintf "unknown benchmark%s %s; known: %s\n"
          (if List.length unknown > 1 then "s" else "")
          (String.concat ", " unknown)
          (String.concat ", " names);
        exit 1
      end;
      List.filter (fun t -> List.mem (Test.name t) wanted) tests
  in
  let benchmark test =
    let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) () in
    Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] test
  in
  let analyze results =
    Analyze.all
      (Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |])
      Toolkit.Instance.monotonic_clock results
  in
  (* One OLS estimate per repetition: --record keeps every repetition
     (Perf_history entries carry sample lists, not collapsed means), so
     perf-diff later has real per-side variance to test against. *)
  let reps = if c.record = None then 1 else 3 in
  let entries =
    List.map
      (fun test ->
        let estimates =
          List.init reps (fun _ ->
              let results = analyze (benchmark test) in
              Hashtbl.fold
                (fun _ ols acc ->
                  match Bechamel.Analyze.OLS.estimates ols with
                  | Some [ est ] -> Some est
                  | _ -> acc)
                results None)
          |> List.filter_map Fun.id
        in
        (match estimates with
         | [] -> Format.fprintf fmt "%-24s (no estimate)@." (Test.name test)
         | ns ->
           let mean =
             List.fold_left ( +. ) 0. ns /. float_of_int (List.length ns)
           in
           Format.fprintf fmt "%-24s %12.1f ns/run@." (Test.name test) mean);
        { Engine.Perf_history.bench = Test.name test; ns = estimates })
      tests
  in
  Option.iter
    (fun path ->
      let record =
        {
          Engine.Perf_history.ts = Unix.gettimeofday ();
          label = Engine.Build_info.describe ();
          entries;
        }
      in
      match Engine.Perf_history.append ~path record with
      | Ok () ->
        Format.fprintf efmt "[perf record (%d benchmarks x %d reps) \
                             appended to %s]@."
          (List.length entries) reps path
      | Error msg ->
        prerr_endline ("cannot write " ^ msg);
        exit 2)
    c.record

let () =
  match Engine.Cli.parse Sys.argv with
  | Engine.Cli.Help msg -> print_string msg
  | Engine.Cli.Error msg ->
    prerr_endline msg;
    exit 2
  | Engine.Cli.Config c -> (
    match c.action with
    | Engine.Cli.List -> list_ids ()
    | Engine.Cli.Version -> print_endline (Engine.Build_info.describe ())
    | Engine.Cli.Perf -> perf c
    | Engine.Cli.Run -> run_experiments c)
