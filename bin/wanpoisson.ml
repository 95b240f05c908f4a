(* wanpoisson: command-line frontend.

   Subcommands:
     list                     -- list reproducible experiments
     run ID... [--out DIR]    -- run experiments (or "all"), reports to stdout
     perf [NAME...]           -- Bechamel micro-benchmarks (bin/perf.ml)
     gen DATASET -o FILE      -- synthesize a SYN/FIN trace to a TSV file
     check FILE [-p PROTO]    -- Appendix-A Poisson battery on a saved trace
     hurst FILE [-p PROTO]    -- LRD analysis of a saved trace's arrivals
     perf-diff OLD NEW        -- statistically-gated perf comparison
     verify-manifest A B      -- diff two run.json provenance manifests *)

open Cmdliner

(* Every subcommand that takes a worker count builds its --jobs argument
   here, so the flag names, docv and the >= 1 validation cannot diverge
   between subcommands again. *)
let jobs_arg ~default ~doc =
  Arg.(value & opt int default & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let check_jobs jobs =
  if jobs < 1 then Some "--jobs must be at least 1" else None

(* The one --workers term of the multi-process commands. *)
let workers_arg =
  Arg.(value & opt int (Engine.Pool.default_jobs ())
       & info [ "w"; "workers" ] ~docv:"N"
           ~doc:"Worker processes (default: one per core); stdout is \
                 byte-identical at any value")

(* The closing stderr line: wall time and peak RSS since [t0]. *)
let eprint_wall ?workers t0 =
  let wall = Unix.gettimeofday () -. t0 in
  let prefix =
    match workers with Some w -> Printf.sprintf "workers %d, " w | None -> ""
  in
  match Engine.Procstat.peak_rss_kb () with
  | Some kb -> Printf.eprintf "%swall %.2f s, peak RSS %d kB\n" prefix wall kb
  | None -> Printf.eprintf "%swall %.2f s\n" prefix wall

let write_file path text =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc text)

(* ---------------- shared: observability flags ---------------- *)

(* The --metrics / --trace / --log block of run and farm. *)
type obs = { metrics : bool; trace : string option; log : string option }

let no_obs = { metrics = false; trace = None; log = None }

let obs_term =
  let metrics =
    Arg.(value & flag & info [ "metrics" ]
           ~doc:"Record telemetry; print the span/counter summary (and, for \
                 $(b,farm), the per-worker table) to stderr")
  in
  let trace =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
           ~doc:"Record telemetry; write Chrome trace-event JSON to $(docv) \
                 — for $(b,farm), one merged trace with a lane per worker \
                 (load in chrome://tracing or Perfetto)")
  in
  let log =
    Arg.(value & opt (some string) None & info [ "log" ] ~docv:"FILE"
           ~doc:"Record structured events; stream JSONL to $(docv) (farm \
                 worker events arrive with worker attribution)")
  in
  Term.(const (fun metrics trace log -> { metrics; trace; log })
        $ metrics $ trace $ log)

(* Preflight every output path (the flags' and the command's [paths])
   before any work: the first unwritable one is named on stderr and the
   process exits 2. The probe opens without truncating, so a failed run
   never destroys an existing output. Then enable telemetry and logging
   as the flags — or the command, through [telemetry] and [logging] —
   ask; run [f]; tear down. *)
let with_obs ?(paths = []) ?(telemetry = false) ?(logging = false)
    ?(level = Engine.Log.Info) o f =
  List.iter
    (Option.iter (fun path ->
         match open_out_gen [ Open_wronly; Open_creat ] 0o644 path with
         | oc -> close_out_noerr oc
         | exception Sys_error msg ->
           prerr_endline ("cannot write " ^ msg);
           exit 2))
    (o.trace :: o.log :: paths);
  let telemetry = telemetry || o.metrics || o.trace <> None in
  let logging = logging || o.metrics || o.log <> None in
  if telemetry then begin
    Engine.Telemetry.set_enabled true;
    Engine.Telemetry.reset ()
  end;
  if logging then begin
    Engine.Log.set_enabled true;
    Engine.Log.reset ();
    Engine.Log.set_level level;
    Option.iter
      (fun path ->
        match Engine.Log.open_file path with
        | Ok () -> ()
        | Error msg ->
          prerr_endline ("cannot write " ^ msg);
          exit 2)
      o.log
  end;
  Fun.protect
    ~finally:(fun () ->
      if logging then begin
        Engine.Log.close_file ();
        Engine.Log.set_enabled false
      end;
      if telemetry then Engine.Telemetry.set_enabled false)
    f

(* The end-of-run half: the --metrics summary, then the command's own
   rows ([extra]), and the --trace file ([lanes]: one per process). *)
let obs_report ?(extra = ignore) ?lanes o =
  if o.metrics then begin
    Engine.Telemetry.pp_summary Format.err_formatter;
    extra ()
  end;
  Option.iter
    (fun path ->
      write_file path
        (match lanes with
        | None -> Engine.Telemetry.to_chrome_trace ()
        | Some l -> Engine.Telemetry.to_chrome_trace_multi (l ()));
      Printf.eprintf "chrome trace written to %s\n%!" path)
    o.trace

let eprint_warnings () =
  List.iter
    (fun ev -> Format.eprintf "%a@." Engine.Log.pp_event ev)
    (Engine.Log.warnings ())

(* ---------------- list ---------------- *)

let list_cmd =
  let run () =
    List.iter
      (fun (e : Core.Registry.entry) -> Printf.printf "%-14s %s\n" e.id e.title)
      Core.Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List experiment ids (tables, figures, in-text)")
    Term.(const run $ const ())

(* ---------------- run ---------------- *)

(* Perf-trajectory sparkline for the HTML report: one line per
   benchmark of a --record history, each record's mean ns normalised to
   the first, so wildly different absolute scales share one chart. *)
let perf_sparkline path =
  match Engine.Perf_history.load path with
  | Error e ->
    Printf.eprintf "[note: no perf trajectory: %s]\n%!" e;
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
            records
            |> List.mapi (fun i (r : Engine.Perf_history.record) ->
                   List.find_opt
                     (fun (e : Engine.Perf_history.entry) -> e.bench = name)
                     r.entries
                   |> Option.map (fun (e : Engine.Perf_history.entry) ->
                          (float_of_int i, mean e.ns)))
            |> List.filter_map Fun.id
          in
          match points with
          | (_, first) :: _ :: _ when first > 0. ->
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

let run_cmd =
  let ids_arg =
    Arg.(non_empty & pos_all string [] & info [] ~docv:"ID"
           ~doc:"Experiment ids from $(b,list), run and printed in the \
                 order given; $(b,all) is the whole registry")
  in
  let jobs_arg =
    jobs_arg ~default:(Engine.Pool.default_jobs ())
      ~doc:"Worker domains (default: one per core); stdout is \
            byte-identical at any value"
  in
  let seed_arg =
    Arg.(value & opt int 0 & info [ "seed" ] ~docv:"S"
           ~doc:"Root seed for per-experiment RNG streams")
  in
  let out_arg =
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"DIR"
           ~doc:"Also write each experiment's report and figures under \
                 $(docv) ($(i,id).txt, $(i,id).svg), plus the run.json \
                 provenance manifest that $(b,verify-manifest) compares")
  in
  let log_level_arg =
    Arg.(value & opt string "info" & info [ "log-level" ] ~docv:"LVL"
           ~doc:"Minimum level recorded: debug, info, warn, error")
  in
  let report_html_arg =
    Arg.(value & opt (some string) None & info [ "report-html" ] ~docv:"FILE"
           ~doc:"Write a self-contained HTML run report to $(docv)")
  in
  let record_arg =
    Arg.(value & opt (some string) None & info [ "record" ] ~docv:"FILE"
           ~doc:"With $(b,--report-html): chart the perf trajectory of \
                 this $(b,perf --record) history in the report")
  in
  let run ids jobs seed out o log_level report_html record =
    let lookup id =
      if id = "all" then Some Core.Registry.all
      else Option.map (fun e -> [ e ]) (Core.Registry.find id)
    in
    match
      ( check_jobs jobs,
        Engine.Log.level_of_string log_level,
        List.filter (fun id -> Option.is_none (lookup id)) ids )
    with
    | Some e, _, _ -> `Error (false, e)
    | None, None, _ ->
      `Error
        ( false,
          Printf.sprintf "unknown log level %S (want debug, info, warn or error)"
            log_level )
    | None, _, (_ :: _ as unknown) ->
      Printf.eprintf "unknown experiment id%s %s; try `wanpoisson list`\n"
        (if List.length unknown > 1 then "s" else "")
        (String.concat ", " unknown);
      exit 2
    | None, Some level, [] ->
      let entries = List.concat_map (fun id -> Option.get (lookup id)) ids in
      let html = report_html <> None in
      let files = html || out <> None in
      (* --out DIR is created up front so that its run.json joins the
         preflight: an unusable DIR fails there, naming the path. *)
      Option.iter
        (fun d -> try Engine.Artifact.mkdir_p d with Sys_error _ -> ())
        out;
      let manifest_path =
        Option.map (fun d -> Filename.concat d "run.json") out
      in
      let failed =
        with_obs o ~paths:[ report_html; manifest_path ] ~telemetry:html
          ~logging:html ~level (fun () ->
            Printf.eprintf
              "Reproduction harness: Paxson & Floyd, \"Wide-Area Traffic: \
               The Failure of Poisson Modeling\"\n\
               (%d experiments, %d worker domain%s, seed %d)\n%!"
              (List.length entries) jobs
              (if jobs = 1 then "" else "s")
              seed;
            Engine.Log.info "run.start"
              [
                ("experiments", Engine.Log.I (List.length entries));
                ("jobs", Engine.Log.I jobs);
                ("seed", Engine.Log.I seed);
              ];
            let t0 = Unix.gettimeofday () in
            let results =
              Engine.Pool.run ~jobs ~seed ~figures:files
                (List.map Core.Registry.task entries)
            in
            let total = Unix.gettimeofday () -. t0 in
            List.iter2
              (fun (e : Core.Registry.entry) -> function
                | Ok (a : Engine.Artifact.t) ->
                  print_string a.text;
                  flush stdout;
                  Printf.eprintf "[%s done in %.2fs]\n%!" a.id a.duration_s;
                  Option.iter
                    (fun dir -> ignore (Engine.Artifact.save ~dir a))
                    out
                | Error exn ->
                  Printf.eprintf "[%s FAILED: %s]\n%!" e.id
                    (Printexc.to_string exn))
              entries results;
            let artifacts = List.filter_map Result.to_option results in
            let failed = List.length results - List.length artifacts in
            Printf.eprintf "[total %.2fs, jobs=%d%s]\n%!" total jobs
              (if failed = 0 then "" else Printf.sprintf ", %d FAILED" failed);
            Engine.Log.info "run.done"
              [
                ("total_s", Engine.Log.F total);
                ("failed", Engine.Log.I failed);
              ];
            obs_report o ~extra:eprint_warnings;
            if files then begin
              let manifest =
                Engine.Manifest.of_run ~created_at:(Unix.gettimeofday ())
                  ~seed ~jobs ~total_s:total artifacts
              in
              Option.iter
                (fun path ->
                  Engine.Manifest.write ~path manifest;
                  Printf.eprintf "[manifest and artifacts written under %s/]\n%!"
                    (Filename.dirname path))
                manifest_path;
              Option.iter
                (fun path ->
                  let sparklines =
                    match record with
                    | Some hist when Sys.file_exists hist -> perf_sparkline hist
                    | _ -> []
                  in
                  write_file path
                    (Engine.Report_html.render ~manifest
                       ~log_events:(Engine.Log.events ()) ~sparklines
                       ~title:("wanpoisson run " ^ String.concat " " ids)
                       ~build:(Engine.Build_info.describe ()) ~seed ~jobs
                       ~total_s:total ~artifacts
                       ~events:(Engine.Telemetry.events ())
                       ~counters:(Engine.Telemetry.counters ()) ());
                  Printf.eprintf "[HTML report written to %s]\n%!" path)
                report_html
            end;
            failed)
      in
      if failed > 0 then exit 1;
      `Ok ()
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Regenerate tables, figures and in-text experiments: their reports \
          go to stdout in the order given, progress and timing to stderr; \
          exit 1 if any experiment failed")
    Term.(
      ret
        (const run $ ids_arg $ jobs_arg $ seed_arg $ out_arg $ obs_term
       $ log_level_arg $ report_html_arg $ record_arg))

(* ---------------- perf ---------------- *)

let perf_cmd =
  let names_arg =
    Arg.(value & pos_all string [] & info [] ~docv:"NAME"
           ~doc:"Benchmarks to run (default: all)")
  in
  let record_arg =
    Arg.(value & opt (some string) None & info [ "record" ] ~docv:"FILE"
           ~doc:"Append a timestamped record of every repetition to \
                 $(docv), the input of $(b,perf-diff)")
  in
  let run names record =
    match Perf.select names with
    | Error msg ->
      prerr_endline msg;
      exit 2
    | Ok tests ->
      with_obs no_obs ~paths:[ record ] (fun () -> Perf.run ?record tests)
  in
  Cmd.v
    (Cmd.info "perf" ~doc:"Bechamel micro-benchmarks of the hot primitives")
    Term.(const run $ names_arg $ record_arg)

(* ---------------- gen ---------------- *)

let gen_cmd =
  let dataset_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"DATASET"
           ~doc:"Catalog name, e.g. LBL-1 (see DESIGN.md)")
  in
  let file_arg =
    Arg.(required & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE"
           ~doc:"Output TSV path")
  in
  let days_arg =
    Arg.(value & opt (some float) None & info [ "days" ] ~docv:"DAYS"
           ~doc:"Override the synthetic span in days")
  in
  let run name file days =
    match Trace.Dataset.find name with
    | None -> `Error (false, "unknown dataset " ^ name)
    | Some spec ->
      let trace = Trace.Dataset.generate ?days spec in
      Trace.Io.save file trace;
      Printf.printf "wrote %d connections to %s\n"
        (Array.length trace.Trace.Record.connections)
        file;
      `Ok ()
  in
  Cmd.v (Cmd.info "gen" ~doc:"Synthesize a SYN/FIN connection trace")
    Term.(ret (const run $ dataset_arg $ file_arg $ days_arg))

(* ---------------- genpkt ---------------- *)

let genpkt_cmd =
  let dataset_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"DATASET"
           ~doc:"Packet catalog name, e.g. LBL-PKT-2")
  in
  let file_arg =
    Arg.(required & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE"
           ~doc:"Output path")
  in
  let run name file =
    match Trace.Packet_dataset.find name with
    | None -> `Error (false, "unknown packet dataset " ^ name)
    | Some spec ->
      let t = Trace.Packet_io.of_packet_dataset (Trace.Packet_dataset.generate spec) in
      Trace.Packet_io.save file t;
      Printf.printf "wrote %d packets to %s\n"
        (Array.length t.Trace.Packet_io.packets)
        file;
      `Ok ()
  in
  Cmd.v (Cmd.info "genpkt" ~doc:"Synthesize a packet-level trace")
    Term.(ret (const run $ dataset_arg $ file_arg))

(* ---------------- shared: load + select arrivals ---------------- *)

let proto_arg =
  Arg.(value & opt (some string) None & info [ "p"; "protocol" ]
         ~docv:"PROTO"
         ~doc:"Restrict to one protocol (telnet, ftp, ftpdata, smtp, nntp, \
               www, rlogin, x11); default: all connections")

(* A trace file that cannot be read or parsed, or whose contents cannot
   support the analysis asked for, ends the command: the reason goes to
   stderr and the exit code is 2. *)
let input_error msg =
  prerr_endline ("wanpoisson: " ^ msg);
  exit 2

let load_or_exit = function Ok x -> x | Error msg -> input_error msg

(* A file is a packet trace iff its header says so; an unreadable or
   empty file is left to the connection-trace loader to name. *)
let is_packet_trace path =
  match In_channel.with_open_text path In_channel.input_line with
  | Some line -> String.split_on_char '\t' line |> List.hd = "# pkttrace"
  | None | (exception Sys_error _) -> false

(* (arrival times, span) from either trace format; a bad file exits 2,
   an unknown --protocol is an [Error]. *)
let load_arrivals path proto =
  let proto_of p =
    match Trace.Record.protocol_of_string p with
    | None -> Error ("unknown protocol " ^ p)
    | Some proto -> Ok proto
  in
  if is_packet_trace path then begin
    let t = load_or_exit (Trace.Packet_io.load path) in
    match proto with
    | None -> Ok (Trace.Packet_io.times t (), t.Trace.Packet_io.span)
    | Some p ->
      Result.map
        (fun proto ->
          (Trace.Packet_io.times t ~protocol:proto (), t.Trace.Packet_io.span))
        (proto_of p)
  end
  else begin
    let trace = load_or_exit (Trace.Io.load path) in
    let span = trace.Trace.Record.span in
    match proto with
    | None -> Ok (Trace.Record.starts trace.Trace.Record.connections, span)
    | Some p ->
      Result.map
        (fun proto ->
          (Trace.Record.starts (Trace.Record.filter_protocol trace proto), span))
        (proto_of p)
  end

(* ---------------- check ---------------- *)

let check_cmd =
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"
           ~doc:"Trace file written by $(b,gen) (or in the same format)")
  in
  let interval_arg =
    Arg.(value & opt float 3600. & info [ "interval" ] ~docv:"SECONDS"
           ~doc:"Fixed-rate interval length (default one hour)")
  in
  let run file proto interval =
    match load_arrivals file proto with
    | Error e -> `Error (false, e)
    | Ok (arrivals, _) when Array.length arrivals < 10 ->
      input_error "too few arrivals to test"
    | Ok (arrivals, span) ->
      let v = Stest.Poisson_check.check ~interval ~duration:span arrivals in
      Format.printf "%s (%d arrivals): %a@." file (Array.length arrivals)
        Stest.Poisson_check.pp v;
      `Ok ()
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Test a trace's arrivals for Poisson structure (Appendix A)")
    Term.(ret (const run $ file_arg $ proto_arg $ interval_arg))

(* ---------------- render ---------------- *)

let render_cmd =
  let id_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"ID"
           ~doc:"Figure id (see $(b,list)), or $(b,all)")
  in
  let dir_arg =
    Arg.(value & opt string "figures" & info [ "d"; "dir" ] ~docv:"DIR"
           ~doc:"Output directory (default ./figures)")
  in
  let run id dir =
    if id = "all" then begin
      Core.Figure_svg.save_all ~dir;
      Printf.printf "wrote %d figures to %s/\n"
        (List.length Core.Figure_svg.supported)
        dir;
      `Ok ()
    end
    else
      match Core.Figure_svg.render id with
      | None ->
        `Error
          ( false,
            "no SVG rendering for " ^ id ^ "; supported: "
            ^ String.concat ", " Core.Figure_svg.supported )
      | Some svg ->
        if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
        let path = Filename.concat dir (id ^ ".svg") in
        let oc = open_out path in
        output_string oc svg;
        close_out oc;
        Printf.printf "wrote %s\n" path;
        `Ok ()
  in
  Cmd.v (Cmd.info "render" ~doc:"Render a figure as SVG")
    Term.(ret (const run $ id_arg $ dir_arg))

(* ---------------- summary ---------------- *)

let summary_cmd =
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"
           ~doc:"Trace file written by $(b,gen)")
  in
  let run file =
    let trace = load_or_exit (Trace.Io.load file) in
    Format.printf "%s (%.1f h)@." trace.Trace.Record.name
      (trace.Trace.Record.span /. 3600.);
    Format.printf "%a@." Trace.Summary.pp trace
  in
  Cmd.v (Cmd.info "summary" ~doc:"Per-protocol summary of a trace")
    Term.(const run $ file_arg)

(* ---------------- analyze ---------------- *)

let analyze_cmd =
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"
           ~doc:"Connection or packet trace")
  in
  let bin_arg =
    Arg.(value & opt float 1.0 & info [ "bin" ] ~docv:"SECONDS"
           ~doc:"Count-process bin width (default 1 s)")
  in
  let run file proto bin =
    match load_arrivals file proto with
    | Error e -> `Error (false, e)
    | Ok (arrivals, _) when Array.length arrivals < 100 ->
      input_error "too few arrivals for a full analysis"
    | Ok (arrivals, span) ->
      if span /. bin < 512. then input_error "span/bin too small; lower --bin"
      else begin
        let report = Core.Analyze.arrivals ~bin ~span arrivals in
        Format.printf "%a@." Core.Analyze.pp report;
        `Ok ()
      end
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Full Paxson-Floyd analysis of a trace: Poisson battery, five \
             Hurst estimators, LRD tests, marginals")
    Term.(ret (const run $ file_arg $ proto_arg $ bin_arg))

(* ---------------- hurst ---------------- *)

let hurst_cmd =
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"
           ~doc:"Trace file written by $(b,gen)")
  in
  let bin_arg =
    Arg.(value & opt float 1.0 & info [ "bin" ] ~docv:"SECONDS"
           ~doc:"Count-process bin width (default 1 s)")
  in
  let run file proto bin =
    match load_arrivals file proto with
    | Error e -> `Error (false, e)
    | Ok (arrivals, _) when Array.length arrivals < 100 ->
      input_error "too few arrivals for LRD analysis"
    | Ok (arrivals, span) ->
      let counts = Timeseries.Counts.of_events ~bin ~t_end:span arrivals in
      let vt = Lrd.Hurst.variance_time counts in
      let wh = Lrd.Whittle.estimate counts in
      let beran = Lrd.Beran.test ~h:wh.Lrd.Whittle.h counts in
      Format.printf "H (variance-time)  = %.3f (r2 %.2f)@." vt.Lrd.Hurst.h
        vt.Lrd.Hurst.r2;
      Format.printf "H (R/S)            = %.3f@."
        (Lrd.Hurst.rescaled_range counts).Lrd.Hurst.h;
      Format.printf "H (Whittle)        = %.3f +/- %.3f@." wh.Lrd.Whittle.h
        wh.Lrd.Whittle.stderr;
      Format.printf "Beran fGn fit      = p %.4f (%s)@."
        beran.Lrd.Beran.p_value
        (if beran.Lrd.Beran.consistent then "consistent" else "rejected");
      `Ok ()
  in
  Cmd.v
    (Cmd.info "hurst" ~doc:"Long-range dependence analysis of a trace")
    Term.(ret (const run $ file_arg $ proto_arg $ bin_arg))

(* ---------------- stream ---------------- *)

let stream_cmd =
  let model_arg =
    Arg.(value & opt string "poisson" & info [ "model" ] ~docv:"MODEL"
           ~doc:"Source model: poisson, pareto, mginf or onoff")
  in
  let events_arg =
    Arg.(value & opt float 1e6 & info [ "events" ] ~docv:"N"
           ~doc:"Expected events (poisson) or count bins (other models); \
                 accepts scientific notation, e.g. 1e8")
  in
  let rate_arg =
    Arg.(value & opt float 1000. & info [ "rate" ] ~docv:"R"
           ~doc:"Arrival rate in events/s (poisson, mginf; default 1000)")
  in
  let bin_arg =
    Arg.(value & opt float 1.0 & info [ "bin" ] ~docv:"SECONDS"
           ~doc:"Count-process bin width (default 1 s)")
  in
  let beta_arg =
    Arg.(value & opt float 1.5 & info [ "beta" ] ~docv:"B"
           ~doc:"Pareto shape for pareto/mginf/onoff (default 1.5)")
  in
  let chunk_arg =
    Arg.(value & opt int 65536 & info [ "chunk" ] ~docv:"N"
           ~doc:"Streaming chunk size in bins/events (default 65536)")
  in
  let seed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED"
           ~doc:"Root RNG seed (default 42)")
  in
  let jobs_arg =
    jobs_arg ~default:1
      ~doc:"Worker domains for sharded generation (default 1); the \
            report is byte-identical at any value"
  in
  let materialized_arg =
    Arg.(value & flag & info [ "materialized" ]
           ~doc:"Analyse through the array entry points (O(bins) memory) \
                 instead of the streaming sinks; the smoke test's baseline")
  in
  let no_wavelet_arg =
    Arg.(value & flag & info [ "no-wavelet" ]
           ~doc:"Skip the Abry-Veitch wavelet H read-out and report line \
                 (the octave energies are fused into the cascade either \
                 way; this is the perf bench's no-read-out baseline)")
  in
  let run model events rate bin beta chunk seed jobs materialized no_wavelet =
    match check_jobs jobs with
    | Some e -> `Error (false, e)
    | None ->
    if events < 1. then `Error (false, "--events must be at least 1")
    else if rate <= 0. || bin <= 0. || chunk < 1 then
      `Error (false, "--rate, --bin and --chunk must be positive")
    else begin
      Engine.Par.set_extra_domains (jobs - 1);
      let spec =
        { Core.Streaming.model; events; rate; bin; beta; chunk; seed;
          materialized; wavelet = not no_wavelet }
      in
      let t0 = Unix.gettimeofday () in
      match Core.Streaming.run spec with
      | exception Invalid_argument e -> `Error (false, e)
      | result ->
        Core.Streaming.pp Format.std_formatter spec result;
        Format.pp_print_flush Format.std_formatter ();
        eprint_wall t0;
        `Ok ()
    end
  in
  Cmd.v
    (Cmd.info "stream"
       ~doc:
         "One-pass LRD analysis of a streamed trace: generate a source \
          model chunk by chunk and fold it through the aggregation \
          pyramid and R/S sinks in O(levels x chunk) memory")
    Term.(ret
            (const run $ model_arg $ events_arg $ rate_arg $ bin_arg
             $ beta_arg $ chunk_arg $ seed_arg $ jobs_arg $ materialized_arg
             $ no_wavelet_arg))

(* ---------------- farm ---------------- *)

let farm_cmd =
  let model_arg =
    Arg.(value & opt string "poisson" & info [ "model" ] ~docv:"MODEL"
           ~doc:"Source model; only poisson farms out (independent \
                 increments over disjoint bin windows)")
  in
  let events_arg =
    Arg.(value & opt float 1e6 & info [ "events" ] ~docv:"N"
           ~doc:"Expected events; accepts scientific notation, e.g. 1e9")
  in
  let rate_arg =
    Arg.(value & opt float 1000. & info [ "rate" ] ~docv:"R"
           ~doc:"Arrival rate in events/s (default 1000)")
  in
  let bin_arg =
    Arg.(value & opt float 1.0 & info [ "bin" ] ~docv:"SECONDS"
           ~doc:"Count-process bin width (default 1 s)")
  in
  let chunk_arg =
    Arg.(value & opt int 65536 & info [ "chunk" ] ~docv:"N"
           ~doc:"Per-worker streaming chunk size (default 65536)")
  in
  let seed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED"
           ~doc:"Root RNG seed (default 42); stdout is byte-identical \
                 for a fixed seed at any $(b,--workers)")
  in
  let shards_arg =
    Arg.(value & opt int Core.Farm.default.Core.Farm.shards
         & info [ "shards" ] ~docv:"N"
             ~doc:"Target macro-shard count; the grid layout depends only \
                   on this, never on $(b,--workers) (default 128)")
  in
  let inject_crash_arg =
    Arg.(value & opt int (-1) & info [ "inject-crash" ] ~docv:"W"
           ~doc:"Testing hook: worker $(docv) kills itself (SIGKILL) \
                 after its first completed macro-shard; the coordinator \
                 must detect it and exit nonzero (-1 = off)")
  in
  let inject_stall_arg =
    Arg.(value & opt int (-1) & info [ "inject-stall" ] ~docv:"W"
           ~doc:"Testing hook: worker $(docv) wedges silently (alive, no \
                 frames) after its first completed macro-shard; the \
                 missed-heartbeat deadline must catch it (-1 = off)")
  in
  let out_arg =
    Arg.(value & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE"
           ~doc:"Write a farm-aware run.json manifest to $(docv): report \
                 content hash plus per-worker exit/RSS/event-count rows \
                 ($(b,verify-manifest) understands it)")
  in
  let progress_arg =
    Arg.(value & flag & info [ "progress" ]
           ~doc:"Rewrite a live aggregate progress line on stderr from \
                 worker heartbeats; stdout is unaffected")
  in
  let stall_timeout_arg =
    Arg.(value & opt float Engine.Job.default_opts.stall_timeout_s
         & info [ "stall-timeout" ] ~docv:"SECONDS"
             ~doc:"Declare a worker stalled after this long without any \
                   frame, log $(b,farm.worker_stalled), SIGKILL it and \
                   fail the run (0 disables; default 30). Workers beat \
                   every min(1 s, $(docv)/4)")
  in
  let run model events rate bin chunk seed workers shards inject_crash
      inject_stall o out progress stall_timeout =
    let spec =
      { Core.Farm.model; events; rate; bin; chunk; seed; workers; shards }
    in
    let opts =
      { Engine.Job.metrics = o.metrics; trace = o.trace <> None;
        logs = o.log <> None; stall_timeout_s = stall_timeout; progress;
        inject_crash; inject_stall }
    in
    let t0 = Unix.gettimeofday () in
    match
      with_obs o ~paths:[ out ] ~logging:true (fun () ->
          match Core.Farm.run ~exe:Sys.executable_name ~opts spec with
          | exception Invalid_argument e -> `Error (false, e)
          | Error e ->
            eprint_warnings ();
            `Failed e
          | Ok (result, obs) ->
            (* Render once: the same bytes go to stdout and, hashed, into
               the manifest — byte-identical at any worker count. *)
            let report = Format.asprintf "%a" (fun fmt () -> Core.Farm.pp fmt spec result) () in
            print_string report;
            flush stdout;
            let wall = Unix.gettimeofday () -. t0 in
            obs_report o
              ~lanes:(fun () -> Engine.Job.trace_processes obs)
              ~extra:(fun () ->
                List.iter
                  (fun (w : Engine.Manifest.worker_entry) ->
                    Printf.eprintf
                      "  worker %d: %s%s, %d events, %d shards, %.2f s, rss %d kB\n"
                      w.wk_index w.wk_status
                      (if w.wk_stalled then " (stalled)" else "")
                      w.wk_events w.wk_shards w.wk_wall_s w.wk_rss_kb)
                  obs.o_workers;
                flush stderr);
            Option.iter
              (fun path ->
                let art =
                  { Engine.Artifact.id = "farm"; title = "farm report";
                    text = report; figures = []; duration_s = wall; metrics = [] }
                in
                Engine.Manifest.write ~path
                  (Engine.Manifest.of_run ~farm_workers:obs.o_workers
                     ~created_at:(Unix.gettimeofday ()) ~seed ~jobs:workers
                     ~total_s:wall [ art ]);
                Printf.eprintf "manifest written to %s\n%!" path)
              out;
            `Ok ())
    with
    | `Failed e ->
      Printf.eprintf "farm failed: %s\n%!" e;
      exit 1
    | `Error _ as e -> e
    | `Ok () ->
      eprint_wall ~workers t0;
      `Ok ()
  in
  Cmd.v
    (Cmd.info "farm"
       ~doc:
         "Sharded multi-process trace analysis: worker processes stream \
          disjoint macro-shards of the trace and ship pyramid snapshots, \
          quantile sketches, span tables, logs and heartbeats back as \
          checksummed binary frames; the coordinator merges them in shard \
          order, so the report is byte-identical at any worker count")
    Term.(ret
            (const run $ model_arg $ events_arg $ rate_arg $ bin_arg
             $ chunk_arg $ seed_arg $ workers_arg $ shards_arg
             $ inject_crash_arg $ inject_stall_arg $ obs_term $ out_arg
             $ progress_arg $ stall_timeout_arg))

(* ---------------- netsim ---------------- *)

let netsim_cmd =
  let d = Core.Netsim.default in
  let model_arg =
    Arg.(value & opt string d.Core.Netsim.model
         & info [ "model" ] ~docv:"MODEL"
             ~doc:"Traffic model per replica: onoff (Pareto ON/OFF \
                   superposition) or poisson (default onoff)")
  in
  let events_arg =
    Arg.(value & opt float d.Core.Netsim.events
         & info [ "events" ] ~docv:"N"
             ~doc:"Total packets across all replicas; accepts scientific \
                   notation, e.g. 1e9 (default 1e6)")
  in
  let replicas_arg =
    Arg.(value & opt int d.Core.Netsim.replicas
         & info [ "replicas" ] ~docv:"N"
             ~doc:"Independent replicas; the sharding grid depends only on \
                   this, never on $(b,--workers) (default 8)")
  in
  let sources_arg =
    Arg.(value & opt int d.Core.Netsim.sources
         & info [ "sources" ] ~docv:"N"
             ~doc:"ON/OFF sources per replica (default 64)")
  in
  let beta_arg =
    Arg.(value & opt float d.Core.Netsim.beta
         & info [ "beta" ] ~docv:"B"
             ~doc:"Pareto shape of ON/OFF periods (default 1.5)")
  in
  let mean_period_arg =
    Arg.(value & opt float d.Core.Netsim.mean_period
         & info [ "mean-period" ] ~docv:"S"
             ~doc:"Mean ON/OFF period in seconds (default 10)")
  in
  let on_rate_arg =
    Arg.(value & opt float d.Core.Netsim.on_rate
         & info [ "on-rate" ] ~docv:"R"
             ~doc:"Packets/s while a source is ON (default 4)")
  in
  let rate_arg =
    Arg.(value & opt float d.Core.Netsim.rate
         & info [ "rate" ] ~docv:"R"
             ~doc:"Aggregate packet rate for the poisson model \
                   (default 1000)")
  in
  let load_arg =
    Arg.(value & opt float d.Core.Netsim.load
         & info [ "load" ] ~docv:"RHO"
             ~doc:"Target utilization; per-link service time is \
                   load / lambda (default 0.8)")
  in
  let topology_arg =
    Arg.(value & opt string d.Core.Netsim.topology
         & info [ "topology" ] ~docv:"T"
             ~doc:"tandem:K (K links in series, K in [1,8]) or fanin:M \
                   (M ingress links into one egress, M in [1,7]); \
                   default tandem:2")
  in
  let discipline_arg =
    Arg.(value & opt string d.Core.Netsim.discipline
         & info [ "discipline" ] ~docv:"D"
             ~doc:"droptail, red or priority (default droptail)")
  in
  let buffer_arg =
    Arg.(value & opt int d.Core.Netsim.buffer
         & info [ "buffer" ] ~docv:"N"
             ~doc:"Waiting slots per link (default 64)")
  in
  let chunk_arg =
    Arg.(value & opt int d.Core.Netsim.chunk
         & info [ "chunk" ] ~docv:"N"
             ~doc:"Streaming chunk size (default 65536)")
  in
  let seed_arg =
    Arg.(value & opt int d.Core.Netsim.seed
         & info [ "seed" ] ~docv:"SEED"
             ~doc:"Root RNG seed (default 42); stdout is byte-identical \
                   for a fixed seed at any $(b,--workers)")
  in
  let run model events replicas sources beta mean_period on_rate rate load
      topology discipline buffer chunk seed workers =
    let spec =
      { Core.Netsim.model; events; replicas; sources; beta; mean_period;
        on_rate; rate; load; topology; discipline; buffer; chunk; seed;
        workers }
    in
    let t0 = Unix.gettimeofday () in
    match
      with_obs no_obs ~logging:true (fun () ->
          match Core.Netsim.run ~exe:Sys.executable_name spec with
          | exception Invalid_argument e -> `Error (false, e)
          | Error e ->
            eprint_warnings ();
            `Failed e
          | Ok r ->
            Core.Netsim.pp Format.std_formatter spec r;
            Format.pp_print_flush Format.std_formatter ();
            `Ok ())
    with
    | `Failed e ->
      Printf.eprintf "netsim failed: %s\n%!" e;
      exit 1
    | `Error _ as e -> e
    | `Ok () ->
      eprint_wall ~workers t0;
      `Ok ()
  in
  Cmd.v
    (Cmd.info "netsim"
       ~doc:
         "Replica-sharded network simulation: each worker process \
          simulates whole independent replicas (queue state cannot be \
          split mid-stream, unlike the poisson farm's macro-shards) and \
          ships per-link per-class waiting-time sketch partials back as \
          binary frames; the coordinator merges them in replica order, \
          so the report is byte-identical at any worker count")
    Term.(ret
            (const run $ model_arg $ events_arg $ replicas_arg $ sources_arg
             $ beta_arg $ mean_period_arg $ on_rate_arg $ rate_arg $ load_arg
             $ topology_arg $ discipline_arg $ buffer_arg $ chunk_arg
             $ seed_arg $ workers_arg))

(* ---------------- serve ---------------- *)

let serve_cmd =
  let source_arg =
    Arg.(value & opt string "splice" & info [ "source" ] ~docv:"SRC"
           ~doc:"Event source: splice (Poisson then rate-matched Pareto \
                 ON/OFF), poisson, onoff, diurnal (Poisson under the \
                 paper's Fig. 1 WWW hourly rate envelope — watch the \
                 rolling variance-time H inflate while Hw holds), or \
                 stdin (newline-separated \
                 non-decreasing event times)")
  in
  let events_arg =
    Arg.(value & opt float 1e6 & info [ "events" ] ~docv:"N"
           ~doc:"Expected events for generated sources (default 1e6)")
  in
  let rate_arg =
    Arg.(value & opt float 100. & info [ "rate" ] ~docv:"R"
           ~doc:"Marginal arrival rate in events/s (default 100)")
  in
  let bin_arg =
    Arg.(value & opt float 1.0 & info [ "bin" ] ~docv:"SECONDS"
           ~doc:"Count-process bin width (default 1 s)")
  in
  let beta_arg =
    Arg.(value & opt float 1.2 & info [ "beta" ] ~docv:"B"
           ~doc:"Pareto shape for the ON/OFF source (default 1.2)")
  in
  let chunk_arg =
    Arg.(value & opt int 65536 & info [ "chunk" ] ~docv:"N"
           ~doc:"Count-buffer size in bins (default 65536)")
  in
  let seed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED"
           ~doc:"Root RNG seed (default 42); output is byte-identical \
                 for a fixed seed")
  in
  let window_arg =
    Arg.(value & opt int 256 & info [ "window" ] ~docv:"BINS"
           ~doc:"Rolling window size in bins, rounded up to a power of \
                 two (default 256)")
  in
  let cadence_arg =
    Arg.(value & opt int 64 & info [ "cadence" ] ~docv:"BINS"
           ~doc:"Bins between rolling estimates (default 64)")
  in
  let tumbling_arg =
    Arg.(value & flag & info [ "tumbling" ]
           ~doc:"Tumbling windows (one estimate per completed window) \
                 instead of sliding")
  in
  let emit_arg =
    Arg.(value & opt string "jsonl" & info [ "emit" ] ~docv:"FMT"
           ~doc:"Output format: jsonl (default) or text")
  in
  let log_arg =
    Arg.(value & opt (some string) None & info [ "log" ] ~docv:"FILE"
           ~doc:"Also write the structured event log (drift warnings \
                 included) as JSONL to $(docv)")
  in
  let h_drift_arg =
    Arg.(value & opt float Core.Serve.default.Core.Serve.h_drift
         & info [ "h-drift" ] ~docv:"D"
             ~doc:"CUSUM slack for the Hurst monitor (default 0.05)")
  in
  let h_threshold_arg =
    Arg.(value & opt float Core.Serve.default.Core.Serve.h_threshold
         & info [ "h-threshold" ] ~docv:"H"
             ~doc:"CUSUM decision interval for the Hurst monitor \
                   (default 0.25)")
  in
  let rate_threshold_arg =
    Arg.(value & opt float Core.Serve.default.Core.Serve.rate_threshold
         & info [ "rate-threshold" ] ~docv:"H"
             ~doc:"CUSUM decision interval for the rate monitor, on a \
                   log2 scale (default 0.75)")
  in
  let alpha_threshold_arg =
    Arg.(value & opt float Core.Serve.default.Core.Serve.alpha_threshold
         & info [ "alpha-threshold" ] ~docv:"H"
             ~doc:"CUSUM decision interval for the tail-index monitor \
                   (default 2.5)")
  in
  let run source events rate bin beta chunk seed window cadence tumbling emit
      log_file h_drift h_threshold rate_threshold alpha_threshold =
    if events < 1. then `Error (false, "--events must be at least 1")
    else if rate <= 0. || bin <= 0. || chunk < 1 then
      `Error (false, "--rate, --bin and --chunk must be positive")
    else if emit <> "jsonl" && emit <> "text" then
      `Error (false, "--emit must be jsonl or text")
    else if h_drift < 0. || h_threshold <= 0. || rate_threshold <= 0.
            || alpha_threshold <= 0. then
      `Error (false, "monitor drift must be >= 0 and thresholds > 0")
    else begin
      let spec =
        { Core.Serve.default with
          source; events; rate; bin; beta; chunk; seed; window; cadence;
          sliding = not tumbling; emit; h_drift; h_threshold;
          rate_threshold; alpha_threshold }
      in
      let t0 = Unix.gettimeofday () in
      match
        with_obs { no_obs with log = log_file } ~logging:true (fun () ->
            match Core.Serve.run spec with
            | exception Invalid_argument e -> `Error (false, e)
            | _summary ->
              Format.pp_print_flush Format.std_formatter ();
              eprint_warnings ();
              `Ok ())
      with
      | `Ok () ->
        eprint_wall t0;
        `Ok ()
      | e -> e
    end
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Live rolling LRD analysis: fold an event stream through \
          windowed pyramids, republish Hurst / tail-index / rate \
          estimates at a fixed cadence, and raise structured drift \
          events when a CUSUM monitor detects a regime change")
    Term.(ret
            (const run $ source_arg $ events_arg $ rate_arg $ bin_arg
             $ beta_arg $ chunk_arg $ seed_arg $ window_arg $ cadence_arg
             $ tumbling_arg $ emit_arg $ log_arg $ h_drift_arg
             $ h_threshold_arg $ rate_threshold_arg $ alpha_threshold_arg))

(* ---------------- perf-diff ---------------- *)

let perf_diff_cmd =
  let old_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"OLD"
           ~doc:"Baseline perf history (JSONL written by $(b,perf --record))")
  in
  let new_arg =
    Arg.(required & pos 1 (some file) None & info [] ~docv:"NEW"
           ~doc:"Candidate perf history to compare against $(b,OLD)")
  in
  let alpha_arg =
    Arg.(value & opt float 0.01 & info [ "alpha" ] ~docv:"A"
           ~doc:"Significance level for the Welch t gate (default 0.01)")
  in
  let min_effect_arg =
    Arg.(value & opt float 0.05 & info [ "min-effect" ] ~docv:"R"
           ~doc:"Practical floor on |ratio - 1|: slowdowns smaller than \
                 this never fail, however significant (default 0.05)")
  in
  let run old_path new_path alpha min_effect =
    match (Engine.Perf_history.load old_path, Engine.Perf_history.load new_path)
    with
    | Error e, _ | _, Error e -> `Error (false, e)
    | Ok old_, Ok new_ ->
      let verdicts, unmatched =
        Engine.Perf_history.diff ~alpha ~min_effect old_ new_
      in
      Engine.Perf_history.pp_verdicts Format.std_formatter
        (verdicts, unmatched);
      Format.pp_print_flush Format.std_formatter ();
      if Engine.Perf_history.any_regression verdicts then begin
        let worst =
          List.filter (fun v -> v.Engine.Perf_history.regression) verdicts
        in
        Printf.eprintf
          "perf regression: %s (Welch t, alpha %g, min effect %g)\n"
          (String.concat ", "
             (List.map
                (fun v ->
                  Printf.sprintf "%s %.2fx slower (%.1f%% confidence)"
                    v.Engine.Perf_history.bench v.Engine.Perf_history.ratio
                    (100. *. v.Engine.Perf_history.confidence))
                worst))
          alpha min_effect;
        exit 1
      end;
      `Ok ()
  in
  Cmd.v
    (Cmd.info "perf-diff"
       ~doc:
         "Compare two perf histories; exit 1 on a statistically significant \
          slowdown (Welch's t plus a bootstrap CI of the mean ratio, both \
          computed by the repo's own statistics library)")
    Term.(ret (const run $ old_arg $ new_arg $ alpha_arg $ min_effect_arg))

(* ---------------- verify-manifest ---------------- *)

let verify_manifest_cmd =
  let a_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"A"
           ~doc:"First run.json manifest (written by $(b,run --out) or $(b,farm --out))")
  in
  let b_arg =
    Arg.(required & pos 1 (some file) None & info [] ~docv:"B"
           ~doc:"Second run.json manifest")
  in
  let run a_path b_path =
    match (Engine.Manifest.load a_path, Engine.Manifest.load b_path) with
    | Error e, _ -> `Error (false, a_path ^ ": " ^ e)
    | _, Error e -> `Error (false, b_path ^ ": " ^ e)
    | Ok a, Ok b ->
      let d = Engine.Manifest.compare_manifests a b in
      Engine.Manifest.pp_diff Format.std_formatter d;
      Format.pp_print_flush Format.std_formatter ();
      if d.Engine.Manifest.identical then `Ok () else exit 1
  in
  Cmd.v
    (Cmd.info "verify-manifest"
       ~doc:
         "Diff two run provenance manifests by artifact content hash; exit \
          1 if any artifact diverged")
    Term.(ret (const run $ a_arg $ b_arg))

let () =
  (* Hidden worker entries: process plumbing, not CLI surface, so they
     are dispatched before Cmdliner ever sees argv. *)
  Engine.Job.dispatch_worker Core.Farm.job;
  Engine.Job.dispatch_worker Core.Netsim.job;
  let info =
    Cmd.info "wanpoisson" ~version:(Engine.Build_info.describe ())
      ~doc:
        "Reproduction toolkit for Paxson & Floyd, \"Wide-Area Traffic: The \
         Failure of Poisson Modeling\""
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ list_cmd; run_cmd; perf_cmd; gen_cmd; genpkt_cmd; check_cmd; hurst_cmd;
            analyze_cmd; render_cmd; summary_cmd; stream_cmd; farm_cmd;
            netsim_cmd; serve_cmd; perf_diff_cmd; verify_manifest_cmd ]))
