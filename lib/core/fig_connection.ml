let all_dataset_names =
  List.map (fun (s : Trace.Dataset.spec) -> s.name) Trace.Dataset.catalog

let table1 ctx =
  let fmt = Engine.Task.formatter ctx in
  Report.heading fmt "Table I: SYN/FIN connection traces (synthetic catalog)";
  let rows =
    List.map
      (fun (spec : Trace.Dataset.spec) ->
        let trace =
          Engine.Telemetry.span ~name:"trace-gen" (fun () ->
              Cache.connection_trace spec.name)
        in
        [
          spec.name;
          spec.paper_duration;
          spec.paper_what;
          Printf.sprintf "%.1f days" spec.days;
          string_of_int (Array.length trace.Trace.Record.connections);
        ])
      Trace.Dataset.catalog
  in
  Report.table fmt
    ~headers:
      [ "Dataset"; "Paper span"; "Paper contents"; "Synth span"; "Synth conn." ]
    rows

(* ------------------------------------------------------------------ *)
(* Fig. 1                                                              *)

let hourly_fractions_of trace proto =
  let conns = Trace.Record.filter_protocol trace proto in
  Trace.Diurnal.hourly_fractions ~span:trace.Trace.Record.span
    (Trace.Record.starts conns)

let average_curves curves =
  let n = List.length curves in
  assert (n > 0);
  let acc = Array.make 24 0. in
  List.iter (fun c -> Array.iteri (fun i v -> acc.(i) <- acc.(i) +. v) c) curves;
  Array.map (fun v -> v /. float_of_int n) acc

let fig1_data () =
  let lbl_names = [ "LBL-1"; "LBL-2"; "LBL-3"; "LBL-4" ] in
  let traces =
    Engine.Telemetry.span ~name:"trace-gen" (fun () ->
        List.map Cache.connection_trace lbl_names)
  in
  let avg proto =
    average_curves (List.map (fun t -> hourly_fractions_of t proto) traces)
  in
  [
    ("Telnet", avg Trace.Record.Telnet);
    ("FTP", avg Trace.Record.Ftp);
    ("NNTP", avg Trace.Record.Nntp);
    ("SMTP", avg Trace.Record.Smtp);
    ("BC SMTP", hourly_fractions_of (Cache.connection_trace "BC") Trace.Record.Smtp);
  ]

let fig1 ctx =
  let fmt = Engine.Task.formatter ctx in
  Report.heading fmt
    "Fig. 1: mean relative hourly connection arrival rate (LBL-1..4)";
  let data = fig1_data () in
  let headers = "Hour" :: List.map fst data in
  let rows =
    List.init 24 (fun h ->
        string_of_int h
        :: List.map (fun (_, c) -> Printf.sprintf "%.3f" c.(h)) data)
  in
  Report.table fmt ~headers rows;
  let series =
    List.mapi
      (fun i (label, c) ->
        let glyphs = [| 'T'; 'F'; 'N'; 'S'; 'B' |] in
        ( glyphs.(i mod 5),
          label,
          Array.init 24 (fun h -> (float_of_int h, c.(h))) ))
      data
  in
  Report.chart fmt ~series

(* ------------------------------------------------------------------ *)
(* Fig. 2                                                              *)

type fig2_row = {
  dataset : string;
  arrivals : string;
  interval : float;
  verdict : Stest.Poisson_check.verdict;
}

let arrival_kinds trace =
  let starts proto =
    Trace.Record.starts (Trace.Record.filter_protocol trace proto)
  in
  let base =
    [
      ("TELNET", starts Trace.Record.Telnet);
      ("FTP", starts Trace.Record.Ftp);
      ("FTPDATA", starts Trace.Record.Ftpdata);
      ( "FTPDATA-burst",
        Trace.Bursts.starts
          (Trace.Bursts.group (Trace.Record.filter_protocol trace Trace.Record.Ftpdata)) );
      ("SMTP", starts Trace.Record.Smtp);
      ("NNTP", starts Trace.Record.Nntp);
    ]
  in
  let www = starts Trace.Record.Www in
  if Array.length www > 0 then base @ [ ("WWW", www) ] else base

let fig2_data () =
  (* One item per dataset: generation + six Poisson checks, independent
     across datasets, so they shard across the leftover domain budget. *)
  List.concat
  @@ Engine.Par.map
    (fun name ->
      let trace =
        Engine.Telemetry.span ~name:"trace-gen" (fun () ->
            Cache.connection_trace name)
      in
      let span = trace.Trace.Record.span in
      Engine.Telemetry.span ~name:("poisson-battery:" ^ name) @@ fun () ->
      List.concat_map
        (fun (label, times) ->
          if Array.length times < 10 then []
          else
            List.map
              (fun interval ->
                {
                  dataset = name;
                  arrivals = label;
                  interval;
                  verdict =
                    Stest.Poisson_check.check ~interval ~duration:span times;
                })
              [ 3600.; 600. ])
        (arrival_kinds trace))
    all_dataset_names

let fig2 ctx =
  let fmt = Engine.Task.formatter ctx in
  Report.heading fmt "Fig. 2: testing for Poisson arrivals (Appendix A)";
  let data = fig2_data () in
  let print_for interval title =
    Format.fprintf fmt "@.%s@." title;
    let rows =
      List.filter_map
        (fun r ->
          if r.interval <> interval then None
          else
            let v = r.verdict in
            Some
              [
                r.dataset;
                r.arrivals;
                Printf.sprintf "%d" v.Stest.Poisson_check.intervals_tested;
                Printf.sprintf "%.0f%%" v.exp_pass_rate;
                Printf.sprintf "%.0f%%" v.indep_pass_rate;
                (if v.poisson then "POISSON" else "not-poisson");
                (match v.correlation with
                | Stest.Binom_test.Positive -> "+"
                | Stest.Binom_test.Negative -> "-"
                | Stest.Binom_test.Neutral -> "");
              ])
        data
    in
    Report.table fmt
      ~headers:[ "Dataset"; "Arrivals"; "n"; "exp"; "indep"; "verdict"; "corr" ]
      rows
  in
  print_for 3600. "One-hour intervals";
  print_for 600. "Ten-minute intervals";
  (* Aggregate per protocol: fraction of datasets judged Poisson. *)
  Format.fprintf fmt "@.Poisson verdicts per arrival process:@.";
  let protos =
    [ "TELNET"; "FTP"; "FTPDATA"; "FTPDATA-burst"; "SMTP"; "NNTP"; "WWW" ]
  in
  let rows =
    List.map
      (fun p ->
        let cell interval =
          let matching =
            List.filter (fun r -> r.arrivals = p && r.interval = interval) data
          in
          let n = List.length matching in
          let k =
            List.length
              (List.filter (fun r -> r.verdict.Stest.Poisson_check.poisson) matching)
          in
          Printf.sprintf "%d/%d" k n
        in
        [ p; cell 3600.; cell 600. ])
      protos
  in
  Report.table fmt ~headers:[ "Arrivals"; "Poisson @1h"; "Poisson @10min" ] rows

(* ------------------------------------------------------------------ *)
(* Fig. 8                                                              *)

let fig8_datasets = [ "LBL-1"; "LBL-5"; "LBL-6"; "LBL-7"; "DEC-1"; "UCB" ]

let log_grid lo hi n =
  Array.init n (fun i ->
      lo *. ((hi /. lo) ** (float_of_int i /. float_of_int (n - 1))))

let fig8_data () =
  List.map
    (fun name ->
      let trace = Cache.connection_trace name in
      let spacings =
        Trace.Bursts.spacings
          (Trace.Record.filter_protocol trace Trace.Record.Ftpdata)
      in
      (name, Stats.Descriptive.ecdf_grid spacings (log_grid 0.01 3000. 40)))
    fig8_datasets

let fig8 ctx =
  let fmt = Engine.Task.formatter ctx in
  Report.heading fmt "Fig. 8: FTPDATA intra-session connection spacing (CDF)";
  let data = fig8_data () in
  List.iter
    (fun (name, cdf) ->
      let at x =
        let _, v =
          Array.fold_left
            (fun (best, bv) (g, v) ->
              if Float.abs (g -. x) < best then (Float.abs (g -. x), v)
              else (best, bv))
            (infinity, 0.) cdf
        in
        v
      in
      Format.fprintf fmt
        "%-8s P[gap<=0.5s]=%.2f  P[gap<=4s]=%.2f  P[gap<=60s]=%.2f@." name
        (at 0.5) (at 4.) (at 60.))
    data;
  let series =
    List.mapi
      (fun i (name, cdf) ->
        let glyph = Char.chr (Char.code 'a' + i) in
        (glyph, name, Array.map (fun (g, v) -> (log10 g, v)) cdf))
      data
  in
  Report.chart fmt ~series;
  Format.fprintf fmt
    "(x axis: log10 spacing seconds; vertical reference: 4 s cutoff at x=%.2f)@."
    (log10 4.)

(* ------------------------------------------------------------------ *)
(* Fig. 9                                                              *)

let fig9_datasets = [ "LBL-6"; "LBL-7"; "UCB"; "DEC-1"; "UK" ]

let fig9_data () =
  List.map
    (fun name ->
      let trace = Cache.connection_trace name in
      let bursts =
        Trace.Bursts.group
          (Trace.Record.filter_protocol trace Trace.Record.Ftpdata)
      in
      let sizes = Trace.Bursts.sizes bursts in
      (name, List.length bursts, Stats.Fit.concentration_curve sizes ~points:20))
    fig9_datasets

let fig9 ctx =
  let fmt = Engine.Task.formatter ctx in
  Report.heading fmt
    "Fig. 9: % of FTPDATA bytes due to the largest bursts";
  let data = fig9_data () in
  let rows =
    List.map
      (fun (name, n, _) ->
        let trace = Cache.connection_trace name in
        let sizes =
          Trace.Bursts.sizes
            (Trace.Bursts.group
               (Trace.Record.filter_protocol trace Trace.Record.Ftpdata))
        in
        [
          name;
          string_of_int n;
          Printf.sprintf "%.0f%%"
            (100. *. Stats.Fit.tail_mass sizes ~top_fraction:0.005);
          Printf.sprintf "%.0f%%"
            (100. *. Stats.Fit.tail_mass sizes ~top_fraction:0.02);
          Printf.sprintf "%.0f%%"
            (100. *. Stats.Fit.tail_mass sizes ~top_fraction:0.10);
        ])
      data
  in
  Report.table fmt
    ~headers:[ "Dataset"; "bursts"; "top 0.5%"; "top 2%"; "top 10%" ]
    rows;
  let series =
    List.mapi
      (fun i (name, _, curve) ->
        (Char.chr (Char.code 'a' + i), name, curve))
      data
  in
  Report.chart fmt ~series;
  Format.fprintf fmt "(x: %% of all bursts (largest first); y: %% of all bytes)@."
