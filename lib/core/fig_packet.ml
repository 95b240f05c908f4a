let lbl_pkt_names =
  [ "LBL-PKT-1"; "LBL-PKT-2"; "LBL-PKT-3"; "LBL-PKT-4"; "LBL-PKT-5" ]

let wrl_names = [ "DEC-WRL-1"; "DEC-WRL-2"; "DEC-WRL-3"; "DEC-WRL-4" ]

let table2 ctx =
  let fmt = Engine.Task.formatter ctx in
  Report.heading fmt "Table II: packet traces (synthetic catalog)";
  (* Per-trace generation dominates this table; each row depends only on
     its spec (the cache resolves concurrent same-name lookups to one
     generation), so rows shard across the leftover domain budget. *)
  let rows =
    Engine.Par.map
      (fun (spec : Trace.Packet_dataset.spec) ->
        let t =
          Engine.Telemetry.span ~name:"trace-gen" (fun () ->
              Cache.packet_trace spec.name)
        in
        [
          spec.name;
          spec.paper_when;
          spec.paper_what;
          Printf.sprintf "%.0f s" spec.duration;
          string_of_int (Array.length t.Trace.Packet_dataset.all_packets);
        ])
      Trace.Packet_dataset.catalog
  in
  Report.table fmt
    ~headers:[ "Dataset"; "Paper when"; "Paper contents"; "Synth span"; "Synth pkts" ]
    rows

(* ------------------------------------------------------------------ *)
(* Fig. 3                                                              *)

type fig3_curves = {
  grid : float array;
  trace_cdf : float array;
  tcplib_cdf : float array;
  exp_geometric_cdf : float array;
  exp_arithmetic_cdf : float array;
  geometric_mean : float;
  arithmetic_mean : float;
}

(* Pooled within-connection interarrivals of a packet trace's TELNET
   side. *)
let telnet_interarrivals trace =
  let gaps =
    List.concat_map
      (fun (c : Traffic.Telnet_model.connection) ->
        if Array.length c.packets < 2 then []
        else Array.to_list (Stats.Descriptive.diffs c.packets))
      trace.Trace.Packet_dataset.telnet_connections
  in
  Array.of_list (List.filter (fun g -> g > 0.) gaps)

let log_grid lo hi n =
  Array.init n (fun i ->
      lo *. ((hi /. lo) ** (float_of_int i /. float_of_int (n - 1))))

let fig3_data () =
  let trace =
    Engine.Telemetry.span ~name:"trace-gen" (fun () ->
        Cache.packet_trace "LBL-PKT-1")
  in
  let gaps = telnet_interarrivals trace in
  let geometric_mean = Stats.Descriptive.geometric_mean gaps in
  let arithmetic_mean = Stats.Descriptive.mean gaps in
  let grid = log_grid 0.001 100. 50 in
  let fit1 = Dist.Exponential.fit_geometric_mean geometric_mean in
  let fit2 = Dist.Exponential.create ~mean:arithmetic_mean in
  {
    grid;
    trace_cdf =
      Array.map snd (Stats.Descriptive.ecdf_grid gaps grid);
    tcplib_cdf = Array.map (Dist.Empirical.cdf Tcplib.Telnet.interarrival) grid;
    exp_geometric_cdf = Array.map (Dist.Exponential.cdf fit1) grid;
    exp_arithmetic_cdf = Array.map (Dist.Exponential.cdf fit2) grid;
    geometric_mean;
    arithmetic_mean;
  }

let fig3 ctx =
  let fmt = Engine.Task.formatter ctx in
  Report.heading fmt "Fig. 3: TELNET packet interarrival distributions";
  let d = fig3_data () in
  Report.kv fmt "geometric mean (trace)" "%.4f s" d.geometric_mean;
  Report.kv fmt "arithmetic mean (trace)" "%.4f s" d.arithmetic_mean;
  let pick cdf x =
    (* CDF value at the grid point nearest x. *)
    let best = ref 0 in
    Array.iteri
      (fun i g ->
        if Float.abs (log (g /. x)) < Float.abs (log (d.grid.(!best) /. x))
        then best := i)
      d.grid;
    cdf.(!best)
  in
  Report.table fmt
    ~headers:[ "distribution"; "P[X<8ms]"; "P[X>1s]" ]
    [
      [ "trace"; Report.float_cell (pick d.trace_cdf 0.008);
        Report.float_cell (1. -. pick d.trace_cdf 1.) ];
      [ "tcplib"; Report.float_cell (pick d.tcplib_cdf 0.008);
        Report.float_cell (1. -. pick d.tcplib_cdf 1.) ];
      [ "exp fit#1 (geo)"; Report.float_cell (pick d.exp_geometric_cdf 0.008);
        Report.float_cell (1. -. pick d.exp_geometric_cdf 1.) ];
      [ "exp fit#2 (arith)"; Report.float_cell (pick d.exp_arithmetic_cdf 0.008);
        Report.float_cell (1. -. pick d.exp_arithmetic_cdf 1.) ];
    ];
  let to_pts cdf =
    Array.init (Array.length d.grid) (fun i -> (log10 d.grid.(i), cdf.(i)))
  in
  Report.chart fmt
    ~series:
      [
        ('t', "tcplib", to_pts d.tcplib_cdf);
        ('m', "measured trace", to_pts d.trace_cdf);
        ('1', "exp fit #1 (geometric mean)", to_pts d.exp_geometric_cdf);
        ('2', "exp fit #2 (arithmetic mean)", to_pts d.exp_arithmetic_cdf);
      ];
  Format.fprintf fmt "(x: log10 seconds; y: CDF)@."

(* ------------------------------------------------------------------ *)
(* Fig. 4                                                              *)

let fig4_data () =
  let rng = Prng.Rng.create 44 in
  let tcp =
    Traffic.Renewal.generate ~sample:Tcplib.Telnet.sample_interarrival
      ~duration:2000. (Prng.Rng.split rng)
  in
  let e = Dist.Exponential.create ~mean:1.1 in
  let ex =
    Traffic.Renewal.generate ~sample:(Dist.Exponential.sample e)
      ~duration:2000. (Prng.Rng.split rng)
  in
  (tcp, ex)

let dot_row fmt label times ~lo ~hi ~width =
  let cells = Bytes.make width ' ' in
  Array.iter
    (fun t ->
      if t >= lo && t < hi then begin
        let i = int_of_float ((t -. lo) /. (hi -. lo) *. float_of_int width) in
        Bytes.set cells (Int.min i (width - 1)) '.'
      end)
    times;
  Format.fprintf fmt "%-8s|%s|@." label (Bytes.to_string cells)

let fig4 ctx =
  let fmt = Engine.Task.formatter ctx in
  Report.heading fmt "Fig. 4: Tcplib vs exponential interpacket times";
  let tcp, ex = fig4_data () in
  Report.kv fmt "tcplib arrivals (2000s)" "%d" (Array.length tcp);
  Report.kv fmt "exponential arrivals (2000s)" "%d" (Array.length ex);
  Format.fprintf fmt "@.First 200 seconds:@.";
  dot_row fmt "tcplib" tcp ~lo:0. ~hi:200. ~width:72;
  dot_row fmt "exp" ex ~lo:0. ~hi:200. ~width:72;
  Format.fprintf fmt "@.Full 2000 seconds:@.";
  dot_row fmt "tcplib" tcp ~lo:0. ~hi:2000. ~width:72;
  dot_row fmt "exp" ex ~lo:0. ~hi:2000. ~width:72;
  let var_1s times =
    Stats.Descriptive.variance
      (Timeseries.Counts.of_events ~bin:1. ~t_end:2000. times)
  in
  Report.kv fmt "variance of 1s counts, tcplib" "%.2f" (var_1s tcp);
  Report.kv fmt "variance of 1s counts, exp" "%.2f" (var_1s ex)

(* ------------------------------------------------------------------ *)
(* Fig. 5                                                              *)

(* The paper removes a handful of "anomalously large and rapid"
   connections (more than 2^10 bytes from the originator at sustained
   rates) before the Fig. 5-7 comparisons: they are bulk transfers, not
   typing. We apply the same size cutoff in packets. *)
let outlier_packets = 1024

let kept_connections trace =
  List.filter
    (fun (c : Traffic.Telnet_model.connection) ->
      let n = Array.length c.packets in
      n >= 1 && n <= outlier_packets)
    trace.Trace.Packet_dataset.telnet_connections

let conn_specs trace =
  List.map
    (fun (c : Traffic.Telnet_model.connection) ->
      let n = Array.length c.packets in
      {
        Traffic.Telnet_model.spec_start = c.start;
        spec_size = n;
        spec_duration = (if n >= 2 then c.packets.(n - 1) -. c.start else 0.);
      })
    (kept_connections trace)

(* The trace-side packet stream for the same kept connections. *)
let kept_packets trace =
  let duration = trace.Trace.Packet_dataset.spec.duration in
  Traffic.Arrival.clip ~lo:0. ~hi:duration
    (Traffic.Telnet_model.packet_times (kept_connections trace))

let counts_of_scheme trace scheme seed =
  let spec_list = conn_specs trace in
  let rng = Prng.Rng.create seed in
  let conns =
    Engine.Telemetry.span ~name:"model:synthesize" (fun () ->
        Traffic.Telnet_model.synthesize_all scheme spec_list rng)
  in
  let duration = trace.Trace.Packet_dataset.spec.duration in
  Traffic.Arrival.clip ~lo:0. ~hi:duration
    (Traffic.Telnet_model.packet_times conns)

let fig5_data () =
  let trace =
    Engine.Telemetry.span ~name:"trace-gen" (fun () ->
        Cache.packet_trace "LBL-PKT-2")
  in
  let duration = trace.Trace.Packet_dataset.spec.duration in
  let bin = 0.1 in
  let vt times =
    Engine.Telemetry.span ~name:"estimator:variance-time" (fun () ->
        Timeseries.Variance_time.curve
          (Timeseries.Counts.of_events ~bin ~t_end:duration times))
  in
  [
    ("TRACE", vt (kept_packets trace));
    ("TCPLIB", vt (counts_of_scheme trace Traffic.Telnet_model.Tcplib_scheme 51));
    ("EXP", vt (counts_of_scheme trace (Traffic.Telnet_model.Exp_scheme 1.1) 52));
    ("VAR-EXP", vt (counts_of_scheme trace Traffic.Telnet_model.Var_exp_scheme 53));
  ]

let print_vt fmt named_curves =
  let headers =
    "M" :: List.map (fun (name, _) -> name ^ " log10(var)") named_curves
  in
  let _, first = List.hd named_curves in
  let rows =
    Array.to_list
      (Array.mapi
         (fun i (p : Timeseries.Variance_time.point) ->
           string_of_int p.m
           :: List.map
                (fun (_, curve) ->
                  if i < Array.length curve then
                    Report.float_cell (log10 curve.(i).Timeseries.Variance_time.normalised)
                  else "-")
                named_curves)
         first)
  in
  Report.table fmt ~headers rows;
  let series =
    List.mapi
      (fun i (name, curve) ->
        let glyphs = [| 'o'; 't'; 'e'; 'v'; 'x'; 'm' |] in
        ( glyphs.(i mod Array.length glyphs),
          name,
          Array.map
            (fun (p : Timeseries.Variance_time.point) ->
              (log10 (float_of_int p.m), log10 p.normalised))
            curve ))
      named_curves
  in
  Report.chart fmt ~series;
  List.iter
    (fun (name, curve) ->
      let fit = Timeseries.Variance_time.slope curve in
      Format.fprintf fmt "%-10s slope=%.3f (H=%.3f, r2=%.3f)@." name
        fit.Stats.Regression.slope
        (Timeseries.Variance_time.hurst_of_slope fit.Stats.Regression.slope)
        fit.Stats.Regression.r2)
    named_curves

let fig5 ctx =
  let fmt = Engine.Task.formatter ctx in
  Report.heading fmt
    "Fig. 5: variance-time plot, TELNET packet arrivals (0.1 s bins)";
  print_vt fmt (fig5_data ())

(* ------------------------------------------------------------------ *)
(* Fig. 6                                                              *)

type fig6_result = {
  trace_counts : float array;
  exp_counts : float array;
  trace_mean : float;
  trace_variance : float;
  exp_mean : float;
  exp_variance : float;
}

let fig6_data () =
  let trace = Cache.packet_trace "LBL-PKT-2" in
  let duration = trace.Trace.Packet_dataset.spec.duration in
  let bin = 5.0 in
  let trace_counts =
    Timeseries.Counts.of_events ~bin ~t_end:duration (kept_packets trace)
  in
  let exp_counts =
    Timeseries.Counts.of_events ~bin ~t_end:duration
      (counts_of_scheme trace (Traffic.Telnet_model.Exp_scheme 1.1) 61)
  in
  {
    trace_counts;
    exp_counts;
    trace_mean = Stats.Descriptive.mean trace_counts;
    trace_variance = Stats.Descriptive.variance trace_counts;
    exp_mean = Stats.Descriptive.mean exp_counts;
    exp_variance = Stats.Descriptive.variance exp_counts;
  }

let fig6 ctx =
  let fmt = Engine.Task.formatter ctx in
  Report.heading fmt "Fig. 6: TELNET packets per 5 s interval";
  let d = fig6_data () in
  Report.table fmt
    ~headers:[ "series"; "mean"; "variance" ]
    [
      [ "trace"; Report.float_cell d.trace_mean; Report.float_cell d.trace_variance ];
      [ "exponential"; Report.float_cell d.exp_mean; Report.float_cell d.exp_variance ];
    ];
  Report.kv fmt "variance ratio trace/exp" "%.2f"
    (d.trace_variance /. d.exp_variance);
  let to_pts counts =
    Array.mapi (fun i c -> (float_of_int i *. 5., c)) counts
  in
  Report.chart fmt
    ~series:
      [ ('e', "exponential", to_pts d.exp_counts);
        ('o', "trace", to_pts d.trace_counts) ]

(* ------------------------------------------------------------------ *)
(* Fig. 7                                                              *)

let fig7_data () =
  let trace =
    Engine.Telemetry.span ~name:"trace-gen" (fun () ->
        Cache.packet_trace "LBL-PKT-2")
  in
  let duration = trace.Trace.Packet_dataset.spec.duration in
  let bin = 0.1 in
  let vt times =
    Engine.Telemetry.span ~name:"estimator:variance-time" (fun () ->
        Timeseries.Variance_time.curve
          (Timeseries.Counts.of_events ~bin ~t_end:duration times))
  in
  let rate = trace.Trace.Packet_dataset.spec.telnet_conns_per_hour in
  let model seed =
    (* Run the model for twice the window and keep the second half so it
       is observed in steady state, as the paper trims to the second
       hour. *)
    let rng = Prng.Rng.create seed in
    let conns =
      Engine.Telemetry.span ~name:"model:full-tel" (fun () ->
          Traffic.Telnet_model.full_tel ~rate_per_hour:rate
            ~duration:(2. *. duration) rng)
    in
    let pkts = Traffic.Telnet_model.packet_times conns in
    Traffic.Arrival.shift (-.duration)
      (Traffic.Arrival.clip ~lo:duration ~hi:(2. *. duration) pkts)
  in
  ("TRACE", vt (kept_packets trace))
  :: List.map
       (fun seed -> (Printf.sprintf "FULL-TEL-%d" seed, vt (model seed)))
       [ 71; 72; 73 ]

let fig7 ctx =
  let fmt = Engine.Task.formatter ctx in
  Report.heading fmt "Fig. 7: variance-time plot, trace vs FULL-TEL model";
  print_vt fmt (fig7_data ())

(* ------------------------------------------------------------------ *)
(* Figs. 10 and 11                                                     *)

type burst_dominance = {
  trace_name : string;
  n_bursts : int;
  minutes : float array;
  total_rate : float array;
  top2_rate : float array;
  top05_rate : float array;
  share_top2 : float;
  share_top05 : float;
}

(* Spread each burst's bytes uniformly over its lifetime into minute
   bins. *)
let rate_series bursts ~n_minutes =
  let out = Array.make n_minutes 0. in
  List.iter
    (fun (b : Trace.Bursts.burst) ->
      let dur = Float.max 1e-3 (b.burst_end -. b.burst_start) in
      let rate = b.burst_bytes /. dur in
      let m0 = int_of_float (b.burst_start /. 60.) in
      let m1 = int_of_float (b.burst_end /. 60.) in
      for m = Int.max 0 m0 to Int.min (n_minutes - 1) m1 do
        let lo = Float.max b.burst_start (float_of_int m *. 60.) in
        let hi = Float.min b.burst_end (float_of_int (m + 1) *. 60.) in
        if hi > lo then out.(m) <- out.(m) +. (rate *. (hi -. lo))
      done)
    bursts;
  out

let dominance_of name =
  let t =
    Engine.Telemetry.span ~name:"trace-gen" (fun () -> Cache.packet_trace name)
  in
  let conns = Trace.Packet_dataset.ftpdata_conns t in
  let bursts =
    Engine.Telemetry.span ~name:"bursts:group" (fun () ->
        Trace.Bursts.group conns)
  in
  let n = List.length bursts in
  let sorted =
    List.sort
      (fun (a : Trace.Bursts.burst) b -> compare b.burst_bytes a.burst_bytes)
      bursts
  in
  let take frac =
    let k = Int.max 1 (int_of_float (Float.round (frac *. float_of_int n))) in
    List.filteri (fun i _ -> i < k) sorted
  in
  let top2 = take 0.02 and top05 = take 0.005 in
  let n_minutes =
    Int.max 1 (int_of_float (t.Trace.Packet_dataset.spec.duration /. 60.))
  in
  let total_bytes =
    List.fold_left (fun a (b : Trace.Bursts.burst) -> a +. b.burst_bytes) 0. bursts
  in
  let sum bs =
    List.fold_left (fun a (b : Trace.Bursts.burst) -> a +. b.burst_bytes) 0. bs
  in
  {
    trace_name = name;
    n_bursts = n;
    minutes = Array.init n_minutes (fun i -> float_of_int i +. 0.5);
    total_rate = rate_series bursts ~n_minutes;
    top2_rate = rate_series top2 ~n_minutes;
    top05_rate = rate_series top05 ~n_minutes;
    share_top2 = (if total_bytes > 0. then sum top2 /. total_bytes else 0.);
    share_top05 = (if total_bytes > 0. then sum top05 /. total_bytes else 0.);
  }

let fig10_data () = List.map dominance_of lbl_pkt_names
let fig11_data () = List.map dominance_of wrl_names

let print_dominance fmt data =
  let rows =
    List.map
      (fun d ->
        [
          d.trace_name;
          string_of_int d.n_bursts;
          Printf.sprintf "%.0f%%" (100. *. d.share_top2);
          Printf.sprintf "%.0f%%" (100. *. d.share_top05);
        ])
      data
  in
  Report.table fmt
    ~headers:[ "Trace"; "bursts"; "top-2% share"; "top-0.5% share" ]
    rows;
  List.iter
    (fun d ->
      Format.fprintf fmt "@.%s bytes/minute (o=all, #=top 2%%, @@=top 0.5%%):@."
        d.trace_name;
      let pts rate glyph label =
        ( glyph,
          label,
          Array.init (Array.length d.minutes) (fun i ->
              (d.minutes.(i), rate.(i))) )
      in
      Report.chart fmt ~height:10
        ~series:
          [
            pts d.total_rate 'o' "all FTPDATA";
            pts d.top2_rate '#' "top 2% bursts";
            pts d.top05_rate '@' "top 0.5% bursts";
          ])
    data

let fig10 ctx =
  let fmt = Engine.Task.formatter ctx in
  Report.heading fmt
    "Fig. 10: LBL PKT FTPDATA traffic due to largest bursts";
  print_dominance fmt (fig10_data ())

let fig11 ctx =
  let fmt = Engine.Task.formatter ctx in
  Report.heading fmt
    "Fig. 11: DEC WRL FTPDATA traffic due to largest bursts";
  print_dominance fmt (fig11_data ())
