(* Cross-module property-based tests: invariants that must hold for any
   input, checked with qcheck. *)
open Helpers

let pos_floats n = QCheck.(list_of_size (QCheck.Gen.int_range 2 n) (float_range 0.01 100.))

(* ---------------- Arrival combinators ---------------- *)

let prop_merge_preserves_multiset =
  prop "merge preserves the multiset of events" ~count:100
    QCheck.(pair (pos_floats 50) (pos_floats 50))
    (fun (a, b) ->
      let merged =
        Traffic.Arrival.merge [ Array.of_list a; Array.of_list b ]
      in
      let expected = List.sort compare (a @ b) in
      Array.to_list merged = expected)

let prop_merge_sorted =
  prop "merge output is sorted" ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_range 0 20) (pos_floats 30))
    (fun lists ->
      Traffic.Arrival.is_sorted
        (Traffic.Arrival.merge (List.map Array.of_list lists)))

let prop_clip_within =
  prop "clip keeps only the window" ~count:100 (pos_floats 100)
    (fun xs ->
      let clipped =
        Traffic.Arrival.clip ~lo:10. ~hi:50. (Array.of_list xs)
      in
      Array.for_all (fun t -> t >= 10. && t < 50.) clipped)

(* ---------------- Counts ---------------- *)

let prop_counts_total_bounded =
  prop "binned counts never exceed event total" ~count:100 (pos_floats 200)
    (fun xs ->
      let events = Array.of_list xs in
      let counts = Timeseries.Counts.of_events ~bin:5. ~t_end:100. events in
      int_of_float (Array.fold_left ( +. ) 0. counts) <= Array.length events)

let prop_aggregate_preserves_mean =
  prop "block means preserve the overall mean" ~count:100
    QCheck.(pair (int_range 1 5) (pos_floats 100))
    (fun (m, xs) ->
      let xs = Array.of_list xs in
      let blocks = Array.length xs / m in
      QCheck.assume (blocks >= 1);
      let trimmed = Array.sub xs 0 (blocks * m) in
      let agg = Timeseries.Counts.aggregate trimmed m in
      Float.abs (mean agg -. mean trimmed) < 1e-9)

let prop_aggregate_reduces_variance =
  (* ANOVA: between-block variance <= total variance of the same
     (trimmed) observations. *)
  prop "aggregation cannot raise the variance" ~count:100 (pos_floats 120)
    (fun xs ->
      let xs = Array.of_list xs in
      QCheck.assume (Array.length xs >= 8);
      let trimmed = Array.sub xs 0 (2 * (Array.length xs / 2)) in
      let agg = Timeseries.Counts.aggregate trimmed 2 in
      QCheck.assume (Array.length agg >= 2);
      Stats.Descriptive.variance agg
      <= Stats.Descriptive.variance trimmed +. 1e-9)

(* ---------------- Bursts ---------------- *)

let burst_conns_gen =
  (* Random FTPDATA connections across a handful of sessions. *)
  QCheck.(
    list_of_size (Gen.int_range 1 40)
      (triple (int_range 0 3) (float_range 0. 500.) (float_range 0.1 20.)))

let conns_of_spec spec =
  Array.of_list
    (List.map
       (fun (session, start, dur) ->
         {
           Trace.Record.start;
           duration = dur;
           protocol = Trace.Record.Ftpdata;
           bytes = 100.;
           session_id = session;
         })
       spec)

let prop_bursts_conserve_conns =
  prop "burst grouping conserves connections" ~count:200 burst_conns_gen
    (fun spec ->
      let conns = conns_of_spec spec in
      let bursts = Trace.Bursts.group conns in
      List.fold_left (fun a b -> a + b.Trace.Bursts.n_conns) 0 bursts
      = Array.length conns)

let prop_bursts_conserve_bytes =
  prop "burst grouping conserves bytes" ~count:200 burst_conns_gen
    (fun spec ->
      let conns = conns_of_spec spec in
      let bursts = Trace.Bursts.group conns in
      let total =
        List.fold_left (fun a b -> a +. b.Trace.Bursts.burst_bytes) 0. bursts
      in
      Float.abs (total -. (100. *. float_of_int (Array.length conns))) < 1e-6)

let prop_bursts_monotone_in_cutoff =
  prop "larger cutoff never yields more bursts" ~count:200 burst_conns_gen
    (fun spec ->
      let conns = conns_of_spec spec in
      List.length (Trace.Bursts.group ~cutoff:8. conns)
      <= List.length (Trace.Bursts.group ~cutoff:2. conns))

let prop_bursts_span_conns =
  prop "burst window covers its connections" ~count:200 burst_conns_gen
    (fun spec ->
      let conns = conns_of_spec spec in
      let bursts = Trace.Bursts.group conns in
      List.for_all
        (fun (b : Trace.Bursts.burst) -> b.burst_end >= b.burst_start)
        bursts)

(* ---------------- Queueing ---------------- *)

let arrivals_gen =
  QCheck.map
    (fun gaps ->
      let t = ref 0. in
      Array.of_list (List.map (fun g -> t := !t +. g; !t) gaps))
    (pos_floats 60)

let prop_fifo_waits_nonneg =
  prop "FIFO waits are nonnegative and causal" ~count:200 arrivals_gen
    (fun arrivals ->
      let s = Queueing.Fifo.simulate_const ~arrivals ~service_time:0.7 () in
      s.Queueing.Fifo.mean_wait >= 0.
      && s.Queueing.Fifo.max_wait >= s.Queueing.Fifo.mean_wait
      && s.Queueing.Fifo.n = Array.length arrivals)

let prop_fifo_wait_monotone_in_service =
  prop "slower service never lowers the mean wait" ~count:100 arrivals_gen
    (fun arrivals ->
      let w s =
        (Queueing.Fifo.simulate_const ~arrivals ~service_time:s ())
          .Queueing.Fifo.mean_wait
      in
      w 0.5 <= w 1.0 +. 1e-9)

let prop_fifo_buffer_conserves =
  prop "served + dropped = offered" ~count:200 arrivals_gen
    (fun arrivals ->
      let s =
        Queueing.Fifo.simulate_const ~buffer:2 ~arrivals ~service_time:1.5 ()
      in
      s.Queueing.Fifo.n + s.Queueing.Fifo.dropped = Array.length arrivals)

let prop_mgk_wait_bounded_by_fifo =
  prop "M/G/k wait is at most the single-server wait" ~count:50 arrivals_gen
    (fun arrivals ->
      QCheck.assume (Array.length arrivals >= 2);
      let service (_ : Prng.Rng.t) = 0.9 in
      let wk k =
        (Queueing.Mgk.simulate ~k ~arrivals ~service (rng ()))
          .Queueing.Mgk.mean_wait
      in
      wk 3 <= wk 1 +. 1e-9)

(* ---------------- Distributions ---------------- *)

let prop_lognormal_roundtrip =
  prop "lognormal cdf/quantile roundtrip"
    QCheck.(float_range 0.01 0.99)
    (fun u ->
      let d = Dist.Lognormal.create ~mu:0.5 ~sigma:1.2 in
      Float.abs (Dist.Lognormal.cdf d (Dist.Lognormal.quantile d u) -. u)
      < 1e-8)

let prop_weibull_roundtrip =
  prop "weibull cdf/quantile roundtrip"
    QCheck.(float_range 0.01 0.99)
    (fun u ->
      let d = Dist.Weibull.create ~shape:0.8 ~scale:2. in
      Float.abs (Dist.Weibull.cdf d (Dist.Weibull.quantile d u) -. u) < 1e-10)

let prop_log_extreme_roundtrip =
  prop "log-extreme cdf/quantile roundtrip"
    QCheck.(float_range 0.01 0.99)
    (fun u ->
      let d = Dist.Log_extreme.telnet_bytes in
      Float.abs (Dist.Log_extreme.cdf d (Dist.Log_extreme.quantile d u) -. u)
      < 1e-9)

let prop_pareto_survival_scaling =
  prop "pareto scale-invariance: S(2x) / S(x) is constant"
    QCheck.(float_range 2. 50.)
    (fun x ->
      let p = Dist.Pareto.create ~location:1. ~shape:1.3 in
      let r1 = Dist.Pareto.survival p (2. *. x) /. Dist.Pareto.survival p x in
      let r2 = Dist.Pareto.survival p 20. /. Dist.Pareto.survival p 10. in
      Float.abs (r1 -. r2) < 1e-9)

(* ---------------- Trace IO ---------------- *)

let trace_gen =
  QCheck.(
    list_of_size (Gen.int_range 1 30)
      (quad (int_range 0 7) (float_range 0. 1000.) (float_range 0.01 100.)
         (float_range 1. 1e6)))

let prop_io_roundtrip =
  prop "connection trace io roundtrip" ~count:50 trace_gen
    (fun spec ->
      let conns =
        List.map
          (fun (p, start, dur, bytes) ->
            {
              Trace.Record.start;
              duration = dur;
              protocol = List.nth Trace.Record.all_protocols p;
              bytes;
              session_id = p;
            })
          spec
      in
      let t = Trace.Record.create ~name:"prop" ~span:2000. conns in
      let path = Filename.temp_file "prop" ".tsv" in
      Trace.Io.save path t;
      let t' = get_ok (Trace.Io.load path) in
      Sys.remove path;
      Array.length t.Trace.Record.connections
      = Array.length t'.Trace.Record.connections
      && Array.for_all2
           (fun (a : Trace.Record.connection) (b : Trace.Record.connection) ->
             a.protocol = b.protocol
             && Float.abs (a.start -. b.start) < 1e-5
             && a.session_id = b.session_id)
           t.Trace.Record.connections t'.Trace.Record.connections)

(* ---------------- Renewal / Poisson ---------------- *)

let prop_renewal_n_exact =
  prop "generate_n emits exactly n increasing events"
    QCheck.(int_range 1 200)
    (fun n ->
      let r = rng ~seed:n () in
      let xs =
        Traffic.Renewal.generate_n
          ~sample:(fun r -> 0.1 +. Prng.Rng.float r)
          ~n r
      in
      Array.length xs = n && Traffic.Arrival.is_sorted xs && xs.(0) > 0.)

let prop_poisson_window =
  prop "homogeneous Poisson stays in its window"
    QCheck.(float_range 0.1 5.)
    (fun rate ->
      let r = rng ~seed:(int_of_float (rate *. 1000.)) () in
      let xs = Traffic.Poisson_proc.homogeneous ~rate ~duration:100. r in
      Array.for_all (fun t -> t >= 0. && t < 100.) xs
      && Traffic.Arrival.is_sorted xs)

let suite =
  ( "properties",
    [
      prop_merge_preserves_multiset;
      prop_merge_sorted;
      prop_clip_within;
      prop_counts_total_bounded;
      prop_aggregate_preserves_mean;
      prop_aggregate_reduces_variance;
      prop_bursts_conserve_conns;
      prop_bursts_conserve_bytes;
      prop_bursts_monotone_in_cutoff;
      prop_bursts_span_conns;
      prop_fifo_waits_nonneg;
      prop_fifo_wait_monotone_in_service;
      prop_fifo_buffer_conserves;
      prop_mgk_wait_bounded_by_fifo;
      prop_lognormal_roundtrip;
      prop_weibull_roundtrip;
      prop_log_extreme_roundtrip;
      prop_pareto_survival_scaling;
      prop_io_roundtrip;
      prop_renewal_n_exact;
      prop_poisson_window;
    ] )
