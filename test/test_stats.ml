open Helpers
open Stats

let data = [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |]

let test_mean_variance () =
  check_close "mean" 5. (Descriptive.mean data);
  check_close "population variance" 4. (Descriptive.variance data);
  check_close "std" 2. (Descriptive.std data);
  check_close "unbiased variance" (32. /. 7.) (Descriptive.variance_unbiased data)

let test_geometric_mean () =
  check_close "gmean of powers of 2" 4.
    (Descriptive.geometric_mean [| 2.; 4.; 8. |]);
  check_close "gmean single" 7. (Descriptive.geometric_mean [| 7. |])

let test_min_max_median () =
  check_close "min" 2. (Descriptive.minimum data);
  check_close "max" 9. (Descriptive.maximum data);
  check_close "median" 4.5 (Descriptive.median data)

let test_quantiles () =
  let xs = [| 1.; 2.; 3.; 4.; 5. |] in
  check_close "q0" 1. (Descriptive.quantile xs 0.);
  check_close "q1" 5. (Descriptive.quantile xs 1.);
  check_close "q0.5" 3. (Descriptive.quantile xs 0.5);
  check_close "q0.25 interpolated" 2. (Descriptive.quantile xs 0.25);
  check_close "q0.1 interpolated" 1.4 (Descriptive.quantile xs 0.1);
  (* Unsorted input must give the same answer. *)
  check_close "unsorted input" 3. (Descriptive.quantile [| 5.; 1.; 3.; 2.; 4. |] 0.5)

let test_autocorrelation () =
  (* Alternating series has lag-1 autocorrelation -1 (population). *)
  let alt = Array.init 100 (fun i -> if i mod 2 = 0 then 1. else -1.) in
  check_close "lag0 is 1" 1. (Descriptive.autocorrelation alt 0);
  check_close "alternating lag1" ~eps:0.03 (-1.) (Descriptive.autocorrelation alt 1);
  let const = Array.make 10 3. in
  check_close "constant series returns 0" 0. (Descriptive.autocorrelation const 1)

let test_autocorrelations_iid () =
  let r = rng () in
  let xs = Array.init 5000 (fun _ -> Prng.Rng.float r) in
  let acf = Descriptive.autocorrelations xs 5 in
  check_close "lag0" 1. acf.(0);
  for k = 1 to 5 do
    check_true
      (Printf.sprintf "iid lag %d small" k)
      (Float.abs acf.(k) < 0.05)
  done

let test_diffs () =
  Alcotest.(check (array (float 1e-12)))
    "diffs" [| 1.; 2.; -3. |]
    (Descriptive.diffs [| 0.; 1.; 3.; 0. |])

let test_summary_string () =
  let s = Descriptive.summary data in
  check_true "mentions n" (String.length s > 0 && String.sub s 0 2 = "n=")

(* ---------------- Empirical CDF grid ---------------- *)

let test_ecdf_grid () =
  let pts = Descriptive.ecdf_grid [| 1.; 2.; 3. |] [| 0.; 1.; 2.5; 5. |] in
  Alcotest.(check (array (pair (float 1e-12) (float 1e-12))))
    "ecdf values"
    [| (0., 0.); (1., 1. /. 3.); (2.5, 2. /. 3.); (5., 1.) |]
    pts

(* ---------------- Regression ---------------- *)

let test_ols_exact_line () =
  let pts = Array.init 10 (fun i ->
      let x = float_of_int i in
      (x, (2.5 *. x) -. 1.)) in
  let fit = Regression.ols pts in
  check_close "slope" 2.5 fit.Regression.slope;
  check_close "intercept" (-1.) fit.Regression.intercept;
  check_close "r2" 1. fit.Regression.r2;
  check_close "stderr" ~eps:1e-9 0. fit.Regression.stderr_slope

let test_ols_noisy () =
  let r = rng () in
  let pts =
    Array.init 2000 (fun i ->
        let x = float_of_int i /. 100. in
        (x, (3. *. x) +. 1. +. (Prng.Rng.float r -. 0.5)))
  in
  let fit = Regression.ols pts in
  check_close "slope recovered" ~eps:0.02 3. fit.Regression.slope;
  check_true "stderr positive" (fit.Regression.stderr_slope > 0.);
  check_true "r2 high" (fit.Regression.r2 > 0.99)

let test_ols_arrays () =
  let fit = Regression.ols_arrays [| 0.; 1.; 2. |] [| 1.; 3.; 5. |] in
  check_close "slope" 2. fit.Regression.slope

(* ---------------- Fit ---------------- *)

let test_exponential_mle () =
  let e = Fit.exponential_mle [| 1.; 2.; 3. |] in
  check_close "mean" 2. (Dist.Exponential.mean e)

let test_pareto_mle_recovers_shape () =
  let p = Dist.Pareto.create ~location:1. ~shape:1.3 in
  let xs = samples 100_000 (Dist.Pareto.sample p) in
  let fitted = Fit.pareto_mle xs in
  check_close "location = min" (Stats.Descriptive.minimum xs)
    (Dist.Pareto.location fitted);
  check_close "shape recovered" ~eps:0.03 1.3 (Dist.Pareto.shape fitted)

let test_pareto_mle_degenerate () =
  let fitted = Fit.pareto_mle [| 2.; 2.; 2. |] in
  check_true "degenerate sample gives very light tail"
    (Dist.Pareto.shape fitted >= 1e5)

let test_hill_on_pareto () =
  let p = Dist.Pareto.create ~location:1. ~shape:1.1 in
  let xs = samples 100_000 (Dist.Pareto.sample p) in
  let h = Fit.hill xs ~k:5000 in
  check_close "hill estimates shape" ~eps:0.08 1.1 h

let test_lognormal_mle () =
  let ln = Dist.Lognormal.create ~mu:1.2 ~sigma:0.7 in
  let xs = samples 100_000 (Dist.Lognormal.sample ln) in
  let fitted = Fit.lognormal_mle xs in
  check_close "mu" ~eps:0.02 1.2 (Dist.Lognormal.mu fitted);
  check_close "sigma" ~eps:0.02 0.7 (Dist.Lognormal.sigma fitted)

let test_normal_mle () =
  let n = Dist.Normal.create ~mu:4. ~sigma:3. in
  let xs = samples 100_000 (Dist.Normal.sample n) in
  let fitted = Fit.normal_mle xs in
  check_close "mu" ~eps:0.05 4. (Dist.Normal.mu fitted);
  check_close "sigma" ~eps:0.05 3. (Dist.Normal.sigma fitted)

let test_log_extreme_moments () =
  let le = Dist.Log_extreme.create ~alpha:5. ~beta:2. in
  let xs = samples 100_000 (Dist.Log_extreme.sample le) in
  let fitted = Fit.log_extreme_moments xs in
  check_close "alpha" ~eps:0.1 5. (Dist.Log_extreme.alpha fitted);
  check_close "beta" ~eps:0.1 2. (Dist.Log_extreme.beta fitted)

let test_cmex_empirical () =
  let xs = [| 1.; 2.; 3.; 10. |] in
  check_close "cmex at 2.5" ((0.5 +. 7.5) /. 2.) (Fit.cmex xs 2.5);
  check_true "cmex beyond max is nan" (Float.is_nan (Fit.cmex xs 11.))

let test_tail_mass () =
  let xs = [| 1.; 1.; 1.; 97. |] in
  check_close "top 25% holds 97%" 0.97 (Fit.tail_mass xs ~top_fraction:0.25);
  check_close "top 100% holds all" 1. (Fit.tail_mass xs ~top_fraction:1.);
  (* Minimum one sample is always counted. *)
  check_close "tiny fraction keeps largest" 0.97
    (Fit.tail_mass xs ~top_fraction:0.001)

let test_concentration_curve () =
  let xs = Array.init 1000 (fun i -> float_of_int (i + 1)) in
  let curve = Fit.concentration_curve xs ~points:10 in
  check_int "points" 10 (Array.length curve);
  let _, last = curve.(9) in
  let _, first = curve.(0) in
  check_true "monotone" (last >= first);
  let pct, share = curve.(9) in
  check_close "x axis ends at 10%" 10. pct;
  (* Top 10% of 1..1000 holds sum(901..1000)/sum(1..1000). *)
  check_close "top decile share" ~eps:0.2
    (100. *. 95050. /. 500500.)
    share

let test_cusum_detects_shift () =
  (* Fixed target: a level shift of 0.3 against drift 0.05 accumulates
     0.25 per observation and must alarm on the 2nd post-shift point;
     observations inside the slack never alarm. *)
  let c = Stats.Cusum.create ~target:0.5 ~drift:0.05 ~threshold:0.4 () in
  for _ = 1 to 50 do
    match Stats.Cusum.observe c 0.52 with
    | None -> ()
    | Some _ -> Alcotest.fail "alarm inside the slack band"
  done;
  (match Stats.Cusum.observe c 0.8 with
  | Some _ -> Alcotest.fail "alarm after one observation (threshold 0.4)"
  | None -> ());
  (match Stats.Cusum.observe c 0.8 with
  | None -> Alcotest.fail "no alarm after sustained +0.3 shift"
  | Some a ->
    (match a.Stats.Cusum.side with
    | Stats.Cusum.Up -> ()
    | Stats.Cusum.Down -> Alcotest.fail "wrong side");
    Alcotest.check (Alcotest.float 1e-9) "stat" 0.5 a.Stats.Cusum.stat);
  (* Self-calibration: warmup mean becomes the target; NaN skipped;
     recalibrate adopts the new regime. *)
  let d = Stats.Cusum.create ~drift:0.05 ~threshold:0.4 ~warmup:4 () in
  (match Stats.Cusum.observe d nan with
  | None -> ()
  | Some _ -> Alcotest.fail "alarm on nan");
  List.iter (fun x -> ignore (Stats.Cusum.observe d x)) [ 0.4; 0.6; 0.5; 0.5 ];
  (match Stats.Cusum.target d with
  | Some t -> Alcotest.check (Alcotest.float 1e-9) "calibrated" 0.5 t
  | None -> Alcotest.fail "no target after warmup");
  ignore (Stats.Cusum.observe d 0.9);
  (match Stats.Cusum.observe d 0.9 with
  | None -> Alcotest.fail "no alarm after calibration"
  | Some _ -> ());
  Stats.Cusum.recalibrate d;
  (match Stats.Cusum.target d with
  | None -> ()
  | Some _ -> Alcotest.fail "target survived recalibrate");
  List.iter (fun x -> ignore (Stats.Cusum.observe d x)) [ 0.9; 0.9; 0.9; 0.9 ];
  for _ = 1 to 20 do
    match Stats.Cusum.observe d 0.9 with
    | None -> ()
    | Some _ -> Alcotest.fail "alarm in the adopted regime"
  done

let suite =
  ( "stats",
    [
      tc "mean/variance" test_mean_variance;
      tc "geometric mean" test_geometric_mean;
      tc "min/max/median" test_min_max_median;
      tc "quantiles" test_quantiles;
      tc "autocorrelation" test_autocorrelation;
      tc "iid autocorrelations small" test_autocorrelations_iid;
      tc "diffs" test_diffs;
      tc "summary string" test_summary_string;
      tc "ecdf grid" test_ecdf_grid;
      tc "ols exact line" test_ols_exact_line;
      tc "ols noisy" test_ols_noisy;
      tc "ols arrays" test_ols_arrays;
      tc "exponential mle" test_exponential_mle;
      tc "pareto mle" test_pareto_mle_recovers_shape;
      tc "pareto mle degenerate" test_pareto_mle_degenerate;
      tc "hill estimator" test_hill_on_pareto;
      tc "lognormal mle" test_lognormal_mle;
      tc "normal mle" test_normal_mle;
      tc "log-extreme moments" test_log_extreme_moments;
      tc "empirical cmex" test_cmex_empirical;
      tc "tail mass" test_tail_mass;
      tc "concentration curve" test_concentration_curve;
      tc "cusum detects shift" test_cusum_detects_shift;
    ] )
