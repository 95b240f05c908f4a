open Helpers
open Dist

(* ---------------- Exponential ---------------- *)

let test_exponential_basics () =
  let e = Exponential.create ~mean:2. in
  check_close "rate" 0.5 (Exponential.rate e);
  check_close "cdf at mean" (1. -. exp (-1.)) (Exponential.cdf e 2.);
  check_close "survival complement" ~eps:1e-12 1.
    (Exponential.cdf e 1.3 +. Exponential.survival e 1.3);
  check_close "variance" 4. (Exponential.variance e);
  check_close "median" (2. *. log 2.) (Exponential.quantile e 0.5)

let prop_exponential_roundtrip =
  prop "exp quantile/cdf roundtrip"
    QCheck.(float_range 0.001 0.999)
    (fun u ->
      let e = Exponential.create ~mean:1.7 in
      Float.abs (Exponential.cdf e (Exponential.quantile e u) -. u) < 1e-10)

let test_exponential_sample_mean () =
  let e = Exponential.create ~mean:3. in
  let xs = samples 50_000 (Exponential.sample e) in
  check_close "sample mean" ~eps:0.08 3. (mean xs)

let test_exponential_memoryless () =
  let e = Exponential.create ~mean:1. in
  (* P[X > s + t] = P[X > s] P[X > t]. *)
  check_close "memoryless" ~eps:1e-12
    (Exponential.survival e 1.2 *. Exponential.survival e 0.8)
    (Exponential.survival e 2.0)

let test_exponential_geometric_fit () =
  (* The geometric mean of Exp(mean m) is m e^-gamma; fitting to g must
     return mean = g e^gamma. *)
  let g = 0.25 in
  let e = Exponential.fit_geometric_mean g in
  let xs = samples 200_000 (Exponential.sample e) in
  let log_mean = mean (Array.map log xs) in
  check_close "geometric mean matches" ~eps:0.02 (log g) log_mean

(* ---------------- Pareto ---------------- *)

let test_pareto_basics () =
  let p = Pareto.create ~location:2. ~shape:1.5 in
  check_close "cdf at location" 0. (Pareto.cdf p 2.);
  check_close "survival 2x" (0.5 ** 1.5) (Pareto.survival p 4.);
  check_close "mean" (1.5 *. 2. /. 0.5) (Pareto.mean p);
  check_true "variance infinite for shape<=2"
    (Pareto.variance p = infinity);
  let p2 = Pareto.create ~location:1. ~shape:0.9 in
  check_true "mean infinite for shape<=1" (Pareto.mean p2 = infinity)

let prop_pareto_roundtrip =
  prop "pareto quantile/cdf roundtrip"
    QCheck.(float_range 0.001 0.999)
    (fun u ->
      let p = Pareto.create ~location:0.5 ~shape:1.2 in
      Float.abs (Pareto.cdf p (Pareto.quantile p u) -. u) < 1e-10)

let test_pareto_truncation_invariance () =
  (* Appendix B eq. (2): conditioning on X >= x0 yields Pareto(x0, beta). *)
  let p = Pareto.create ~location:1. ~shape:1.3 in
  let t = Pareto.truncate_below p 4. in
  List.iter
    (fun y ->
      check_close
        (Printf.sprintf "conditional survival at %g" y)
        ~eps:1e-12
        (Pareto.survival p y /. Pareto.survival p 4.)
        (Pareto.survival t y))
    [ 4.; 5.; 10.; 100. ]

let test_pareto_cmex_linear () =
  let p = Pareto.create ~location:1. ~shape:3. in
  check_close "CMEX slope" (4. /. 2.) (Pareto.cmex p 4.);
  check_close "CMEX at location" (1. /. 2.) (Pareto.cmex p 1.);
  let heavy = Pareto.create ~location:1. ~shape:0.9 in
  check_true "infinite for shape<=1" (Pareto.cmex heavy 2. = infinity)

let test_pareto_sample_truncated () =
  let p = Pareto.create ~location:1. ~shape:1.1 in
  let r = rng () in
  for _ = 1 to 5000 do
    let x = Pareto.sample_truncated p ~upper:50. r in
    check_true "within bounds" (x >= 1. && x <= 50.)
  done

let test_pareto_mean_truncated () =
  let p = Pareto.create ~location:1. ~shape:1.1 in
  let xs = samples 200_000 (Pareto.sample_truncated p ~upper:100.) in
  check_close "truncated mean matches analytic" ~eps:0.08
    (Pareto.mean_truncated p ~upper:100.)
    (mean xs)

let test_pareto_beta_one_fast_path () =
  (* quantile for beta = 1 must agree with the generic formula. *)
  let p1 = Pareto.create ~location:2. ~shape:1. in
  let p1' = Pareto.create ~location:2. ~shape:1.0000001 in
  check_close "fast path consistent" ~eps:1e-4
    (Pareto.quantile p1' 0.9)
    (Pareto.quantile p1 0.9)

(* ---------------- Normal / Lognormal ---------------- *)

let test_normal_basics () =
  let n = Normal.create ~mu:3. ~sigma:2. in
  check_close "cdf at mean" 0.5 (Normal.cdf n 3.);
  check_close "quantile roundtrip" ~eps:1e-8 0.3
    (Normal.cdf n (Normal.quantile n 0.3));
  check_close "pdf peak" (1. /. (2. *. sqrt (2. *. Float.pi))) (Normal.pdf n 3.)

let test_normal_samples () =
  let n = Normal.create ~mu:(-1.) ~sigma:0.5 in
  let xs = samples 50_000 (Normal.sample n) in
  check_close "sample mean" ~eps:0.02 (-1.) (mean xs);
  check_close "sample std" ~eps:0.02 0.5 (Stats.Descriptive.std xs)

let test_lognormal_basics () =
  let ln = Lognormal.create ~mu:0. ~sigma:1. in
  check_close "median" 1. (Lognormal.median ln);
  check_close "mean" (exp 0.5) (Lognormal.mean ln);
  check_close "cdf at median" 0.5 (Lognormal.cdf ln 1.);
  check_close "cdf nonpositive" 0. (Lognormal.cdf ln 0.)

let test_lognormal_of_log2 () =
  (* log2 X ~ N(m, s)  <=>  ln X ~ N(m ln2, s ln2). *)
  let ln = Lognormal.of_log2 ~mean_log2:6.6438561897747395 ~sd_log2:2.24 in
  check_close "median is 100" ~eps:1e-6 100. (Lognormal.median ln);
  let xs = samples 100_000 (Lognormal.sample ln) in
  let log2s = Array.map (fun x -> log x /. log 2.) xs in
  check_close "log2 mean" ~eps:0.05 6.64 (mean log2s);
  check_close "log2 std" ~eps:0.05 2.24 (Stats.Descriptive.std log2s)

(* ---------------- Log-extreme ---------------- *)

let test_log_extreme () =
  let le = Log_extreme.telnet_bytes in
  let median = Log_extreme.median le in
  check_close "cdf at median" ~eps:1e-12 0.5 (Log_extreme.cdf le median);
  check_true "median above 100 (Gumbel skew)" (median > 100.);
  check_close "quantile/cdf roundtrip" ~eps:1e-9 0.9
    (Log_extreme.cdf le (Log_extreme.quantile le 0.9));
  check_close "cdf at 0" 0. (Log_extreme.cdf le 0.)

let test_log_extreme_samples () =
  let le = Log_extreme.create ~alpha:3. ~beta:1. in
  let xs = samples 50_000 (Log_extreme.sample le) in
  let below_median =
    Array.fold_left
      (fun acc x -> if x <= Log_extreme.median le then acc + 1 else acc)
      0 xs
  in
  check_close "half below median" ~eps:0.02 0.5
    (float_of_int below_median /. 50_000.)

(* ---------------- Weibull ---------------- *)

let test_weibull_exponential_case () =
  (* shape 1 reduces to Exp(scale). *)
  let w = Weibull.create ~shape:1. ~scale:2. in
  let e = Exponential.create ~mean:2. in
  List.iter
    (fun x ->
      check_close (Printf.sprintf "cdf at %g" x) ~eps:1e-12
        (Exponential.cdf e x) (Weibull.cdf w x))
    [ 0.1; 1.; 5. ];
  check_close "mean" ~eps:1e-9 2. (Weibull.mean w)

let test_weibull_heavy () =
  let w = Weibull.create ~shape:0.5 ~scale:1. in
  (* mean = scale * Gamma(3) = 2. *)
  check_close "mean shape 0.5" ~eps:1e-9 2. (Weibull.mean w);
  let xs = samples 100_000 (Weibull.sample w) in
  check_close "sample mean" ~eps:0.1 2. (mean xs)

(* ---------------- Poisson ---------------- *)

let test_poisson_pmf_sums () =
  let p = Poisson_d.create ~mean:4. in
  let total = ref 0. in
  for k = 0 to 60 do
    total := !total +. Poisson_d.pmf p k
  done;
  check_close "pmf sums to 1" ~eps:1e-10 1. !total

let test_poisson_cdf_matches_pmf () =
  let p = Poisson_d.create ~mean:7.3 in
  let cum = ref 0. in
  for k = 0 to 20 do
    cum := !cum +. Poisson_d.pmf p k;
    check_close (Printf.sprintf "cdf at %d" k) ~eps:1e-9 !cum
      (Poisson_d.cdf p k)
  done

let test_poisson_sample_moments () =
  let p = Poisson_d.create ~mean:100. in
  let xs = samples 20_000 (fun r -> float_of_int (Poisson_d.sample p r)) in
  check_close "chunked sampling mean" ~eps:1. 100. (mean xs);
  check_close "variance ~ mean" ~eps:5. 100. (Stats.Descriptive.variance xs)

(* ---------------- Geometric ---------------- *)

let test_geometric () =
  let g = Geometric.create ~p:0.25 in
  check_close "pmf at 0" 0.25 (Geometric.pmf g 0);
  check_close "mean" 3. (Geometric.mean g);
  check_close "cdf" (1. -. (0.75 ** 3.)) (Geometric.cdf g 2);
  let xs = samples 100_000 (fun r -> float_of_int (Geometric.sample g r)) in
  check_close "sample mean" ~eps:0.05 3. (mean xs)

let test_geometric_p1 () =
  let g = Geometric.create ~p:1. in
  let r = rng () in
  for _ = 1 to 100 do
    check_int "always zero" 0 (Geometric.sample g r)
  done

(* ---------------- Binomial ---------------- *)

let test_binomial_pmf () =
  let b = Binomial.create ~n:4 ~p:0.5 in
  check_close "pmf 2 of 4" (6. /. 16.) (Binomial.pmf b 2);
  check_close "pmf 0" (1. /. 16.) (Binomial.pmf b 0);
  let total = ref 0. in
  for k = 0 to 4 do
    total := !total +. Binomial.pmf b k
  done;
  check_close "sums to 1" ~eps:1e-12 1. !total

let test_binomial_cdf () =
  let b = Binomial.create ~n:10 ~p:0.3 in
  let cum = ref 0. in
  for k = 0 to 10 do
    cum := !cum +. Binomial.pmf b k;
    check_close (Printf.sprintf "cdf at %d" k) ~eps:1e-10 !cum
      (Binomial.cdf b k)
  done;
  check_close "survival_ge complement" ~eps:1e-10
    (1. -. Binomial.cdf b 4)
    (Binomial.survival_ge b 5)

let test_binomial_edge () =
  let b0 = Binomial.create ~n:5 ~p:0. in
  check_close "p=0 pmf(0)=1" 1. (Binomial.pmf b0 0);
  let b1 = Binomial.create ~n:5 ~p:1. in
  check_close "p=1 pmf(5)=1" 1. (Binomial.pmf b1 5);
  check_close "cdf below support" 0. (Binomial.cdf b1 (-1))

let test_binomial_sample_large_n () =
  let b = Binomial.create ~n:1000 ~p:0.95 in
  let xs = samples 5000 (fun r -> float_of_int (Binomial.sample b r)) in
  check_close "large-n sampler mean" ~eps:0.5 950. (mean xs);
  Array.iter (fun x -> check_true "in support" (x >= 0. && x <= 1000.)) xs

(* ---------------- Zipf ---------------- *)

let test_zipf () =
  let z = Zipf.create () in
  check_close "pmf 0" (1. /. 2.) (Zipf.pmf z 0);
  check_close "pmf 1" (1. /. 6.) (Zipf.pmf z 1);
  check_close "cdf telescopes" (1. -. (1. /. 12.)) (Zipf.cdf z 10);
  let total = ref 0. in
  for k = 0 to 10_000 do
    total := !total +. Zipf.pmf z k
  done;
  check_close "pmf nearly sums to 1" ~eps:1e-3 1. !total

let prop_zipf_quantile =
  prop "zipf quantile is smallest n with cdf >= u"
    QCheck.(float_range 0.01 0.99)
    (fun u ->
      let z = Zipf.create () in
      let n = Zipf.quantile z u in
      Zipf.cdf z n >= u && (n = 0 || Zipf.cdf z (n - 1) < u))

(* ---------------- Empirical ---------------- *)

let test_empirical_of_samples () =
  let d = Empirical.of_samples [| 3.; 1.; 2. |] in
  check_close "min" 1. (Empirical.min_value d);
  check_close "max" 3. (Empirical.max_value d);
  check_close "median" 2. (Empirical.quantile d 0.5);
  check_close "interpolated quantile" 1.5 (Empirical.quantile d 0.25);
  check_close "cdf at 2" 0.5 (Empirical.cdf d 2.);
  check_close "mean" 2. (Empirical.mean d)

let test_empirical_single_sample () =
  let d = Empirical.of_samples [| 5. |] in
  check_close "quantile" 5. (Empirical.quantile d 0.7);
  check_close "mean" 5. (Empirical.mean d);
  check_close "variance" 0. (Empirical.variance d)

let test_empirical_quantile_table () =
  (* Uniform on [0,1] as a 2-knot table. *)
  let d = Empirical.of_quantile_table [| (0., 0.); (1., 1.) |] in
  check_close "mean" 0.5 (Empirical.mean d);
  check_close "variance" ~eps:1e-12 (1. /. 12.) (Empirical.variance d);
  check_close "cdf" 0.3 (Empirical.cdf d 0.3);
  check_close "quantile" 0.8 (Empirical.quantile d 0.8)

let test_empirical_log_interp () =
  let d =
    Empirical.of_quantile_table ~log_interp:true [| (0., 1.); (1., 100.) |]
  in
  (* Quantile is exponential in u: x(u) = 100^u; median = 10. *)
  check_close "median" ~eps:1e-9 10. (Empirical.quantile d 0.5);
  (* Mean = (100 - 1) / ln 100. *)
  check_close "log-segment mean" ~eps:1e-9 (99. /. log 100.) (Empirical.mean d)

let prop_empirical_roundtrip =
  prop "empirical cdf(quantile(u)) ~ u"
    QCheck.(float_range 0.02 0.98)
    (fun u ->
      let d =
        Empirical.of_quantile_table
          [| (0., 1.); (0.3, 2.); (0.7, 5.); (1., 20.) |]
      in
      Float.abs (Empirical.cdf d (Empirical.quantile d u) -. u) < 1e-9)

let test_empirical_sample_range () =
  let d = Empirical.of_samples [| 1.; 5.; 9.; 2. |] in
  let r = rng () in
  for _ = 1 to 2000 do
    let x = Empirical.sample d r in
    check_true "within hull" (x >= 1. && x <= 9.)
  done

let suite =
  ( "distributions",
    [
      tc "exponential basics" test_exponential_basics;
      prop_exponential_roundtrip;
      tc "exponential sample mean" test_exponential_sample_mean;
      tc "exponential memoryless" test_exponential_memoryless;
      tc "exponential geometric fit" test_exponential_geometric_fit;
      tc "pareto basics" test_pareto_basics;
      prop_pareto_roundtrip;
      tc "pareto truncation invariance" test_pareto_truncation_invariance;
      tc "pareto CMEX linear" test_pareto_cmex_linear;
      tc "pareto truncated sampling" test_pareto_sample_truncated;
      tc "pareto truncated mean" test_pareto_mean_truncated;
      tc "pareto beta=1 fast path" test_pareto_beta_one_fast_path;
      tc "normal basics" test_normal_basics;
      tc "normal samples" test_normal_samples;
      tc "lognormal basics" test_lognormal_basics;
      tc "lognormal log2 parameterisation" test_lognormal_of_log2;
      tc "log-extreme cdf/quantile" test_log_extreme;
      tc "log-extreme samples" test_log_extreme_samples;
      tc "weibull shape-1 is exponential" test_weibull_exponential_case;
      tc "weibull heavy" test_weibull_heavy;
      tc "poisson pmf sums" test_poisson_pmf_sums;
      tc "poisson cdf" test_poisson_cdf_matches_pmf;
      tc "poisson chunked sampling" test_poisson_sample_moments;
      tc "geometric" test_geometric;
      tc "geometric p=1" test_geometric_p1;
      tc "binomial pmf" test_binomial_pmf;
      tc "binomial cdf" test_binomial_cdf;
      tc "binomial edge cases" test_binomial_edge;
      tc "binomial large-n sampling" test_binomial_sample_large_n;
      tc "zipf" test_zipf;
      prop_zipf_quantile;
      tc "empirical of_samples" test_empirical_of_samples;
      tc "empirical single sample" test_empirical_single_sample;
      tc "empirical quantile table" test_empirical_quantile_table;
      tc "empirical log interpolation" test_empirical_log_interp;
      prop_empirical_roundtrip;
      tc "empirical sampling range" test_empirical_sample_range;
    ] )
