(* Goodness-of-fit self-tests: every sampler in lib/dist is checked
   against its own CDF/pmf on 10k fixed-seed draws, so a regression in
   either the sampler or the analytic side trips the suite. Continuous
   samplers go through the one-sample Kolmogorov-Smirnov test; discrete
   samplers through a chi-square with cells pooled to expected counts of
   at least 5 and the p-value from the regularized incomplete gamma
   function. Seeds are fixed, so the p-values are deterministic and the
   thresholds are exact pass/fail lines, not flaky tolerances. *)

open Helpers

let n_draws = 10_000

let draws seed f =
  let r = Prng.Rng.create seed in
  Array.init n_draws (fun _ -> f r)

(* A sampler should neither fail its own CDF (p tiny) nor fit it
   implausibly well across the whole battery; 1% keeps the per-test
   false-alarm rate negligible while still catching real distortions
   (a wrong shape parameter moves p below 1e-6 at n = 10k). *)
let p_floor = 0.01

let ks_gof name cdf samples =
  let r = Stest.Ks.test cdf samples in
  if r.Stest.Ks.p_value <= p_floor then
    Alcotest.failf "%s: KS d=%.4f p=%.2e <= %.2f" name r.Stest.Ks.d
      r.Stest.Ks.p_value p_floor

(* ---------------- discrete chi-square ---------------- *)

(* Observed/expected cells for values 0..k_max-1 plus a pooled upper
   tail; adjacent cells are then merged left-to-right until each pooled
   cell expects at least 5 draws (the classical validity rule). *)
let chi_square_discrete name ~pmf ~k_max samples =
  let nf = float_of_int (Array.length samples) in
  let obs = Array.make (k_max + 1) 0. in
  Array.iter
    (fun k ->
      let k = Int.max 0 k in
      let i = if k >= k_max then k_max else k in
      obs.(i) <- obs.(i) +. 1.)
    samples;
  let body = Array.init k_max (fun k -> nf *. pmf k) in
  let tail = nf -. Array.fold_left ( +. ) 0. body in
  let expected = Array.append body [| Float.max tail 1e-9 |] in
  let cells = ref [] in
  let o = ref 0. and e = ref 0. in
  Array.iteri
    (fun i oi ->
      o := !o +. oi;
      e := !e +. expected.(i);
      if !e >= 5. then begin
        cells := (!o, !e) :: !cells;
        o := 0.;
        e := 0.
      end)
    obs;
  (* Whatever is left expects < 5: fold it into the last pooled cell. *)
  (match (!cells, !e > 0.) with
  | (lo, le) :: rest, true -> cells := ((lo +. !o, le +. !e) :: rest)
  | [], true -> cells := [ (!o, !e) ]
  | _, false -> ());
  let cells = List.rev !cells in
  let dof = List.length cells - 1 in
  if dof < 2 then
    Alcotest.failf "%s: only %d pooled cells; widen k_max" name (dof + 1);
  let stat =
    List.fold_left
      (fun acc (o, e) ->
        let d = o -. e in
        acc +. (d *. d /. e))
      0. cells
  in
  let p = Dist.Special.gamma_q (float_of_int dof /. 2.) (stat /. 2.) in
  if p <= p_floor then
    Alcotest.failf "%s: chi2=%.2f dof=%d p=%.2e <= %.2f" name stat dof p
      p_floor

(* ---------------- continuous samplers ---------------- *)

let test_exponential () =
  let d = Dist.Exponential.create ~mean:1.3 in
  ks_gof "exponential" (Dist.Exponential.cdf d)
    (draws 101 (Dist.Exponential.sample d))

let test_pareto () =
  let d = Dist.Pareto.create ~location:1.0 ~shape:0.9 in
  ks_gof "pareto beta=0.9" (Dist.Pareto.cdf d)
    (draws 102 (Dist.Pareto.sample d))

let test_pareto_truncated () =
  (* sample_truncated is inverse-CDF on [location, upper]: its target is
     the conditional law F(x) / F(upper). *)
  let d = Dist.Pareto.create ~location:1.0 ~shape:1.2 in
  let upper = 50. in
  let cdf x = Dist.Pareto.cdf d (Float.min x upper) /. Dist.Pareto.cdf d upper in
  ks_gof "pareto truncated" cdf
    (draws 103 (Dist.Pareto.sample_truncated d ~upper))

let test_lognormal () =
  let d = Dist.Lognormal.of_log2 ~mean_log2:(log 100. /. log 2.) ~sd_log2:2.24 in
  ks_gof "lognormal" (Dist.Lognormal.cdf d)
    (draws 104 (Dist.Lognormal.sample d))

let test_weibull () =
  let d = Dist.Weibull.create ~shape:0.7 ~scale:2.0 in
  ks_gof "weibull shape=0.7" (Dist.Weibull.cdf d)
    (draws 105 (Dist.Weibull.sample d))

let test_normal () =
  let d = Dist.Normal.create ~mu:(-1.5) ~sigma:2.5 in
  ks_gof "normal" (Dist.Normal.cdf d) (draws 108 (Dist.Normal.sample d))

let test_log_extreme () =
  let d = Dist.Log_extreme.telnet_bytes in
  ks_gof "log-extreme" (Dist.Log_extreme.cdf d)
    (draws 110 (Dist.Log_extreme.sample d))

let test_empirical_of_samples () =
  (* The empirical CDF and quantile are consistent piecewise-linear
     inverses, so samples drawn through the quantile must pass a KS test
     against the CDF. Continuous base data keeps the order statistics
     distinct (no flat CDF segments). *)
  let base = draws 111 (Dist.Normal.sample Dist.Normal.standard) in
  let d = Dist.Empirical.of_samples base in
  ks_gof "empirical (of_samples)" (Dist.Empirical.cdf d)
    (draws 112 (Dist.Empirical.sample d))

let test_empirical_quantile_table () =
  (* Same consistency check for the quantile-knot constructor with
     log-space interpolation — the encoding of the Tcplib tables. *)
  let knots =
    [| (0.0, 0.001); (0.25, 0.01); (0.5, 0.1); (0.9, 1.0); (1.0, 100.0) |]
  in
  let d = Dist.Empirical.of_quantile_table ~log_interp:true knots in
  ks_gof "empirical (quantile table)" (Dist.Empirical.cdf d)
    (draws 113 (Dist.Empirical.sample d))

let test_tcplib_interarrival () =
  (* The production instance of the empirical machinery: Tcplib TELNET
     packet interarrivals sampled against their own table. *)
  let d = Tcplib.Telnet.interarrival in
  ks_gof "tcplib telnet interarrival" (Dist.Empirical.cdf d)
    (draws 114 (Dist.Empirical.sample d))

(* ---------------- discrete samplers ---------------- *)

let test_geometric () =
  let d = Dist.Geometric.create ~p:0.3 in
  chi_square_discrete "geometric" ~pmf:(Dist.Geometric.pmf d) ~k_max:25
    (draws 201 (Dist.Geometric.sample d))

let test_binomial () =
  (* n = 20 stays on the exact Bernoulli-sum path. *)
  let d = Dist.Binomial.create ~n:20 ~p:0.35 in
  chi_square_discrete "binomial n=20" ~pmf:(Dist.Binomial.pmf d) ~k_max:20
    (draws 202 (Dist.Binomial.sample d))

let test_binomial_large () =
  (* Large n: the normal-approximation inversion with CDF correction. *)
  let d = Dist.Binomial.create ~n:400 ~p:0.5 in
  chi_square_discrete "binomial n=400"
    ~pmf:(fun k -> Dist.Binomial.pmf d (k + 150))
    ~k_max:100
    (Array.map (fun k -> k - 150) (draws 203 (Dist.Binomial.sample d)))

let test_zipf () =
  let d = Dist.Zipf.create () in
  chi_square_discrete "zipf" ~pmf:(Dist.Zipf.pmf d) ~k_max:40
    (draws 204 (Dist.Zipf.sample d))

let test_poisson () =
  let d = Dist.Poisson_d.create ~mean:6.5 in
  chi_square_discrete "poisson mean=6.5" ~pmf:(Dist.Poisson_d.pmf d) ~k_max:18
    (draws 205 (Dist.Poisson_d.sample d))

let test_poisson_large_mean () =
  (* Large mean exercises the chunked product method. *)
  let d = Dist.Poisson_d.create ~mean:900. in
  chi_square_discrete "poisson mean=900"
    ~pmf:(fun k -> Dist.Poisson_d.pmf d (k + 780))
    ~k_max:240
    (Array.map (fun k -> k - 780) (draws 206 (Dist.Poisson_d.sample d)))

let suite =
  ( "dist-gof",
    [
      tc "exponential vs own cdf" test_exponential;
      tc "pareto vs own cdf" test_pareto;
      tc "pareto truncated vs conditional cdf" test_pareto_truncated;
      tc "lognormal vs own cdf" test_lognormal;
      tc "weibull vs own cdf" test_weibull;
      tc "normal vs own cdf" test_normal;
      tc "log-extreme vs own cdf" test_log_extreme;
      tc "empirical of_samples self-consistent" test_empirical_of_samples;
      tc "empirical quantile table self-consistent"
        test_empirical_quantile_table;
      tc "tcplib interarrival self-consistent" test_tcplib_interarrival;
      tc "geometric vs own pmf" test_geometric;
      tc "binomial (n=20) vs own pmf" test_binomial;
      tc "binomial (n=400) vs own pmf" test_binomial_large;
      tc "zipf vs own pmf" test_zipf;
      tc "poisson (mean 6.5) vs own pmf" test_poisson;
      tc "poisson (mean 900) vs own pmf" test_poisson_large_mean;
    ] )
