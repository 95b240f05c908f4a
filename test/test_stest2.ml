(* Tests for the second wave of hypothesis tests: chi-square and the
   Pareto goodness-of-fit checks. *)
open Helpers

(* ---------------- Chi-square ---------------- *)

let test_chi2_accepts_exponential () =
  let e = Dist.Exponential.create ~mean:1. in
  let passes = ref 0 in
  for seed = 1 to 100 do
    let r = rng ~seed () in
    let xs = Array.init 300 (fun _ -> Dist.Exponential.sample e r) in
    let fitted = Stats.Fit.exponential_mle xs in
    if
      (Stest.Chi_square.test (Dist.Exponential.cdf fitted) xs)
        .Stest.Chi_square.pass
    then incr passes
  done;
  check_true (Printf.sprintf "pass rate %d/100" !passes) (!passes >= 85)

let test_chi2_rejects_wrong_dist () =
  let p = Dist.Pareto.create ~location:1. ~shape:1. in
  let e = Dist.Exponential.create ~mean:2. in
  let r = rng () in
  let xs = Array.init 500 (fun _ -> Dist.Pareto.sample p r) in
  let res = Stest.Chi_square.test (Dist.Exponential.cdf e) xs in
  check_false "pareto vs exponential rejected" res.Stest.Chi_square.pass

let test_chi2_bins () =
  let r = rng () in
  let xs = Array.init 100 (fun _ -> Prng.Rng.float r) in
  let res = Stest.Chi_square.test ~bins:4 (fun x -> x) xs in
  check_int "df = bins - 1" 3 res.Stest.Chi_square.df

let test_chi2_uniform_exact () =
  (* Perfectly balanced data gives statistic 0 and p = 1. *)
  let xs = Array.init 100 (fun i -> (float_of_int i +. 0.5) /. 100.) in
  let res = Stest.Chi_square.test ~bins:10 (fun x -> x) xs in
  check_close "statistic 0" 0. res.Stest.Chi_square.statistic;
  check_close "p = 1" 1. res.Stest.Chi_square.p_value

(* ---------------- Pareto goodness-of-fit ---------------- *)

let test_pareto_gof_accepts () =
  let p = Dist.Pareto.create ~location:2. ~shape:1.2 in
  let passes = ref 0 in
  for seed = 1 to 100 do
    let r = rng ~seed () in
    let xs = Array.init 200 (fun _ -> Dist.Pareto.sample p r) in
    if
      (Stest.Anderson_darling.test_pareto ~location:2. xs)
        .Stest.Anderson_darling.pass
    then incr passes
  done;
  check_true (Printf.sprintf "pass rate %d/100" !passes) (!passes >= 88)

let test_pareto_gof_rejects_lognormal () =
  let ln = Dist.Lognormal.create ~mu:2. ~sigma:0.5 in
  let r = rng () in
  let xs =
    Array.init 500 (fun _ -> 1. +. Dist.Lognormal.sample ln r)
  in
  check_false "lognormal body is not Pareto"
    (Stest.Anderson_darling.test_pareto ~location:1. xs)
      .Stest.Anderson_darling.pass

let test_pareto_gof_on_burst_tail () =
  (* The Section VI workflow: take the upper 5% of burst sizes and test
     the Pareto tail fit formally. *)
  let trace = Core.Cache.connection_trace "LBL-6" in
  let conns = Trace.Record.filter_protocol trace Trace.Record.Ftpdata in
  let sizes = Trace.Bursts.sizes (Trace.Bursts.group conns) in
  let sorted = Array.copy sizes in
  Array.sort (fun a b -> compare b a) sorted;
  let k = Array.length sorted / 20 in
  let tail = Array.sub sorted 0 k in
  let location = tail.(k - 1) in
  let v = Stest.Anderson_darling.test_pareto ~location tail in
  check_true "upper tail consistent with Pareto"
    v.Stest.Anderson_darling.pass

let suite =
  ( "stest-extensions",
    [
      tc "pareto gof accepts" test_pareto_gof_accepts;
      tc "pareto gof rejects lognormal" test_pareto_gof_rejects_lognormal;
      tc "pareto gof on burst tail" test_pareto_gof_on_burst_tail;
      tc "chi2 accepts exponential" test_chi2_accepts_exponential;
      tc "chi2 rejects wrong dist" test_chi2_rejects_wrong_dist;
      tc "chi2 bins" test_chi2_bins;
      tc "chi2 exact uniform" test_chi2_uniform_exact;
    ] )
