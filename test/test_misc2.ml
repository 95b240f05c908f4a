(* Tests for the normality A2 test, VBR sources, FFT-based ACF, and the
   second extension wave. *)
open Helpers

(* ---------------- A2 normality ---------------- *)

let test_normal_accepts_gaussian () =
  let n = Dist.Normal.create ~mu:3. ~sigma:2. in
  let passes = ref 0 in
  for seed = 1 to 100 do
    let r = rng ~seed () in
    let xs = Array.init 200 (fun _ -> Dist.Normal.sample n r) in
    if (Stest.Anderson_darling.test_normal xs).Stest.Anderson_darling.pass
    then incr passes
  done;
  check_true (Printf.sprintf "pass rate %d/100" !passes) (!passes >= 88)

let test_normal_rejects_exponential () =
  let e = Dist.Exponential.create ~mean:1. in
  let r = rng () in
  let xs = Array.init 300 (fun _ -> Dist.Exponential.sample e r) in
  check_false "skewed data rejected"
    (Stest.Anderson_darling.test_normal xs).Stest.Anderson_darling.pass

let test_normal_rejects_zero_spike () =
  (* The FTP-lull shape: mostly zeros plus a few large values. *)
  let r = rng () in
  let xs =
    Array.init 500 (fun _ ->
        if Prng.Rng.float r < 0.9 then 0. else Prng.Rng.float_range r 50. 100.)
  in
  let v = Stest.Anderson_darling.test_normal xs in
  check_false "zero spike rejected" v.Stest.Anderson_darling.pass;
  check_true "enormous statistic" (v.Stest.Anderson_darling.a2_modified > 10.)

let test_normal_critical_values () =
  check_close "5%" 0.752 (Stest.Anderson_darling.critical_normal 0.05);
  Alcotest.check_raises "unsupported"
    (Invalid_argument "Anderson_darling.critical_normal: unsupported level")
    (fun () -> ignore (Stest.Anderson_darling.critical_normal 0.2))

(* ---------------- VBR ---------------- *)

let test_vbr_frame_sizes () =
  let r = rng () in
  let sizes = Traffic.Vbr.frame_sizes ~n:5000 r in
  check_int "count" 5000 (Array.length sizes);
  Array.iter (fun s -> check_true "positive" (s > 0.)) sizes;
  check_close "mean near 4 kB" ~eps:600. 4000. (mean sizes)

let test_vbr_lrd () =
  let r = rng () in
  let sizes = Traffic.Vbr.frame_sizes ~n:8192 r in
  let logs = Array.map log sizes in
  let est = Lrd.Whittle.estimate logs in
  check_close "log frame sizes carry H" ~eps:0.06 0.85 est.Lrd.Whittle.h

let test_vbr_byte_rate () =
  let r = rng () in
  let rates = Traffic.Vbr.byte_rate_process ~dt:1. ~n:1024 r in
  check_int "bins" 1024 (Array.length rates);
  (* 24 frames of ~4 kB per 1 s bin. *)
  check_close "rate level" ~eps:15_000. 96_000. (mean rates)

let test_vbr_custom_params () =
  let params =
    { Traffic.Vbr.default_params with frame_rate = 10.; mean_frame_bytes = 1000. }
  in
  let r = rng () in
  let rates = Traffic.Vbr.byte_rate_process ~params ~dt:1. ~n:512 r in
  check_close "10 kB/s" ~eps:2500. 10_000. (mean rates)

(* ---------------- Extension experiments ---------------- *)

let test_marginal_experiment () =
  let rows = Core.Extensions2.marginal_data () in
  check_int "three series" 3 (List.length rows);
  let fgn = List.hd rows in
  check_true "fGn normal" fgn.Core.Extensions2.normal;
  let ftp = List.nth rows 2 in
  check_false "FTPDATA not normal" ftp.Core.Extensions2.normal;
  check_true "zero spike visible" (ftp.Core.Extensions2.zero_fraction > 0.5)

let test_phase_experiment () =
  let rows = Core.Extensions2.phase_data () in
  check_int "six ratios" 6 (List.length rows);
  let equal = List.hd rows in
  check_close "equal RTTs near fair" ~eps:0.12 0.5
    equal.Core.Extensions2.share_flow1;
  (* Some ratio must deviate strongly from fair: the phase effect. *)
  let max_dev =
    List.fold_left
      (fun a r -> Float.max a (Float.abs (r.Core.Extensions2.share_flow1 -. 0.5)))
      0. rows
  in
  check_true "strong discrimination somewhere" (max_dev > 0.15)

let test_vbr_experiment () =
  let r = Core.Extensions2.vbr_data () in
  check_close "VBR H near design" ~eps:0.1 0.85 r.Core.Extensions2.vbr_h_vt;
  check_true "mix stays LRD" (r.Core.Extensions2.mix_h_vt > 0.7)

let suite =
  ( "misc-extensions-2",
    [
      tc "normality accepts gaussian" test_normal_accepts_gaussian;
      tc "normality rejects exponential" test_normal_rejects_exponential;
      tc "normality rejects zero spike" test_normal_rejects_zero_spike;
      tc "normality critical values" test_normal_critical_values;
      tc "vbr frame sizes" test_vbr_frame_sizes;
      tc "vbr LRD" test_vbr_lrd;
      tc "vbr byte rate" test_vbr_byte_rate;
      tc "vbr custom params" test_vbr_custom_params;
      tc "marginal experiment" test_marginal_experiment;
      tc "phase experiment" test_phase_experiment;
      tc "vbr experiment" test_vbr_experiment;
    ] )
