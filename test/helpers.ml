(* Shared test utilities. *)

let rng ?(seed = 12345) () = Prng.Rng.create seed

let check_float_eps name eps expected actual =
  Alcotest.(check (float eps)) name expected actual

let check_close name ?(eps = 1e-9) expected actual =
  check_float_eps name eps expected actual

let check_true name cond = Alcotest.(check bool) name true cond
let check_false name cond = Alcotest.(check bool) name false cond
let check_int name expected actual = Alcotest.(check int) name expected actual

let tc name f = Alcotest.test_case name `Quick f

let prop ?(count = 200) name gen law =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen law)

(* Deterministic sample arrays for distribution checks. *)
let samples n f =
  let r = rng () in
  Array.init n (fun _ -> f r)

let mean xs = Stats.Descriptive.mean xs

(* Fixed-seed fGn fixture shared by the estimator-recovery sweeps: the
   seed is derived from the target parameter (scaled to an int) so each
   sweep point gets a distinct, reproducible sample path. *)
let fgn_fixture ?(seed_scale = 1e4) ?(n = 16384) h =
  Lrd.Fgn.generate ~h ~n (rng ~seed:(int_of_float (h *. seed_scale)) ())

(* Run [f] once per seed and count successes — the acceptance-rate
   pattern behind the Beran goodness-of-fit checks. *)
let acceptance_over_seeds ?(seeds = 20) f =
  let ok = ref 0 in
  for seed = 1 to seeds do
    if f (rng ~seed ()) then incr ok
  done;
  !ok

(* Check that [f ()] raises [Invalid_argument] whose message starts with
   [prefix] (exact messages carry bounds that tests shouldn't pin). *)
let check_invalid_arg name prefix f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  | exception Invalid_argument m ->
    if
      String.length m < String.length prefix
      || String.sub m 0 (String.length prefix) <> prefix
    then
      Alcotest.failf "%s: Invalid_argument %S does not start with %S" name m
        prefix

(* [f ()] must raise [Invalid_argument] whose message contains [needle]. *)
let check_invalid_arg_mentions name needle f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  | exception Invalid_argument m ->
    let n = String.length needle in
    let rec has i =
      i + n <= String.length m && (String.sub m i n = needle || has (i + 1))
    in
    if not (has 0) then
      Alcotest.failf "%s: message %S does not name %S" name m needle
