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

(* The CLI binary, resolved relative to this test binary so it works
   under both `dune runtest` and `dune exec` from the project root. *)
let wanpoisson_exe =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/wanpoisson.exe"

(* Plain substring search, so the suite needs no regex library. *)
let contains_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    if i + nn > nh then false
    else if String.sub hay i nn = needle then true
    else go (i + 1)
  in
  nn = 0 || go 0

(* [text] contains every fragment of [frags], in that order. *)
let contains_in_order text frags =
  let rec from pos = function
    | [] -> true
    | f :: rest ->
      let n = String.length f in
      let rec find i =
        if i + n > String.length text then None
        else if String.sub text i n = f then Some (i + n)
        else find (i + 1)
      in
      (match find pos with Some next -> from next rest | None -> false)
  in
  from 0 frags

(* Exec the CLI as a user runs it, [args] being shell words; returns the
   exit code, stdout and stderr. *)
let run_cli args =
  let read path = In_channel.with_open_bin path In_channel.input_all in
  let out = Filename.temp_file "wanpoisson" ".out" in
  let err = Filename.temp_file "wanpoisson" ".err" in
  let code =
    Sys.command
      (Printf.sprintf "TERM=dumb %s %s > %s 2> %s"
         (Filename.quote wanpoisson_exe) args (Filename.quote out)
         (Filename.quote err))
  in
  let out_text = read out and err_text = read err in
  Sys.remove out;
  Sys.remove err;
  (code, out_text, err_text)

(* Each row is an argv (shell words), the exit code, and fragments that
   must appear in order — on stdout when the exit code is 0, on stderr
   otherwise. Command-line errors are cmdliner's (124); an unknown id or
   an unwritable output path is named before any work, exit 2. *)
let check_cli_rows rows =
  List.iter
    (fun (args, code, frags) ->
      let got, out_text, err_text = run_cli args in
      check_int (args ^ ": exit code") code got;
      check_true
        (args ^ ": names " ^ String.concat ", " frags)
        (contains_in_order (if code = 0 then out_text else err_text) frags);
      if String.starts_with ~prefix:"run " args then
        check_false (args ^ ": stdout carries reports only")
          (contains_sub out_text "Reproduction harness"))
    rows

(* The value of an [Ok], or the test fails naming the [Error]. *)
let get_ok = function Ok x -> x | Error e -> Alcotest.fail e

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
