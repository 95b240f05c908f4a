(* The streamed wavelet cascade: octave energies fused into the
   aggregation pyramid must reproduce the batch Haar decomposition bit
   for bit under every chunking, survive the snapshot codec and the
   shard merge, and drive an estimator that recovers known H and stays
   unbiased under the trends that fool variance-time. *)
open Helpers

let bits = Int64.bits_of_float

(* Feed [xs] to a fresh pyramid in chunks cut at [cuts] (ascending
   positions; the tail after the last cut is one final chunk). *)
let pyramid_of_chunks xs cuts =
  let pyr = Timeseries.Pyramid.create () in
  let pos = ref 0 in
  List.iter
    (fun cut ->
      if cut > !pos then begin
        Timeseries.Pyramid.push_slice pyr xs !pos (cut - !pos);
        pos := cut
      end)
    (cuts @ [ Array.length xs ]);
  pyr

let check_octaves_bit_identical name batch streamed =
  check_int (name ^ ": octave count") (List.length batch)
    (List.length streamed);
  List.iter2
    (fun (b : Lrd.Wavelet.octave) (s : Lrd.Wavelet.octave) ->
      check_int (Printf.sprintf "%s: j=%d octave" name b.Lrd.Wavelet.j)
        b.Lrd.Wavelet.j s.Lrd.Wavelet.j;
      check_int (Printf.sprintf "%s: j=%d coeffs" name b.Lrd.Wavelet.j)
        b.Lrd.Wavelet.n_coeffs s.Lrd.Wavelet.n_coeffs;
      check_true
        (Printf.sprintf "%s: j=%d energy bits" name b.Lrd.Wavelet.j)
        (bits b.Lrd.Wavelet.log2_energy = bits s.Lrd.Wavelet.log2_energy))
    batch streamed

(* ---------------- Streamed = batch, bit for bit ---------------- *)

let test_streamed_equals_batch_chunkings () =
  let r = rng () in
  let xs = Array.init 3000 (fun _ -> Prng.Rng.float r *. 10.) in
  let batch = Lrd.Wavelet.decompose xs in
  List.iter
    (fun cuts ->
      let pyr = pyramid_of_chunks xs cuts in
      check_octaves_bit_identical
        (Printf.sprintf "%d cuts" (List.length cuts))
        batch
        (Lrd.Wavelet.octaves_of_pyramid pyr))
    [
      [];
      [ 1 ];
      [ 1; 2; 3 ];
      [ 7; 100; 101; 1033 ];
      [ 512; 1024; 2048 ];
      List.init 2999 (fun i -> i + 1);
    ]

let test_streamed_equals_batch_prop =
  prop ~count:100 "streamed octaves = batch under random chunking"
    QCheck.(
      pair (int_range 16 2500)
        (list_of_size Gen.(int_range 0 12) (int_range 1 2500)))
    (fun (n, raw_cuts) ->
      let r = rng ~seed:(n + (17 * List.length raw_cuts)) () in
      let xs = Array.init n (fun _ -> Prng.Rng.float r -. 0.5) in
      let cuts = List.sort_uniq compare (List.filter (fun c -> c < n) raw_cuts) in
      let batch = Lrd.Wavelet.decompose xs in
      let streamed =
        Lrd.Wavelet.octaves_of_pyramid (pyramid_of_chunks xs cuts)
      in
      List.length batch = List.length streamed
      && List.for_all2
           (fun (b : Lrd.Wavelet.octave) (s : Lrd.Wavelet.octave) ->
             b.Lrd.Wavelet.j = s.Lrd.Wavelet.j
             && b.Lrd.Wavelet.n_coeffs = s.Lrd.Wavelet.n_coeffs
             && bits b.Lrd.Wavelet.log2_energy
                = bits s.Lrd.Wavelet.log2_energy)
           batch streamed)

(* ---------------- Snapshot codec and shard merge ---------------- *)

let test_codec_roundtrips_energies () =
  let r = rng () in
  let xs = Array.init 777 (fun _ -> Prng.Rng.float r) in
  let pyr = pyramid_of_chunks xs [ 100; 300 ] in
  let snap = Timeseries.Pyramid.snapshot pyr in
  match
    Timeseries.Pyramid.snapshot_of_string
      (Timeseries.Pyramid.snapshot_to_string snap)
  with
  | Error e -> Alcotest.failf "codec round-trip failed: %s" e
  | Ok snap' ->
    check_octaves_bit_identical "codec round-trip"
      (Lrd.Wavelet.octaves_of_pyramid (Timeseries.Pyramid.of_snapshot snap))
      (Lrd.Wavelet.octaves_of_pyramid (Timeseries.Pyramid.of_snapshot snap'))

let test_merged_shards_equal_inline () =
  (* Aligned power-of-two shards: the merge contract [b <= 2^v2(a)]
     holds at every step, so energies at levels >= the boundary
     valuation are bit-exact and lower levels agree to merge-order
     rounding. *)
  let r = rng () in
  let xs = Array.init 4096 (fun _ -> Prng.Rng.float r *. 3.) in
  let inline = Lrd.Wavelet.octaves_of_pyramid (pyramid_of_chunks xs []) in
  List.iter
    (fun shards ->
      let shard_len = Array.length xs / shards in
      let dst = Timeseries.Pyramid.create () in
      for s = 0 to shards - 1 do
        let pyr = Timeseries.Pyramid.create () in
        Timeseries.Pyramid.push_slice pyr xs (s * shard_len) shard_len;
        Timeseries.Pyramid.merge_into dst (Timeseries.Pyramid.snapshot pyr)
      done;
      let merged = Lrd.Wavelet.octaves_of_pyramid dst in
      check_int
        (Printf.sprintf "%d shards: octave count" shards)
        (List.length inline) (List.length merged);
      List.iter2
        (fun (b : Lrd.Wavelet.octave) (s : Lrd.Wavelet.octave) ->
          check_int "octave" b.Lrd.Wavelet.j s.Lrd.Wavelet.j;
          check_int "coeffs" b.Lrd.Wavelet.n_coeffs s.Lrd.Wavelet.n_coeffs;
          let rel =
            Float.abs (s.Lrd.Wavelet.log2_energy -. b.Lrd.Wavelet.log2_energy)
            /. Float.max 1. (Float.abs b.Lrd.Wavelet.log2_energy)
          in
          check_true
            (Printf.sprintf "%d shards: j=%d energy within 1e-12" shards
               b.Lrd.Wavelet.j)
            (rel < 1e-12))
        inline merged)
    [ 2; 4; 8 ]

(* ---------------- Estimator recovery and robustness ---------------- *)

let test_estimate_recovers_fgn_within_ci () =
  List.iter
    (fun h ->
      let est = Lrd.Wavelet.estimate (fgn_fixture h) in
      let tol = Float.max 0.05 (3. *. est.Lrd.Wavelet.stderr_h) in
      check_true
        (Printf.sprintf "H=%.1f within CI (got %.3f +/- %.3f)" h
           est.Lrd.Wavelet.h est.Lrd.Wavelet.stderr_h)
        (Float.abs (est.Lrd.Wavelet.h -. h) <= tol))
    [ 0.5; 0.7; 0.9 ]

let test_diurnal_trend_robustness () =
  (* The estimator-agreement fixture: fGn H=0.7 plus a smooth one-cycle
     envelope. Variance-time must absorb the envelope as spurious long
     memory (bias > 0.1) while the wavelet fit stays within tolerance —
     the acceptance scenario of the logscale diagram. *)
  let row =
    List.find
      (fun (r : Core.Extensions2.estimators_row) ->
        r.Core.Extensions2.scenario = "fGn H=0.7 + diurnal trend")
      (Core.Extensions2.estimators_data ())
  in
  let wav = row.Core.Extensions2.e_wavelet in
  check_true "variance-time biased high"
    (row.Core.Extensions2.e_vt -. 0.7 > 0.1);
  check_true
    (Printf.sprintf "wavelet within CI (got %.3f +/- %.3f)"
       wav.Lrd.Wavelet.h wav.Lrd.Wavelet.stderr_h)
    (Float.abs (wav.Lrd.Wavelet.h -. 0.7)
    <= Float.max 0.05 (3. *. wav.Lrd.Wavelet.stderr_h))

let test_estimators_table_shape () =
  let rows = Core.Extensions2.estimators_data () in
  check_int "five scenarios" 5 (List.length rows);
  List.iter
    (fun (r : Core.Extensions2.estimators_row) ->
      check_true (r.Core.Extensions2.scenario ^ ": whittle finite")
        (Float.is_finite r.Core.Extensions2.e_whittle);
      check_true (r.Core.Extensions2.scenario ^ ": vt finite")
        (Float.is_finite r.Core.Extensions2.e_vt);
      check_true (r.Core.Extensions2.scenario ^ ": wavelet stderr positive")
        (r.Core.Extensions2.e_wavelet.Lrd.Wavelet.stderr_h > 0.))
    rows

(* ---------------- Edge cases ---------------- *)

let test_decompose_rejects_short () =
  check_invalid_arg "15 observations" "Wavelet.decompose" (fun () ->
      Lrd.Wavelet.decompose (Array.make 15 1.))

let test_estimate_rejects_degenerate_window () =
  (* Just over the decompose minimum the default [j_lo, j_hi] window is
     empty or a single octave: a named error, never a nan/0-stderr
     OLS. *)
  let r = rng () in
  List.iter
    (fun n ->
      check_invalid_arg
        (Printf.sprintf "n=%d default window" n)
        "Wavelet.estimate"
        (fun () ->
          Lrd.Wavelet.estimate
            (Array.init n (fun _ -> Prng.Rng.float r))))
    [ 16; 31; 33 ];
  (* An explicitly empty window fails the same way on any length. *)
  check_invalid_arg "empty explicit window" "Wavelet.estimate" (fun () ->
      Lrd.Wavelet.estimate ~j_lo:5 ~j_hi:4
        (Array.init 4096 (fun _ -> Prng.Rng.float r)))

let test_zero_energy_octave_skipped () =
  (* Octaves 2..6 on an exact H = 0.8 line (slope 0.6), except octave 4,
     whose energy is zero: the fit skips it like an empty octave and
     recovers the line from the other four, instead of regressing
     through log2 0. *)
  let octave j log2_energy = { Lrd.Wavelet.j; n_coeffs = 64; log2_energy } in
  let line j = octave j (0.6 *. float_of_int j) in
  let est =
    Lrd.Wavelet.estimate_octaves
      [ line 1; line 2; line 3; octave 4 neg_infinity; line 5; line 6 ]
  in
  check_close "H from the non-zero octaves" ~eps:1e-12 0.8 est.Lrd.Wavelet.h;
  check_close "exact fit" ~eps:1e-12 1. est.Lrd.Wavelet.r2;
  (* A batch series with no variation at all has no usable octave. *)
  check_invalid_arg "constant series" "Wavelet.estimate" (fun () ->
      Lrd.Wavelet.estimate (Array.make 4096 3.))

let test_estimate_minimum_viable_length () =
  (* 64 observations is the smallest series the default window accepts:
     octaves 2 and 3 both reach 8 coefficients. *)
  let r = rng () in
  let est = Lrd.Wavelet.estimate (Array.init 64 (fun _ -> Prng.Rng.float r)) in
  check_int "j_lo" 2 est.Lrd.Wavelet.j_lo;
  check_int "j_hi" 3 est.Lrd.Wavelet.j_hi;
  check_true "finite H" (Float.is_finite est.Lrd.Wavelet.h);
  (* Two octaves fit exactly, so the residual stderr is legitimately 0
     — the error must be finite and non-negative, never nan. *)
  check_true "non-negative finite stderr"
    (Float.is_finite est.Lrd.Wavelet.stderr_h
    && est.Lrd.Wavelet.stderr_h >= 0.)

(* ---------------- The streaming stack ---------------- *)

let test_streaming_result_carries_wavelet () =
  let spec =
    { Core.Streaming.default with events = 2e4; rate = 100.; bin = 0.1 }
  in
  let r = Core.Streaming.run spec in
  (match r.Core.Streaming.h_wav with
  | None -> Alcotest.fail "streamed wavelet estimate missing"
  | Some w ->
    check_true "streamed wavelet H sane"
      (w.Lrd.Wavelet.h > 0.2 && w.Lrd.Wavelet.h < 0.8));
  let off = Core.Streaming.run { spec with wavelet = false } in
  check_true "read-out gated off" (off.Core.Streaming.h_wav = None)

let test_window_rolling_hw_finite () =
  let out = ref [] in
  let mgr =
    Core.Streaming.Window.create ~kind:Core.Streaming.Window.Tumbling
      ~window:256 ~top_k:16 ~bin:1.
      ~emit:(fun e -> out := e :: !out)
      ()
  in
  let r = rng () in
  for _ = 1 to 32 do
    let buf = Array.init 64 (fun _ -> Prng.Rng.float r *. 5.) in
    Core.Streaming.Window.push_slice mgr buf 0 64
  done;
  check_true "estimates emitted" (List.length !out > 0);
  List.iter
    (fun (e : Core.Streaming.Window.estimate) ->
      check_true "rolling hw finite"
        (Float.is_finite e.Core.Streaming.Window.hw);
      check_true "rolling hw sane"
        (e.Core.Streaming.Window.hw > -0.5 && e.Core.Streaming.Window.hw < 1.5))
    !out

let suite =
  ( "wavelet-stream",
    [
      tc "streamed = batch, fixed chunkings" test_streamed_equals_batch_chunkings;
      test_streamed_equals_batch_prop;
      tc "codec round-trips energies" test_codec_roundtrips_energies;
      tc "merged shards = inline" test_merged_shards_equal_inline;
      tc "recovers fGn within CI" test_estimate_recovers_fgn_within_ci;
      tc "diurnal trend robustness" test_diurnal_trend_robustness;
      tc "estimator table shape" test_estimators_table_shape;
      tc "decompose rejects short" test_decompose_rejects_short;
      tc "estimate rejects degenerate window"
        test_estimate_rejects_degenerate_window;
      tc "zero-energy octave skipped" test_zero_energy_octave_skipped;
      tc "minimum viable length" test_estimate_minimum_viable_length;
      tc "streaming result carries wavelet"
        test_streaming_result_carries_wavelet;
      tc "window rolling hw finite" test_window_rolling_hw_finite;
    ] )
