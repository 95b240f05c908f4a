(* PR 5: streaming one-pass LRD analysis — the aggregation pyramid,
   chunked sinks, streaming producers, and the sharded stream driver. *)

open Helpers

let relative a b = Float.abs (a -. b) /. (Float.abs b +. 1e-300)

(* ---------------- mergeable moments ---------------- *)

let test_moments_welford () =
  let r = rng () in
  for _ = 1 to 50 do
    let n = 1 + Prng.Rng.int r 500 in
    let xs = Array.init n (fun _ -> Prng.Rng.float r -. 0.5) in
    let m = Timeseries.Moments.create () in
    Array.iter (fun x -> Timeseries.Moments.add m x) xs;
    check_int "count" n (Timeseries.Moments.count m);
    check_true "mean"
      (relative (Timeseries.Moments.mean m) (Stats.Descriptive.mean xs)
       < 1e-12);
    if n >= 2 then
      check_true "variance"
        (Float.abs
           (Timeseries.Moments.variance m -. Stats.Descriptive.variance xs)
         < 1e-12)
  done

let test_moments_merge () =
  let r = rng ~seed:7 () in
  for _ = 1 to 50 do
    let n = 2 + Prng.Rng.int r 400 in
    let xs = Array.init n (fun _ -> (10. *. Prng.Rng.float r) -. 5.) in
    let cut = 1 + Prng.Rng.int r (n - 1) in
    let a = Timeseries.Moments.create () and b = Timeseries.Moments.create () in
    Timeseries.Moments.add_slice a xs 0 cut;
    Timeseries.Moments.add_slice b xs cut (n - cut);
    Timeseries.Moments.merge_counts a (Timeseries.Moments.count b)
      b.Timeseries.Moments.mean b.Timeseries.Moments.m2;
    check_int "merged count" n (Timeseries.Moments.count a);
    check_true "merged mean"
      (relative (Timeseries.Moments.mean a) (Stats.Descriptive.mean xs)
       < 1e-12);
    check_true "merged variance"
      (relative
         (Timeseries.Moments.variance a)
         (Stats.Descriptive.variance xs)
       < 1e-9)
  done

(* ---------------- snapshot / merge algebra ---------------- *)

(* Push [xs.(pos .. pos+len-1)] in random chunks drawn from [r]. *)
let push_randomly r pyr xs pos len =
  let p = ref pos and stop = pos + len in
  while !p < stop do
    let take = Int.min (1 + Prng.Rng.int r 400) (stop - !p) in
    Timeseries.Pyramid.push_slice pyr xs !p take;
    p := !p + take
  done

let check_pyramids_agree ctx levels a b =
  List.iter
    (fun m ->
      match (Timeseries.Pyramid.stat a m, Timeseries.Pyramid.stat b m) with
      | None, None -> ()
      | Some sa, Some sb ->
        check_int (Printf.sprintf "%s m=%d blocks" ctx m)
          sb.Timeseries.Pyramid.blocks sa.Timeseries.Pyramid.blocks;
        check_true
          (Printf.sprintf "%s m=%d mean" ctx m)
          (relative sa.Timeseries.Pyramid.mean_sum
             sb.Timeseries.Pyramid.mean_sum
           < 1e-12);
        check_true
          (Printf.sprintf "%s m=%d var" ctx m)
          (relative sa.Timeseries.Pyramid.var_sum sb.Timeseries.Pyramid.var_sum
           < 1e-11)
      | Some _, None | None, Some _ ->
        Alcotest.failf "%s m=%d present in only one pyramid" ctx m)
    (1 :: levels)

(* Sharded snapshots Chan-merged equal the single-pass batch pyramid:
   power-of-two shards (any count, partial tail) on the dyadic ladder.
   Pushing a further tail into both pyramids afterwards proves the
   carry chain — not just the moments — survived the merge. *)
let test_pyramid_merge_matches_batch () =
  let r = rng ~seed:61 () in
  for _trial = 1 to 60 do
    let shard = 1 lsl (3 + Prng.Rng.int r 6) in
    let n_shards = 1 + Prng.Rng.int r 6 in
    let tail_in = Prng.Rng.int r shard in
    let n = (n_shards * shard) + tail_in in
    let extra = 1 + Prng.Rng.int r 500 in
    let xs = Array.init (n + extra) (fun _ -> 1. +. Prng.Rng.float r) in
    let levels = [ 2; 8; 64 ] in
    let batch = Timeseries.Pyramid.create () in
    push_randomly r batch xs 0 n;
    let merged = Timeseries.Pyramid.create () in
    let pos = ref 0 in
    while !pos < n do
      let len = Int.min shard (n - !pos) in
      let piece = Timeseries.Pyramid.create () in
      push_randomly r piece xs !pos len;
      Timeseries.Pyramid.merge_into merged (Timeseries.Pyramid.snapshot piece);
      pos := !pos + len
    done;
    check_int "merged count" n (Timeseries.Pyramid.count merged);
    check_pyramids_agree "merged" levels merged batch;
    (* carry state bit-for-bit: both continue identically *)
    push_randomly r batch xs n extra;
    Timeseries.Pyramid.push_slice merged xs n extra;
    check_pyramids_agree "post-merge push" levels merged batch
  done

let test_pyramid_merge_misaligned_raises () =
  let xs = Array.init 100 (fun i -> float_of_int i) in
  let mk lo len levels =
    let p = Timeseries.Pyramid.create ~levels () in
    Timeseries.Pyramid.push_slice p xs lo len;
    p
  in
  (* 12 raw then 8 more: 8 > 2^v2(12) = 4 *)
  let dst = mk 0 12 [] in
  (match
     Timeseries.Pyramid.merge_into dst
       (Timeseries.Pyramid.snapshot (mk 12 8 []))
   with
  | () -> Alcotest.fail "expected Invalid_argument (dyadic misalignment)"
  | exception Invalid_argument _ -> ());
  (* snapshots are dyadic-only: a pyramid with registered levels can
     neither be snapshotted nor merged into *)
  (match Timeseries.Pyramid.snapshot (mk 0 8 [ 3 ]) with
  | _ -> Alcotest.fail "expected Invalid_argument (registered snapshot)"
  | exception Invalid_argument _ -> ());
  match
    Timeseries.Pyramid.merge_into (mk 0 8 [ 3 ])
      (Timeseries.Pyramid.snapshot (mk 8 4 []))
  with
  | () -> Alcotest.fail "expected Invalid_argument (registered merge)"
  | exception Invalid_argument _ -> ()

(* ---------------- pyramid vs naive variance-time ---------------- *)

(* The tentpole property: for random series, random chunkings and random
   level ladders (dyadic or not), the pyramid's exact levels agree with
   the aggregate-per-level reference to 1e-9 relative. *)
let test_pyramid_matches_naive () =
  let r = rng ~seed:99 () in
  for _trial = 1 to 220 do
    let n = 2 + Prng.Rng.int r 2000 in
    let xs = Array.init n (fun _ -> 5. +. Prng.Rng.float r) in
    let levels =
      List.init
        (1 + Prng.Rng.int r 10)
        (fun _ -> 1 + Prng.Rng.int r (Int.max 1 (n / 2)))
      |> List.sort_uniq compare
    in
    let naive = Timeseries.Variance_time.curve_naive ~levels xs in
    let chunk = 1 + Prng.Rng.int r (n + 4) in
    let pyr = Timeseries.Pyramid.create ~levels () in
    let pos = ref 0 in
    while !pos < n do
      let len = Int.min chunk (n - !pos) in
      Timeseries.Pyramid.push_slice pyr xs !pos len;
      pos := !pos + len
    done;
    check_int "count" n (Timeseries.Pyramid.count pyr);
    Array.iter
      (fun (p : Timeseries.Variance_time.point) ->
        match Timeseries.Pyramid.stat pyr p.m with
        | None -> Alcotest.failf "level %d missing from pyramid" p.m
        | Some s ->
          check_true "exact" s.Timeseries.Pyramid.exact;
          check_int "blocks" (Array.length xs / p.m)
            s.Timeseries.Pyramid.blocks;
          let v =
            s.Timeseries.Pyramid.var_sum
            /. (float_of_int p.m *. float_of_int p.m)
          in
          if relative v p.variance > 1e-9 then
            Alcotest.failf "m=%d naive %.17g pyramid %.17g" p.m p.variance v)
      naive
  done

let test_curve_equals_naive_default_levels () =
  let r = rng ~seed:5 () in
  for _ = 1 to 30 do
    let n = 50 + Prng.Rng.int r 5000 in
    let xs = Array.init n (fun _ -> 1. +. Prng.Rng.float r) in
    let c = Timeseries.Variance_time.curve xs in
    let naive = Timeseries.Variance_time.curve_naive xs in
    check_int "points" (Array.length naive) (Array.length c);
    Array.iteri
      (fun i (p : Timeseries.Variance_time.point) ->
        check_int "m" p.m c.(i).Timeseries.Variance_time.m;
        check_true "normalised"
          (relative c.(i).Timeseries.Variance_time.normalised p.normalised
           < 1e-9))
      naive
  done

(* The old standalone pyrtest sweep, folded in: every chunking of the
   same series — one value at a time, a prime stride, a typical buffer,
   one shot, and a random size — must reproduce curve_naive at every
   registered level. *)
let test_pyramid_chunking_sweep () =
  let r = rng ~seed:4242 () in
  for _trial = 1 to 60 do
    let n = 1 + Prng.Rng.int r 3000 in
    let xs = Array.init n (fun _ -> 10. +. Prng.Rng.float r) in
    let levels =
      List.init 12 (fun _ -> 1 + Prng.Rng.int r (Int.max 1 (n / 2)))
      |> List.sort_uniq compare
    in
    let naive = Timeseries.Variance_time.curve_naive ~levels xs in
    let chunked ch =
      let pyr = Timeseries.Pyramid.create ~levels () in
      let pos = ref 0 in
      while !pos < n do
        let len = Int.min ch (n - !pos) in
        Timeseries.Pyramid.push_slice pyr xs !pos len;
        pos := !pos + len
      done;
      Timeseries.Variance_time.curve_of_pyramid ~levels pyr
    in
    List.iter
      (fun ch ->
        let c = chunked ch in
        Array.iter
          (fun (p : Timeseries.Variance_time.point) ->
            match
              Array.find_opt
                (fun (q : Timeseries.Variance_time.point) -> q.m = p.m)
                c
            with
            | None -> Alcotest.failf "chunk %d: missing m=%d" ch p.m
            | Some q ->
              if relative q.variance p.variance > 1e-9 then
                Alcotest.failf "chunk %d m=%d: naive %.17g pyramid %.17g" ch
                  p.m p.variance q.variance)
          naive)
      [ 1; 7; 64; n; 1 + Prng.Rng.int r n ]
  done

(* Chunk boundary edge cases: chunk=1, chunk=n, n not a multiple. *)
let test_pyramid_chunk_edges () =
  let r = rng ~seed:3 () in
  let n = 1037 in
  let xs = Array.init n (fun _ -> 2. +. Prng.Rng.float r) in
  let levels = [ 1; 2; 3; 7; 10; 32; 100 ] in
  let run chunk =
    let pyr = Timeseries.Pyramid.create ~levels () in
    let pos = ref 0 in
    while !pos < n do
      let len = Int.min chunk (n - !pos) in
      Timeseries.Pyramid.push_slice pyr xs !pos len;
      pos := !pos + len
    done;
    Timeseries.Variance_time.curve_of_pyramid ~levels pyr
  in
  let whole = run n in
  List.iter
    (fun chunk ->
      let c = run chunk in
      check_int (Printf.sprintf "points chunk=%d" chunk) (Array.length whole)
        (Array.length c);
      Array.iteri
        (fun i (p : Timeseries.Variance_time.point) ->
          check_true
            (Printf.sprintf "chunk=%d m=%d" chunk p.m)
            (relative p.normalised
               whole.(i).Timeseries.Variance_time.normalised
             < 1e-9))
        c)
    [ 1; 2; 64; 1000; 1036 ]

(* Unregistered non-dyadic levels are resampled from the nearest dyadic
   level and reported at the level actually served. *)
let test_pyramid_resampled_levels () =
  let r = rng ~seed:11 () in
  let xs = Array.init 4096 (fun _ -> 1. +. Prng.Rng.float r) in
  let pyr = Timeseries.Pyramid.create () in
  Timeseries.Pyramid.push pyr xs;
  (match Timeseries.Pyramid.stat pyr 100 with
  | None -> Alcotest.fail "no stat for level 100"
  | Some s ->
    check_false "not exact" s.Timeseries.Pyramid.exact;
    check_int "served nearest dyadic" 128 s.Timeseries.Pyramid.served);
  (match Timeseries.Pyramid.stat pyr 64 with
  | None -> Alcotest.fail "no stat for level 64"
  | Some s ->
    check_true "dyadic exact" s.Timeseries.Pyramid.exact;
    check_int "served" 64 s.Timeseries.Pyramid.served);
  (* The nearest-dyadic fallback is flagged in the structured log,
     naming the requested and served levels. *)
  Engine.Log.set_enabled true;
  Engine.Log.reset ();
  ignore (Timeseries.Variance_time.curve_of_pyramid ~levels:[ 100; 64 ] pyr);
  let resampled =
    List.filter
      (fun ev -> ev.Engine.Log.ev_name = "variance_time.resampled")
      (Engine.Log.warnings ())
  in
  Engine.Log.set_enabled false;
  check_int "one resample warning" 1 (List.length resampled);
  match resampled with
  | [ ev ] ->
    check_true "names levels"
      (ev.Engine.Log.fields = [ ("requested", Engine.Log.I 100);
                                ("served", Engine.Log.I 128) ])
  | _ -> Alcotest.fail "expected exactly one resample warning"

(* ---------------- windowed estimation ---------------- *)

(* Rolling estimates over a stationary trace must equal batch analysis
   of exactly the covered suffix: the sliding read-out is a pane merge
   (never a moment subtraction), so H and rate agree to rounding with a
   pyramid fed the same bins in one slice. *)
let test_window_sliding_matches_batch () =
  let r = rng ~seed:77 () in
  let n = 2348 in
  let xs = Array.init n (fun _ -> 5. +. Prng.Rng.float r) in
  let bin = 0.5 in
  let run kind window cadence =
    let ests = ref [] in
    let win =
      Core.Streaming.Window.create ~kind ~window ~cadence ~bin
        ~emit:(fun e -> ests := e :: !ests)
        ()
    in
    let pos = ref 0 in
    while !pos < n do
      let len = Int.min (1 + Prng.Rng.int r 200) (n - !pos) in
      Core.Streaming.Window.push_slice win xs !pos len;
      pos := !pos + len
    done;
    List.rev !ests
  in
  List.iter
    (fun (kind, window, cadence) ->
      let ests = run kind window cadence in
      check_true "estimates emitted" (List.length ests > 4);
      List.iter
        (fun (e : Core.Streaming.Window.estimate) ->
          let lo = e.upto - e.covered in
          check_true "covered window" (lo >= 0 && e.upto <= n);
          let pyr = Timeseries.Pyramid.create () in
          Timeseries.Pyramid.push pyr (Array.sub xs lo e.covered);
          check_true "rate"
            (relative e.rate (Timeseries.Pyramid.mean pyr /. bin) < 1e-9);
          let levels = Core.Count_summary.ladder e.covered in
          if levels <> [] then begin
            let h = Lrd.Hurst.variance_time_of_pyramid ~levels pyr in
            check_true "H"
              (relative e.h.Lrd.Hurst.h h.Lrd.Hurst.h < 1e-9
              || (Float.is_nan e.h.Lrd.Hurst.h && Float.is_nan h.Lrd.Hurst.h))
          end)
        ests)
    [
      (Core.Streaming.Window.Sliding, 256, 64);
      (Core.Streaming.Window.Sliding, 128, 128);
      (Core.Streaming.Window.Tumbling, 256, 256);
    ]

(* Quiet windows and non-finite input through the CLI: a window with no
   events reports no H ("h":null, nan) and the run goes on; a window
   with no variation at some octave reports no wavelet H ("hw":null,
   n/a) instead of one fitted through a zero energy; non-finite stdin
   times and spec floats are rejected naming the value. *)
let test_cli_quiet_and_non_finite () =
  let serve_stdin text =
    let path = Filename.temp_file "wanpoisson" ".events" in
    Out_channel.with_open_bin path (fun oc -> output_string oc text);
    at_exit (fun () -> Sys.remove path);
    "serve --source stdin --bin 1 < " ^ Filename.quote path
  in
  check_cli_rows
    ([
       ( serve_stdin "1\n2\n1000000\n", 0,
         [ "\"h\":null"; "\"type\":\"summary\",\"bins\":1000001,\"events\":3" ] );
       ( serve_stdin "1\n2\n1000000\n", 0,
         [ "\"seq\":1,"; "\"hw\":null"; "\"seq\":15625,"; "\"hw\":null" ] );
       ( "farm --workers 1 --events 1 --rate 0.001 --bin 1 --seed 1", 0,
         [ "total-count   0"; "H(var-time)   nan"; "H(wavelet)    n/a" ] );
       ("stream --events 1e3 --bin 100", 0, [ "H(var-time)   nan" ]);
       ("stream --events 1e3 --bin 100 --materialized", 0, [ "H(var-time)   nan" ]);
       ("stream --events nan", 124, [ "stream: events must be finite" ]);
       ("stream --rate inf", 124, [ "stream: rate must be finite" ]);
       ("stream --bin nan", 124, [ "stream: bin must be finite" ]);
       ("stream --beta=-inf", 124, [ "stream: beta must be finite" ]);
     ]
    @ List.map
        (fun v ->
          ( serve_stdin ("1\n" ^ v ^ "\n"), 124,
            [ Printf.sprintf "serve: bad event time \"%s\"" v ] ))
        [ "nan"; "inf"; "-inf" ])

(* ---------------- sink combinators ---------------- *)

let test_sink_combinators () =
  let r = rng ~seed:21 () in
  let xs = Array.init 1000 (fun _ -> Prng.Rng.float r) in
  let round_trip =
    Timeseries.Sink.iter_array ~chunk:37 xs (Timeseries.Sink.to_array ())
  in
  check_true "to_array round trip" (round_trip = xs);
  check_int "length" 1000
    (Timeseries.Sink.iter_array ~chunk:64 xs (Timeseries.Sink.length ()));
  let total, n =
    Timeseries.Sink.iter_array ~chunk:100 xs
      (Timeseries.Sink.tee
         (Timeseries.Sink.fold ~init:0. ~f:(fun acc c ->
              Array.fold_left ( +. ) acc c))
         (Timeseries.Sink.length ()))
  in
  check_int "tee length" 1000 n;
  check_true "tee sum"
    (relative total (Array.fold_left ( +. ) 0. xs) < 1e-12)

(* Sink.counts must agree with Counts.of_events for any chunking of any
   sorted event stream. *)
let test_sink_counts_matches_of_events () =
  let r = rng ~seed:31 () in
  for _ = 1 to 60 do
    let n_events = 1 + Prng.Rng.int r 3000 in
    let span = 10. +. (90. *. Prng.Rng.float r) in
    let events =
      Array.init n_events (fun _ -> span *. Prng.Rng.float r)
    in
    Array.sort Float.compare events;
    let bin = 0.05 +. Prng.Rng.float r in
    let n_bins = int_of_float (Float.floor (span /. bin)) in
    if n_bins > 0 then begin
      let reference =
        Timeseries.Counts.of_events ~bin ~t_end:span events
      in
      let chunk = 1 + Prng.Rng.int r (n_bins + 8) in
      let got =
        Timeseries.Sink.iter_array
          ~chunk:(1 + Prng.Rng.int r (n_events + 8))
          events
          (Timeseries.Sink.counts ~bin ~n_bins ~chunk
             (Timeseries.Sink.to_array ()))
      in
      check_int "bins" (Array.length reference) (Array.length got);
      if got <> reference then Alcotest.fail "count series diverged"
    end
  done

let test_sink_counts_rejects_unsorted () =
  let sink =
    Timeseries.Sink.counts ~bin:1. ~n_bins:10 (Timeseries.Sink.to_array ())
  in
  Timeseries.Sink.push sink [| 1.; 2. |];
  Alcotest.check_raises "regressing time"
    (Invalid_argument
       "Sink.counts: event times must be non-decreasing (1.5 after 2)")
    (fun () -> Timeseries.Sink.push sink [| 1.5 |])

(* ---------------- streaming producers vs array wrappers ------------- *)

(* Reference copy of the pre-streaming list-based Poisson generator. *)
let reference_poisson ~rate ~duration rng =
  if rate = 0. then [||]
  else begin
    let out = ref [] in
    let t = ref 0. in
    let continue = ref true in
    while !continue do
      t := !t -. (log (Prng.Rng.float_pos rng) /. rate);
      if !t < duration then out := !t :: !out else continue := false
    done;
    Array.of_list (List.rev !out)
  end

let test_poisson_wrapper_identical () =
  List.iter
    (fun (rate, duration, seed) ->
      let a =
        Traffic.Poisson_proc.homogeneous ~rate ~duration
          (Prng.Rng.create seed)
      in
      let r2 = Prng.Rng.create seed in
      let b = reference_poisson ~rate ~duration r2 in
      check_true "events identical" (a = b);
      let r1 = Prng.Rng.create seed in
      ignore (Traffic.Poisson_proc.homogeneous ~rate ~duration r1);
      check_int "draw count" (Prng.Rng.draw_count r2) (Prng.Rng.draw_count r1))
    [ (50., 100., 1); (1000., 10., 2); (0., 5., 3); (3., 0.01, 4) ]

let test_poisson_chunking_invariant () =
  let collect chunk =
    let r = Prng.Rng.create 77 in
    let out = ref [] in
    Traffic.Poisson_proc.iter_chunks ~chunk ~rate:200. ~duration:50. r
      (fun c -> out := Array.copy c :: !out);
    Array.concat (List.rev !out)
  in
  let whole = collect max_int in
  List.iter
    (fun chunk -> check_true "chunked = whole" (collect chunk = whole))
    [ 1; 7; 64; 10000 ]

let test_pareto_wrapper_identical () =
  List.iter
    (fun (beta, bins, seed) ->
      let r1 = Prng.Rng.create seed and r2 = Prng.Rng.create seed in
      let a =
        Lrd.Pareto_count.count_process ~beta ~a:1. ~bin:10. ~bins r1
      in
      (* chunked consumer with an adversarial chunk size *)
      let out = ref [] in
      Lrd.Pareto_count.iter_count_chunks ~chunk:17 ~beta ~a:1. ~bin:10. ~bins
        r2 (fun c -> out := Array.copy c :: !out);
      let b = Array.concat (List.rev !out) in
      check_int "bins" bins (Array.length b);
      check_true "counts identical" (a = b);
      check_int "draw count" (Prng.Rng.draw_count r1) (Prng.Rng.draw_count r2))
    [ (1., 500, 9); (1.5, 1000, 10); (0.5, 200, 11) ]

(* Reference copy of the pre-streaming difference-array M/G/inf. *)
let reference_mg_inf ~rate ~service ~dt ~n ?warmup rng =
  let span = float_of_int n *. dt in
  let warmup = match warmup with Some w -> w | None -> span in
  let horizon = warmup +. span in
  let diff = Array.make (n + 1) 0 in
  let index_of time =
    let k = Float.ceil ((time -. warmup) /. dt) in
    int_of_float (Float.max 0. k)
  in
  let t = ref 0. in
  let continue = ref true in
  while !continue do
    t := !t -. (log (Prng.Rng.float_pos rng) /. rate);
    if !t >= horizon then continue := false
    else begin
      let s = service rng in
      let dep = !t +. s in
      if dep > warmup then begin
        let i0 = Int.min n (index_of !t) in
        let i1 = Int.min n (index_of dep) in
        if i1 > i0 then begin
          diff.(i0) <- diff.(i0) + 1;
          diff.(i1) <- diff.(i1) - 1
        end
      end
    end
  done;
  let out = Array.make n 0. in
  let acc = ref 0 in
  for k = 0 to n - 1 do
    acc := !acc + diff.(k);
    out.(k) <- float_of_int !acc
  done;
  out

let test_mg_inf_wrapper_identical () =
  List.iter
    (fun (rate, beta, n, seed) ->
      let service =
        Dist.Pareto.sample (Dist.Pareto.create ~location:0.5 ~shape:beta)
      in
      let r1 = Prng.Rng.create seed and r2 = Prng.Rng.create seed in
      let a = Traffic.Mg_inf.count_process ~rate ~service ~dt:1. ~n r1 in
      let b = reference_mg_inf ~rate ~service ~dt:1. ~n r2 in
      check_true "counts identical" (a = b);
      check_int "rng end state" (Prng.Rng.draw_count r2)
        (Prng.Rng.draw_count r1))
    [ (5., 1.5, 400, 13); (0.5, 1.2, 1000, 14); (20., 1.9, 100, 15) ]

let test_mg_inf_chunking_invariant () =
  let collect chunk =
    let service =
      Dist.Pareto.sample (Dist.Pareto.create ~location:1. ~shape:1.4)
    in
    let r = Prng.Rng.create 55 in
    let out = ref [] in
    Traffic.Mg_inf.iter_chunks ~chunk ~rate:3. ~service ~dt:0.5 ~n:700 r
      (fun c -> out := Array.copy c :: !out);
    Array.concat (List.rev !out)
  in
  let whole = collect max_int in
  List.iter
    (fun chunk -> check_true "chunked = whole" (collect chunk = whole))
    [ 1; 13; 700 ]

let test_onoff_chunking_invariant () =
  let sources =
    List.init 5 (fun i ->
        Traffic.Onoff.pareto_source ~beta:1.4
          ~mean_period:(2. +. float_of_int i)
          ~on_rate:20.)
  in
  let collect chunk =
    let r = Prng.Rng.create 303 in
    let out = ref [] in
    Traffic.Onoff.iter_chunks ~chunk ~sources ~dt:0.25 ~n:2000 r (fun c ->
        out := Array.copy c :: !out);
    Array.concat (List.rev !out)
  in
  let whole = collect 2000 in
  check_int "bins" 2000 (Array.length whole);
  check_true "some events" (Array.exists (fun c -> c > 0.) whole);
  List.iter
    (fun chunk -> check_true "chunked = whole" (collect chunk = whole))
    [ 1; 9; 512; 1999 ]

(* ---------------- R/S sink ---------------- *)

let test_rs_sink_matches_rescaled_range () =
  let r = rng ~seed:41 () in
  for _ = 1 to 10 do
    let n = 300 + Prng.Rng.int r 3000 in
    let xs = Array.init n (fun _ -> Prng.Rng.float r) in
    let reference = Lrd.Hurst.rescaled_range xs in
    let sink = Lrd.Hurst.rs_sink ~max_block:(n / 4) () in
    let chunk = 1 + Prng.Rng.int r 200 in
    let got = Timeseries.Sink.iter_array ~chunk xs sink in
    (* same blocks, same order, same arithmetic: exactly equal *)
    check_true "h" (got.Lrd.Hurst.h = reference.Lrd.Hurst.h);
    check_true "r2" (got.Lrd.Hurst.r2 = reference.Lrd.Hurst.r2)
  done

let test_rs_sink_bounded_memory_estimate () =
  (* On an i.i.d. series long enough that the bounded ladder still spans
     three decades, the capped sink lands near H = 1/2 like the full
     estimator. *)
  let r = rng ~seed:43 () in
  let xs = Array.init 60_000 (fun _ -> Prng.Rng.float r) in
  let capped =
    Timeseries.Sink.iter_array xs (Lrd.Hurst.rs_sink ~max_block:8192 ())
  in
  let full = Lrd.Hurst.rescaled_range xs in
  check_true "both near 1/2"
    (Float.abs (capped.Lrd.Hurst.h -. full.Lrd.Hurst.h) < 0.05)

(* ---------------- invalid-argument guards ---------------- *)

let test_invalid_argument_guards () =
  let raises name f =
    match f () with
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
    | exception Invalid_argument msg ->
      check_true (name ^ " names value") (String.length msg > 0)
  in
  raises "of_events bin" (fun () ->
      Timeseries.Counts.of_events ~bin:0. ~t_end:10. [| 1. |]);
  raises "of_events range" (fun () ->
      Timeseries.Counts.of_events ~bin:1. ~t_end:0. [| 1. |]);
  raises "aggregate m" (fun () -> Timeseries.Counts.aggregate [| 1.; 2. |] 0);
  raises "curve empty" (fun () -> Timeseries.Variance_time.curve [||]);
  raises "curve zero mean" (fun () ->
      Timeseries.Variance_time.curve (Array.make 100 0.));
  raises "curve_naive zero mean" (fun () ->
      Timeseries.Variance_time.curve_naive (Array.make 100 0.));
  raises "rescaled_range short" (fun () ->
      Lrd.Hurst.rescaled_range (Array.make 31 1.));
  raises "rs_sink max_block" (fun () -> Lrd.Hurst.rs_sink ~max_block:0 ());
  raises "sink push after finish" (fun () ->
      let s = Timeseries.Sink.length () in
      ignore (Timeseries.Sink.finish s);
      Timeseries.Sink.push s [| 1. |]);
  raises "sink double finish" (fun () ->
      let s = Timeseries.Sink.length () in
      ignore (Timeseries.Sink.finish s);
      ignore (Timeseries.Sink.finish s));
  raises "tee finish surfaces at inner node" (fun () ->
      let a = Timeseries.Sink.length () in
      ignore (Timeseries.Sink.finish a);
      ignore (Timeseries.Sink.finish (Timeseries.Sink.tee a (Timeseries.Sink.length ()))))

(* ---------------- the stream driver ---------------- *)

let run_stream spec =
  let r = Core.Streaming.run spec in
  let buf = Buffer.create 256 in
  let fmt = Format.formatter_of_buffer buf in
  Core.Streaming.pp fmt spec r;
  Format.pp_print_flush fmt ();
  (r, Buffer.contents buf)

let test_stream_jobs_deterministic () =
  let spec =
    { Core.Streaming.default with events = 2e5; rate = 500.; seed = 4242 }
  in
  let saved = Engine.Par.extra_domains () in
  Engine.Par.set_extra_domains 0;
  let _, seq = run_stream spec in
  Engine.Par.set_extra_domains 3;
  let _, par = run_stream spec in
  Engine.Par.set_extra_domains saved;
  check_true "byte-identical at any jobs" (String.equal seq par)

let test_stream_matches_materialized () =
  let spec =
    { Core.Streaming.default with events = 1e6; rate = 1000.; seed = 7 }
  in
  let streamed, _ = run_stream spec in
  let materialized, _ =
    run_stream { spec with Core.Streaming.materialized = true }
  in
  check_int "bins" materialized.Core.Streaming.bins
    streamed.Core.Streaming.bins;
  check_true "total"
    (streamed.Core.Streaming.total = materialized.Core.Streaming.total);
  (* same sample path + exact registered levels: equal, well inside the
     +/- 0.03 acceptance band *)
  check_true "H(vt) within 0.03"
    (Float.abs
       (streamed.Core.Streaming.h_vt.Lrd.Hurst.h
       -. materialized.Core.Streaming.h_vt.Lrd.Hurst.h)
     < 0.03);
  check_true "H(rs) within 0.03"
    (Float.abs
       (streamed.Core.Streaming.h_rs.Lrd.Hurst.h
       -. materialized.Core.Streaming.h_rs.Lrd.Hurst.h)
     < 0.03);
  check_true "pyramid chunked"
    (streamed.Core.Streaming.chunks > 0
    && streamed.Core.Streaming.resident < streamed.Core.Streaming.bins * 4)

let test_stream_chunk_memory () =
  (* Resident floats stay O(chunk + levels), far below the bin count. *)
  let spec =
    {
      Core.Streaming.default with
      events = 2e6;
      rate = 2.;
      bin = 0.1;
      chunk = 4096;
      seed = 12;
    }
  in
  let r, _ = run_stream spec in
  check_true "many bins" (r.Core.Streaming.bins >= 1_000_000);
  check_true "small resident"
    (r.Core.Streaming.resident < 12 * spec.Core.Streaming.chunk)

let suite =
  ( "stream",
    [
      tc "moments welford vs two-pass" test_moments_welford;
      tc "moments merge" test_moments_merge;
      tc "pyramid merge = batch (power-of-two shards)"
        test_pyramid_merge_matches_batch;
      tc "pyramid merge misalignment raises"
        test_pyramid_merge_misaligned_raises;
      tc "pyramid matches naive VT (220 random cases)"
        test_pyramid_matches_naive;
      tc "curve equals naive on default levels"
        test_curve_equals_naive_default_levels;
      tc "pyramid chunking sweep (pyrtest)" test_pyramid_chunking_sweep;
      tc "pyramid chunk edge cases" test_pyramid_chunk_edges;
      tc "pyramid resampled levels" test_pyramid_resampled_levels;
      tc "sliding window = batch over covered bins"
        test_window_sliding_matches_batch;
      tc "cli: quiet windows and non-finite input" test_cli_quiet_and_non_finite;
      tc "sink combinators" test_sink_combinators;
      tc "sink counts = Counts.of_events" test_sink_counts_matches_of_events;
      tc "sink counts rejects unsorted" test_sink_counts_rejects_unsorted;
      tc "poisson wrapper identical" test_poisson_wrapper_identical;
      tc "poisson chunking invariant" test_poisson_chunking_invariant;
      tc "pareto wrapper identical" test_pareto_wrapper_identical;
      tc "mg_inf wrapper identical" test_mg_inf_wrapper_identical;
      tc "mg_inf chunking invariant" test_mg_inf_chunking_invariant;
      tc "onoff chunking invariant" test_onoff_chunking_invariant;
      tc "rs sink = rescaled_range" test_rs_sink_matches_rescaled_range;
      tc "rs sink bounded-memory estimate"
        test_rs_sink_bounded_memory_estimate;
      tc "invalid-argument guards" test_invalid_argument_guards;
      tc "stream driver byte-identical across jobs"
        test_stream_jobs_deterministic;
      tc "stream = materialized (1e6 events)" test_stream_matches_materialized;
      tc "stream resident memory O(chunk)" test_stream_chunk_memory;
    ] )
