(* PR 7: the multi-process trace farm — binary frame codec, pyramid
   snapshot wire format, and the sharded coordinator/worker drivers. *)

open Helpers

let bits = Int64.bits_of_float

let check_float_exact name a b =
  check_true name (bits a = bits b)

(* ---------------- Engine.Frame ---------------- *)

let test_frame_roundtrip_prop =
  prop ~count:300 "frame round-trip"
    QCheck.(pair (int_bound 255) string)
    (fun (kind, payload) ->
      let s = Engine.Frame.encode { Engine.Frame.kind; payload } in
      String.length s = String.length payload + Engine.Frame.overhead
      &&
      match Engine.Frame.decode s 0 with
      | Ok (f, pos) ->
        f.Engine.Frame.kind = kind
        && f.Engine.Frame.payload = payload
        && pos = String.length s
      | Error _ -> false)

let test_frame_stream_decode () =
  (* Concatenated frames decode sequentially, each handing back the
     offset of the next. *)
  let frames =
    List.map
      (fun (kind, payload) -> { Engine.Frame.kind; payload })
      [ (1, "alpha"); (2, ""); (255, String.make 1000 '\xee') ]
  in
  let s = String.concat "" (List.map Engine.Frame.encode frames) in
  let rec go pos acc =
    if pos = String.length s then List.rev acc
    else
      match Engine.Frame.decode s pos with
      | Ok (f, next) -> go next (f :: acc)
      | Error e -> Alcotest.fail (Engine.Frame.error_to_string e)
  in
  check_true "all frames recovered" (go 0 [] = frames)

let test_frame_truncation () =
  let s = Engine.Frame.encode { Engine.Frame.kind = 7; payload = "payload" } in
  for len = 0 to String.length s - 1 do
    match Engine.Frame.decode (String.sub s 0 len) 0 with
    | Error Engine.Frame.Truncated -> ()
    | Ok _ -> Alcotest.failf "prefix of %d bytes decoded" len
    | Error e ->
      Alcotest.failf "prefix of %d bytes: %s" len
        (Engine.Frame.error_to_string e)
  done

let test_frame_corruption () =
  let s = Engine.Frame.encode { Engine.Frame.kind = 7; payload = "payload" } in
  let flip pos =
    let b = Bytes.of_string s in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x01));
    Bytes.to_string b
  in
  (match Engine.Frame.decode (flip 0) 0 with
  | Error Engine.Frame.Bad_magic -> ()
  | _ -> Alcotest.fail "corrupt magic accepted");
  (match Engine.Frame.decode (flip 2) 0 with
  | Error (Engine.Frame.Unsupported_version _) -> ()
  | _ -> Alcotest.fail "corrupt version accepted");
  (* Kind, payload and trailer corruption all land on the checksum. *)
  List.iter
    (fun pos ->
      match Engine.Frame.decode (flip pos) 0 with
      | Error Engine.Frame.Bad_checksum -> ()
      | _ -> Alcotest.failf "corrupt byte %d accepted" pos)
    [ 3; 8; 14; String.length s - 1 ]

let test_frame_oversized () =
  (* A length field past max_payload is rejected before allocating. *)
  let s = Engine.Frame.encode { Engine.Frame.kind = 1; payload = "x" } in
  let b = Bytes.of_string s in
  Bytes.set_int32_le b 4 0x7fffffffl;
  match Engine.Frame.decode (Bytes.to_string b) 0 with
  | Error (Engine.Frame.Oversized _) -> ()
  | _ -> Alcotest.fail "oversized length accepted"

let test_frame_read_channel () =
  let path = Filename.temp_file "frame" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let f1 = { Engine.Frame.kind = 1; payload = "one" } in
      let f2 = { Engine.Frame.kind = 2; payload = String.make 300 'z' } in
      let oc = open_out_bin path in
      output_string oc (Engine.Frame.encode f1);
      output_string oc (Engine.Frame.encode f2);
      close_out oc;
      let ic = open_in_bin path in
      check_true "first" (Engine.Frame.read ic = Ok (Some f1));
      check_true "second" (Engine.Frame.read ic = Ok (Some f2));
      check_true "clean EOF" (Engine.Frame.read ic = Ok None);
      close_in ic;
      (* Truncate mid-frame: EOF inside a frame is a hard error, never
         a clean end of stream. *)
      let all = Engine.Frame.encode f1 ^ Engine.Frame.encode f2 in
      let oc = open_out_bin path in
      output_string oc (String.sub all 0 (String.length all - 5));
      close_out oc;
      let ic = open_in_bin path in
      check_true "first again" (Engine.Frame.read ic = Ok (Some f1));
      check_true "truncated tail"
        (Engine.Frame.read ic = Error Engine.Frame.Truncated);
      close_in ic)

(* ---------------- pyramid snapshot codec ---------------- *)

let random_snapshot seed =
  let r = rng ~seed () in
  let pyr = Timeseries.Pyramid.create () in
  for _ = 1 to 1 + Prng.Rng.int r 6 do
    let n = 1 + Prng.Rng.int r 700 in
    Timeseries.Pyramid.push pyr
      (Array.init n (fun _ -> 10. *. Prng.Rng.float r))
  done;
  Timeseries.Pyramid.snapshot pyr

let test_snapshot_codec_roundtrip () =
  for seed = 1 to 30 do
    let s = random_snapshot seed in
    let wire = Timeseries.Pyramid.snapshot_to_string s in
    match Timeseries.Pyramid.snapshot_of_string wire with
    | Error e -> Alcotest.fail e
    | Ok s' ->
      (* Bit-exact round trip: re-serialization is byte-identical. *)
      check_true "round-trip bytes"
        (Timeseries.Pyramid.snapshot_to_string s' = wire)
  done

let test_snapshot_codec_merge_equals_inprocess () =
  (* Merging a round-tripped snapshot behaves bit-for-bit like merging
     the original: the farm's coordinator path = the in-process path. *)
  let r = rng ~seed:99 () in
  for _ = 1 to 20 do
    let n = 512 lsl Prng.Rng.int r 3 in
    let xs = Array.init (2 * n) (fun _ -> 5. +. Prng.Rng.float r) in
    let part lo len =
      let pyr = Timeseries.Pyramid.create () in
      Timeseries.Pyramid.push pyr (Array.sub xs lo len);
      Timeseries.Pyramid.snapshot pyr
    in
    let a = part 0 n and b = part n n in
    let through_wire s =
      match
        Timeseries.Pyramid.snapshot_of_string
          (Timeseries.Pyramid.snapshot_to_string s)
      with
      | Ok s -> s
      | Error e -> Alcotest.fail e
    in
    let direct = Timeseries.Pyramid.merge a b in
    let wired = Timeseries.Pyramid.merge (through_wire a) (through_wire b) in
    check_true "wire merge = in-process merge"
      (Timeseries.Pyramid.snapshot_to_string wired
      = Timeseries.Pyramid.snapshot_to_string direct)
  done

let test_snapshot_codec_rejects () =
  let wire = Timeseries.Pyramid.snapshot_to_string (random_snapshot 5) in
  (* Every strict prefix is rejected, never accepted or fatal. *)
  for len = 0 to String.length wire - 1 do
    match Timeseries.Pyramid.snapshot_of_string (String.sub wire 0 len) with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "prefix of %d bytes accepted" len
  done;
  (match Timeseries.Pyramid.snapshot_of_string (wire ^ "\x00") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing garbage accepted");
  let bad_version = Bytes.of_string wire in
  Bytes.set bad_version 0 '\x63';
  match Timeseries.Pyramid.snapshot_of_string (Bytes.to_string bad_version) with
  | Error e -> check_true "names the version" (String.length e > 0)
  | Ok _ -> Alcotest.fail "unknown codec version accepted"

(* ---------------- Core.Count_summary ---------------- *)

let summary_of xs pos len =
  let s = Core.Count_summary.create () in
  Core.Count_summary.push_slice s xs pos len;
  s

(* Everything the read-out prints. The event total, the tail (alpha),
   the sketch (quantiles) and the wavelet octave energies merge exactly,
   so those compare as raw float bits; the pyramid's moment accumulators
   merge with merge-order rounding (see Timeseries.Pyramid), so the mean
   and the variance-time fit compare to 1e-12 relative. *)
let readout s =
  let pyr = Core.Count_summary.pyramid s in
  let h = Core.Count_summary.h_vt s in
  let hw =
    match Core.Count_summary.wavelet pyr with
    | Some w -> [ w.Lrd.Wavelet.h; w.Lrd.Wavelet.slope; w.Lrd.Wavelet.stderr_h ]
    | None -> []
  in
  ( List.map bits
      ((Core.Count_summary.total s :: Core.Count_summary.alpha s :: hw)
      @ Stats.Quantile_sketch.quantiles (Core.Count_summary.sketch s)
          [ 0.; 0.5; 0.9; 0.99; 0.999; 1. ]),
    [ Timeseries.Pyramid.mean pyr; h.Lrd.Hurst.h; h.Lrd.Hurst.slope; h.Lrd.Hurst.r2 ] )

let same_readout a b =
  let exact_a, near_a = readout a and exact_b, near_b = readout b in
  exact_a = exact_b
  && List.for_all2
       (fun x y ->
         (Float.is_nan x && Float.is_nan y)
         || Float.abs (x -. y) <= 1e-12 *. Float.max 1. (Float.abs y))
       near_a near_b

(* (seed, n, e): n random counts — a heavy-ish upper tail, quiet
   stretches — cut into runs of 2^e bins, the farm's shard layout. *)
let count_series_gen =
  QCheck.(triple (int_bound 10_000) (int_range 1 3000) (int_range 0 9))

let counts_of (seed, n, _) =
  let r = rng ~seed () in
  Array.init n (fun i ->
      if i mod 97 < 20 then 0.
      else Float.round (8. *. Prng.Rng.float r ** 3. *. (1. +. Prng.Rng.float r)))

let test_summary_absorb_equals_whole =
  prop ~count:300 "summary: in-order absorb of parts = summary of the whole"
    count_series_gen (fun ((_, n, e) as g) ->
      let xs = counts_of g and run = 1 lsl e in
      let merged = Core.Count_summary.create () in
      let pos = ref 0 in
      while !pos < n do
        let len = Int.min run (n - !pos) in
        Core.Count_summary.absorb merged
          (Core.Count_summary.part (summary_of xs !pos len));
        pos := !pos + len
      done;
      same_readout merged (summary_of xs 0 n))

let test_summary_codec_roundtrip =
  prop ~count:200 "summary: part codec round-trips" count_series_gen
    (fun ((_, n, _) as g) ->
      let s = summary_of (counts_of g) 0 n in
      let wire = Core.Count_summary.encode (Core.Count_summary.part s) in
      match Core.Count_summary.decode wire with
      | Error _ -> false
      | Ok p ->
        let s' = Core.Count_summary.create () in
        Core.Count_summary.absorb s' p;
        Core.Count_summary.encode p = wire && same_readout s' s)

let test_summary_codec_rejects () =
  let xs = counts_of (3, 500, 64) in
  let wire = Core.Count_summary.encode (Core.Count_summary.part (summary_of xs 0 500)) in
  let rejected what bytes =
    match Core.Count_summary.decode bytes with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s accepted" what
  in
  for len = 0 to String.length wire - 1 do
    rejected (Printf.sprintf "prefix of %d bytes" len) (String.sub wire 0 len)
  done;
  rejected "trailing garbage" (wire ^ "\x00");
  let corrupt off c =
    let b = Bytes.of_string wire in
    Bytes.set b off c;
    Bytes.to_string b
  in
  (* Event total (8 bytes), tail length (4), 64 tail values, snapshot
     length (2), then the snapshot's codec version byte. *)
  rejected "huge tail length" (corrupt 11 '\x7f');
  rejected "unknown snapshot version" (corrupt (8 + 4 + (64 * 8) + 2) '\x63')

(* An all-zero run has no trustworthy H: no estimate, not an exception. *)
let test_summary_quiet_run () =
  let s = summary_of (Array.make 4096 0.) 0 4096 in
  let h = Core.Count_summary.h_vt s in
  check_true "no H" (Float.is_nan h.Lrd.Hurst.h && Float.is_nan h.Lrd.Hurst.r2);
  check_true "no alpha" (Float.is_nan (Core.Count_summary.alpha s));
  check_true "ladder below 3 levels is empty" (Core.Count_summary.ladder 31 = []);
  Alcotest.(check (list int)) "ladder" [ 1; 2; 4 ] (Core.Count_summary.ladder 32)

(* ---------------- Core.Farm ---------------- *)

(* Small spec with several macro-shards: 100 bins, gen_bins = 8,
   macro_bins = 8 -> 13 shards. *)
let small_spec =
  { Core.Farm.default with
    events = 1e5;
    chunk = 8192;
    shards = 16 }

(* Merged summaries are equal when their states encode to the same
   bytes: every float of the pyramid, tail and sketch, bit for bit. *)
let check_result_equal a b =
  let wire s = Core.Count_summary.encode (Core.Count_summary.part s) in
  check_true "merged summaries bit-identical" (wire a = wire b)

let test_plan () =
  let p = Core.Farm.plan small_spec in
  check_int "bins" 100 p.Core.Farm.n_bins;
  check_int "gen bins" 8 p.Core.Farm.gen_bins;
  check_int "macro bins" 8 p.Core.Farm.macro_bins;
  check_int "macro count" 13 p.Core.Farm.n_macro;
  (* The grid depends on the spec only — never on the worker count. *)
  let p64 = Core.Farm.plan { small_spec with workers = 64 } in
  check_true "worker-count independent" (p = p64);
  List.iter
    (fun model ->
      match Core.Farm.plan { small_spec with model } with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "model %s accepted" model)
    [ "pareto"; "mginf"; "onoff"; "nonsense" ]

let test_inline_deterministic () =
  let a = Core.Farm.run_inline small_spec in
  let b = Core.Farm.run_inline small_spec in
  check_result_equal a b;
  (* Sanity of the read-outs for a Poisson stream: total within 2% of
     the expectation, mean/bin near rate * bin, H near 1/2. *)
  let pyr = Core.Count_summary.pyramid a in
  let h = (Core.Count_summary.h_vt a).Lrd.Hurst.h in
  check_true "total sane" (Float.abs (Core.Count_summary.total a -. 1e5) < 2e3);
  check_true "mean sane" (Float.abs (Timeseries.Pyramid.mean pyr -. 1000.) < 20.);
  check_true "H sane" (h > 0.2 && h < 0.8);
  check_true "wavelet read-out present" (Core.Count_summary.wavelet pyr <> None);
  check_true "alpha positive" (Core.Count_summary.alpha a > 0.)

let test_farm_process_equals_inline () =
  let inline = Core.Farm.run_inline small_spec in
  List.iter
    (fun workers ->
      match
        Core.Farm.run ~exe:wanpoisson_exe { small_spec with workers }
      with
      | Error e -> Alcotest.failf "workers=%d: %s" workers e
      | Ok (r, _obs) -> check_result_equal inline r)
    [ 1; 2; 5 ]

let test_farm_crash_detected () =
  match
    Core.Farm.run ~exe:wanpoisson_exe
      ~opts:{ Engine.Job.default_opts with inject_crash = 1 }
      { small_spec with workers = 3 }
  with
  | Ok _ -> Alcotest.fail "crashed worker went unnoticed"
  | Error e ->
    let mentions needle =
      let rec go i =
        i + String.length needle <= String.length e
        && (String.sub e i (String.length needle) = needle || go (i + 1))
      in
      go 0
    in
    check_true "names the worker" (mentions "worker 1");
    check_true "names the signal" (mentions "SIGKILL")

(* ---------------- observability frames (PR 9) ---------------- *)

let sample_telemetry_events =
  [
    {
      Engine.Telemetry.ev_name = "shard";
      ev_task = Some "farm";
      ev_domain = 0;
      ev_start_us = 12.5;
      ev_dur_us = 340.25;
    };
    {
      Engine.Telemetry.ev_name = "gen";
      ev_task = None;
      ev_domain = 1;
      ev_start_us = 400.;
      ev_dur_us = 0.;
    };
  ]

let sample_log_events =
  [
    {
      Engine.Log.seq = 3;
      t_us = 99.5;
      ev_level = Engine.Log.Warn;
      ev_name = "farm.slow_shard";
      ev_task = Some "farm";
      ev_domain = 0;
      fields = [ ("shard", Engine.Log.I 7); ("s", Engine.Log.F 1.25) ];
    };
  ]

let sample_heartbeat =
  {
    Engine.Obs_frame.hb_index = 2;
    hb_events = 51200;
    hb_shards = 3;
    hb_rate = 1.25e6;
    hb_rss_kb = -1;
  }

let obs_frames () =
  [
    Engine.Obs_frame.telemetry_frame ~index:3 ~epoch_unix_s:1722.5
      sample_telemetry_events;
    Engine.Obs_frame.logs_frame ~index:1 sample_log_events;
    Engine.Obs_frame.heartbeat_frame sample_heartbeat;
  ]

let test_obs_frame_roundtrip () =
  let check_kind f k = check_int "kind" k f.Engine.Frame.kind in
  (match obs_frames () with
  | [ tf; lf; hf ] ->
    check_kind tf Engine.Obs_frame.kind_telemetry;
    check_kind lf Engine.Obs_frame.kind_logs;
    check_kind hf Engine.Obs_frame.kind_heartbeat;
    List.iter
      (fun f -> check_true "is_obs" (Engine.Obs_frame.is_obs f))
      [ tf; lf; hf ];
    check_true "heartbeat predicate" (Engine.Obs_frame.is_heartbeat hf);
    check_true "telemetry not heartbeat"
      (not (Engine.Obs_frame.is_heartbeat tf));
    (match Engine.Obs_frame.decode tf with
    | Ok (Engine.Obs_frame.Telemetry (i, epoch, evs)) ->
      check_int "telemetry index" 3 i;
      check_float_exact "telemetry epoch" 1722.5 epoch;
      check_true "span table survives" (evs = sample_telemetry_events)
    | _ -> Alcotest.fail "telemetry decode");
    (match Engine.Obs_frame.decode lf with
    | Ok (Engine.Obs_frame.Logs (i, evs)) ->
      check_int "logs index" 1 i;
      check_true "log events survive" (evs = sample_log_events)
    | _ -> Alcotest.fail "logs decode");
    (match Engine.Obs_frame.decode hf with
    | Ok (Engine.Obs_frame.Heartbeat hb) ->
      check_true "heartbeat survives" (hb = sample_heartbeat)
    | _ -> Alcotest.fail "heartbeat decode")
  | _ -> assert false);
  (* Analysis kinds are not obs frames and never decode as one. *)
  let analysis = { Engine.Frame.kind = 1; payload = "x" } in
  check_true "analysis not obs" (not (Engine.Obs_frame.is_obs analysis));
  match Engine.Obs_frame.decode analysis with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "analysis frame decoded as obs"

let test_obs_frame_corruption () =
  (* Per-byte corruption of each encoded obs frame: every single-bit
     flip must be caught (magic/version/length checks or the SHA-256
     trailer) — never decode to an Ok frame. *)
  List.iter
    (fun f ->
      let s = Engine.Frame.encode f in
      for pos = 0 to String.length s - 1 do
        let b = Bytes.of_string s in
        Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x01));
        match Engine.Frame.decode (Bytes.to_string b) 0 with
        | Error _ -> ()
        | Ok _ -> Alcotest.failf "kind %d: corrupt byte %d accepted"
                    f.Engine.Frame.kind pos
      done)
    (obs_frames ())

let test_farm_stall_detected () =
  match
    Core.Farm.run ~exe:wanpoisson_exe
      ~opts:
        { Engine.Job.default_opts with inject_stall = 1; stall_timeout_s = 0.8 }
      { small_spec with workers = 2 }
  with
  | Ok _ -> Alcotest.fail "stalled worker went unnoticed"
  | Error e ->
    let mentions needle =
      let rec go i =
        i + String.length needle <= String.length e
        && (String.sub e i (String.length needle) = needle || go (i + 1))
      in
      go 0
    in
    check_true "names the worker" (mentions "worker 1");
    check_true "calls it stalled" (mentions "stalled")

(* The heartbeat period derives from the deadline (min 1 s, deadline/4),
   so a healthy worker whose single shard outlasts the deadline many
   times over still beats in time and completes. *)
let test_farm_long_shard_completes () =
  let deadline = 0.4 in
  check_float_exact "period = deadline / 4" (deadline /. 4.)
    (Engine.Job.heartbeat_period
       { Engine.Job.default_opts with stall_timeout_s = deadline });
  check_float_exact "period capped at 1 s" 1.
    (Engine.Job.heartbeat_period Engine.Job.default_opts);
  check_float_exact "period 1 s with the deadline off" 1.
    (Engine.Job.heartbeat_period
       { Engine.Job.default_opts with stall_timeout_s = 0. });
  let spec =
    { Core.Farm.default with events = 2e7; rate = 1e5; chunk = 8192; shards = 1 }
  in
  match
    Core.Farm.run ~exe:wanpoisson_exe
      ~opts:{ Engine.Job.default_opts with stall_timeout_s = deadline }
      spec
  with
  | Error e -> Alcotest.fail e
  | Ok (r, obs) ->
    check_int "one shard" 1 (Core.Farm.plan spec).n_macro;
    List.iter
      (fun (w : Engine.Manifest.worker_entry) ->
        check_true
          (Printf.sprintf "shard ran %.2f s, past the %.2f s deadline"
             w.wk_wall_s deadline)
          (w.wk_wall_s > deadline))
      obs.Engine.Job.o_workers;
    check_result_equal (Core.Farm.run_inline spec) r

(* Every float field x {nan, inf, -inf} is rejected by [plan] — before
   any worker spawns — with a message naming the field. *)
let test_farm_rejects_non_finite () =
  List.iter
    (fun (field, set) ->
      List.iter
        (fun v ->
          check_invalid_arg_mentions
            (Printf.sprintf "%s = %g" field v)
            field
            (fun () -> Core.Farm.plan (set small_spec v)))
        [ nan; infinity; neg_infinity ])
    [
      ("events", fun s v -> { s with Core.Farm.events = v });
      ("rate", fun s v -> { s with Core.Farm.rate = v });
      ("bin", fun s v -> { s with Core.Farm.bin = v });
    ]

let spec_gen =
  QCheck.(
    map
      (fun ((events, rate, bin), (chunk, seed, workers), shards) ->
        { Core.Farm.default with events; rate; bin; chunk; seed; workers; shards })
      (triple
         (triple (float_range 1. 1e9) (float_range 1e-3 1e6) (float_range 1e-6 1e3))
         (triple (int_range 1 1_000_000) int (int_range 1 64))
         (int_range 1 4096)))

let test_farm_spec_json_roundtrip =
  prop ~count:500 "farm spec -> JSON -> spec is the identity" spec_gen (fun spec ->
      QCheck.assume
        (match Core.Farm.plan spec with _ -> true | exception Invalid_argument _ -> false);
      let job = Core.Farm.job in
      match Engine.Json.parse (Engine.Json.to_string (job.spec_to_json spec)) with
      | Error _ -> false
      | Ok j -> job.spec_of_json j = Ok spec)

let test_farm_trace_merge () =
  Engine.Telemetry.set_enabled true;
  Engine.Telemetry.reset ();
  Fun.protect
    ~finally:(fun () ->
      Engine.Telemetry.reset ();
      Engine.Telemetry.set_enabled false)
    (fun () ->
      match
        Core.Farm.run ~exe:wanpoisson_exe
          ~opts:{ Engine.Job.default_opts with trace = true; metrics = true }
          { small_spec with workers = 3 }
      with
      | Error e -> Alcotest.fail e
      | Ok (_, obs) ->
        check_int "one span table per worker" 3
          (List.length obs.Engine.Job.o_spans);
        check_int "one counter rollup per worker" 3
          (List.length obs.Engine.Job.o_counters);
        check_int "one report per worker" 3
          (List.length obs.Engine.Job.o_workers);
        List.iter
          (fun (w : Engine.Manifest.worker_entry) ->
            check_true "worker exited cleanly" (w.wk_status = "exited 0");
            check_true "worker counted events" (w.wk_events > 0);
            check_true "worker ran shards" (w.wk_shards > 0))
          obs.Engine.Job.o_workers;
        let lanes = Engine.Job.trace_processes obs in
        check_int "coordinator + one lane per worker" 4 (List.length lanes);
        check_true "coordinator lane first"
          ((List.hd lanes).Engine.Telemetry.pr_label = "coordinator");
        List.iteri
          (fun i (p : Engine.Telemetry.process) ->
            if i > 0 then begin
              check_true "worker lane label"
                (p.pr_label = Printf.sprintf "worker %d" (i - 1));
              check_true "worker lane has spans" (p.pr_events <> [])
            end)
          lanes;
        let json = Engine.Telemetry.to_chrome_trace_multi lanes in
        let count c =
          String.fold_left (fun n ch -> if ch = c then n + 1 else n) 0 json
        in
        check_int "balanced braces" (count '{') (count '}');
        check_int "balanced brackets" (count '[') (count ']');
        let has needle =
          let rec go i =
            i + String.length needle <= String.length json
            && (String.sub json i (String.length needle) = needle
               || go (i + 1))
          in
          go 0
        in
        check_true "trace names worker 2" (has "\"worker 2\"");
        check_true "trace names the coordinator" (has "\"coordinator\""))

let test_manifest_farm_workers () =
  let rows =
    [
      {
        Engine.Manifest.wk_index = 0;
        wk_status = "exited 0";
        wk_events = 50000;
        wk_shards = 7;
        wk_wall_s = 1.5;
        wk_rss_kb = 20480;
        wk_stalled = false;
      };
      {
        Engine.Manifest.wk_index = 1;
        wk_status = "killed by SIGKILL";
        wk_events = 0;
        wk_shards = 0;
        wk_wall_s = 0.25;
        wk_rss_kb = -1;
        wk_stalled = true;
      };
    ]
  in
  let m =
    Engine.Manifest.of_run ~farm_workers:rows ~created_at:0. ~seed:1 ~jobs:2
      ~total_s:0.5 []
  in
  (match Engine.Manifest.parse (Engine.Manifest.to_string m) with
  | Error e -> Alcotest.fail e
  | Ok m' ->
    check_true "worker rows survive the round-trip"
      (m'.Engine.Manifest.farm_workers = rows));
  (* A manifest without farm rows omits the key entirely, so pre-farm
     consumers (and manifests) interoperate. *)
  let plain =
    Engine.Manifest.of_run ~created_at:0. ~seed:1 ~jobs:2 ~total_s:0.5 []
  in
  let text = Engine.Manifest.to_string plain in
  let has needle =
    let rec go i =
      i + String.length needle <= String.length text
      && (String.sub text i (String.length needle) = needle || go (i + 1))
    in
    go 0
  in
  check_true "no farm_workers key when empty" (not (has "farm_workers"));
  (match Engine.Manifest.parse text with
  | Error e -> Alcotest.fail e
  | Ok p -> check_true "parses to empty" (p.Engine.Manifest.farm_workers = []));
  (* Worker placement differing is provenance, never divergence. *)
  let d = Engine.Manifest.compare_manifests m plain in
  check_true "still identical" d.Engine.Manifest.identical;
  check_true "noted as benign"
    (List.exists
       (fun n ->
         String.length n >= 12 && String.sub n 0 12 = "farm workers")
       d.Engine.Manifest.notes)

let suite =
  ( "farm",
    [
      test_frame_roundtrip_prop;
      tc "frame stream decode" test_frame_stream_decode;
      tc "frame truncation rejected" test_frame_truncation;
      tc "frame corruption rejected" test_frame_corruption;
      tc "frame oversized rejected" test_frame_oversized;
      tc "frame channel read" test_frame_read_channel;
      tc "snapshot codec round-trip" test_snapshot_codec_roundtrip;
      tc "snapshot wire merge = in-process merge"
        test_snapshot_codec_merge_equals_inprocess;
      tc "snapshot codec rejects malformed input" test_snapshot_codec_rejects;
      test_summary_absorb_equals_whole;
      test_summary_codec_roundtrip;
      tc "summary codec rejects malformed input" test_summary_codec_rejects;
      tc "summary of a quiet run: no estimate" test_summary_quiet_run;
      tc "plan: fixed grid, poisson-only" test_plan;
      tc "run_inline deterministic + sane" test_inline_deterministic;
      tc "farm processes = inline (workers 1/2/5)"
        test_farm_process_equals_inline;
      tc "killed worker detected" test_farm_crash_detected;
      tc "obs frame round-trip (kinds 16/17/18)" test_obs_frame_roundtrip;
      tc "obs frame per-byte corruption rejected" test_obs_frame_corruption;
      tc "stalled worker detected via heartbeats" test_farm_stall_detected;
      tc "shard longer than the deadline completes"
        test_farm_long_shard_completes;
      tc "non-finite spec floats rejected" test_farm_rejects_non_finite;
      test_farm_spec_json_roundtrip;
      tc "merged trace: one lane per worker" test_farm_trace_merge;
      tc "manifest farm worker rows" test_manifest_farm_workers;
    ] )
