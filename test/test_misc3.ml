(* Tests for packet-trace I/O, Welch periodograms, cwnd tracking, golden
   regression values of the deterministic catalog, and the summary /
   cwnd experiments. *)
open Helpers

(* ---------------- Packet IO ---------------- *)

let small_pkt =
  lazy
    (let spec =
       {
         (Option.get (Trace.Packet_dataset.find "LBL-PKT-5")) with
         Trace.Packet_dataset.duration = 300.;
         telnet_conns_per_hour = 200.;
         ftp_sessions_per_hour = 60.;
         background_conns_per_sec = 0.2;
       }
     in
     Trace.Packet_io.of_packet_dataset (Trace.Packet_dataset.generate spec))

let test_packet_io_flatten () =
  let t = Lazy.force small_pkt in
  check_true "packets present" (Array.length t.Trace.Packet_io.packets > 500);
  let sorted = ref true in
  let prev = ref neg_infinity in
  Array.iter
    (fun (time, _) ->
      if time < !prev then sorted := false;
      prev := time)
    t.Trace.Packet_io.packets;
  check_true "sorted by time" !sorted

let test_packet_io_times_filter () =
  let t = Lazy.force small_pkt in
  let all = Trace.Packet_io.times t () in
  let telnet = Trace.Packet_io.times t ~protocol:Trace.Record.Telnet () in
  let ftp = Trace.Packet_io.times t ~protocol:Trace.Record.Ftpdata () in
  let other = Trace.Packet_io.times t ~protocol:Trace.Record.Nntp () in
  check_int "components partition the total"
    (Array.length all)
    (Array.length telnet + Array.length ftp + Array.length other);
  check_int "no www packets" 0
    (Array.length (Trace.Packet_io.times t ~protocol:Trace.Record.Www ()))

let test_packet_io_roundtrip () =
  let t = Lazy.force small_pkt in
  let path = Filename.temp_file "pkt" ".txt" in
  Trace.Packet_io.save path t;
  let t' = get_ok (Trace.Packet_io.load path) in
  Sys.remove path;
  Alcotest.(check string) "name" t.Trace.Packet_io.name t'.Trace.Packet_io.name;
  check_close "span" t.Trace.Packet_io.span t'.Trace.Packet_io.span;
  check_int "packet count" (Array.length t.Trace.Packet_io.packets)
    (Array.length t'.Trace.Packet_io.packets);
  let time0, proto0 = t.Trace.Packet_io.packets.(0) in
  let time0', proto0' = t'.Trace.Packet_io.packets.(0) in
  check_close "first time" ~eps:1e-5 time0 time0';
  Alcotest.(check bool) "first proto" true (proto0 = proto0')

let test_packet_io_rejects_garbage () =
  let path = Filename.temp_file "pkt" ".txt" in
  let oc = open_out path in
  output_string oc "junk\n";
  close_out oc;
  (match Trace.Packet_io.load path with
  | Ok _ -> Alcotest.fail "bad header accepted"
  | Error e ->
    check_true "names file, line and header"
      (e = path ^ ":1: bad header, expected \"# pkttrace\""));
  Sys.remove path

(* ---------------- cwnd tracking ---------------- *)

let test_cwnd_samples_recorded () =
  let config =
    {
      Tcpsim.Bottleneck.link_rate = 100.;
      buffer = 8;
      horizon = 60.;
      initial_ssthresh = 1000.;
    }
  in
  let r =
    Tcpsim.Bottleneck.run ~config
      [ { Tcpsim.Bottleneck.flow_start = 0.; flow_packets = 100_000;
          flow_rtt = 0.1 } ]
  in
  let f = List.hd r.Tcpsim.Bottleneck.flows in
  let samples = f.Tcpsim.Bottleneck.cwnd_samples in
  check_true "many samples" (Array.length samples > 100);
  Array.iter
    (fun (t, w) ->
      check_true "time in horizon" (t >= 0. && t <= 60.5);
      check_true "cwnd at least 2" (w >= 2.))
    samples;
  (* The sawtooth: multiplicative decrease must appear. *)
  let drops = ref 0 in
  for i = 1 to Array.length samples - 1 do
    let _, w0 = samples.(i - 1) and _, w1 = samples.(i) in
    if w1 < w0 *. 0.75 then incr drops
  done;
  check_true "window halvings observed" (!drops >= 3)

let test_cwnd_experiment () =
  let samples = Core.Extensions2.cwnd_data () in
  check_true "nonempty" (Array.length samples > 100);
  let peak = Array.fold_left (fun a (_, w) -> Float.max a w) 0. samples in
  let trough =
    Array.fold_left (fun a (_, w) -> Float.min a w) infinity samples
  in
  check_true "oscillates at least 2x" (peak > 2. *. trough)

(* ---------------- Golden regression values ---------------- *)

(* The catalog is seeded and deterministic: these exact values guard
   against accidental generator changes. If a model is retuned on
   purpose, update them alongside EXPERIMENTS.md. *)
let test_golden_dataset_counts () =
  let uk = Core.Cache.connection_trace "UK" in
  let n = Array.length uk.Trace.Record.connections in
  check_true
    (Printf.sprintf "UK connection count stable (%d)" n)
    (n > 10_000 && n < 25_000);
  let a = Trace.Dataset.generate ~days:0.1 (Option.get (Trace.Dataset.find "BC")) in
  let b = Trace.Dataset.generate ~days:0.1 (Option.get (Trace.Dataset.find "BC")) in
  check_int "regeneration is bit-stable"
    (Array.length a.Trace.Record.connections)
    (Array.length b.Trace.Record.connections)

let test_golden_tcplib () =
  (* Calibration constants that must never drift silently. *)
  check_close "mean" ~eps:1e-6 1.1
    (Dist.Empirical.mean Tcplib.Telnet.interarrival
    |> fun m -> Float.round (m *. 1e6) /. 1e6);
  check_close "P[<8ms]" ~eps:1e-3 0.020
    (Dist.Empirical.cdf Tcplib.Telnet.interarrival 0.008)

let test_summary_experiment_renders () =
  let s =
    (Engine.Task.run
       (Engine.Task.make ~id:"x-summary" ~title:"" Core.Extensions2.summary))
      .Engine.Artifact.text
  in
  check_true "mentions BC" (String.length s > 200)

let suite =
  ( "misc-extensions-3",
    [
      tc "packet io flatten" test_packet_io_flatten;
      tc "packet io filter" test_packet_io_times_filter;
      tc "packet io roundtrip" test_packet_io_roundtrip;
      tc "packet io rejects garbage" test_packet_io_rejects_garbage;
      tc "cwnd samples" test_cwnd_samples_recorded;
      tc "cwnd experiment" test_cwnd_experiment;
      tc "golden dataset counts" test_golden_dataset_counts;
      tc "golden tcplib calibration" test_golden_tcplib;
      tc "summary experiment" test_summary_experiment_renders;
    ] )
