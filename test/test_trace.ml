open Helpers
open Trace

let conn ?(proto = Record.Ftpdata) ?(session = 0) start duration bytes =
  {
    Record.start;
    duration;
    protocol = proto;
    bytes;
    session_id = session;
  }

(* ---------------- Record ---------------- *)

let test_protocol_roundtrip () =
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Record.protocol_to_string p)
        true
        (Record.protocol_of_string (Record.protocol_to_string p) = Some p))
    Record.all_protocols;
  Alcotest.(check bool) "unknown" true (Record.protocol_of_string "bogus" = None)

let test_create_sorts () =
  let t =
    Record.create ~name:"t" ~span:10.
      [ conn 5. 1. 10.; conn 1. 1. 10.; conn 3. 1. 10. ]
  in
  check_close "first" 1. t.Record.connections.(0).Record.start;
  check_close "last" 5. t.Record.connections.(2).Record.start

let test_filter_count () =
  let t =
    Record.create ~name:"t" ~span:10.
      [
        conn ~proto:Record.Telnet 1. 1. 5.;
        conn ~proto:Record.Ftpdata 2. 1. 5.;
        conn ~proto:Record.Telnet 3. 1. 5.;
      ]
  in
  check_int "telnet count" 2 (Record.count t Record.Telnet);
  check_int "smtp count" 0 (Record.count t Record.Smtp);
  let starts = Record.starts (Record.filter_protocol t Record.Telnet) in
  Alcotest.(check (array (float 0.))) "starts" [| 1.; 3. |] starts

(* ---------------- Diurnal ---------------- *)

let test_profiles_normalised () =
  List.iter
    (fun (name, p) ->
      let sum = Array.fold_left ( +. ) 0. (p : Diurnal.t :> float array) in
      check_close (name ^ " sums to 1") ~eps:1e-12 1. sum)
    [
      ("telnet", Diurnal.telnet);
      ("ftp", Diurnal.ftp);
      ("nntp", Diurnal.nntp);
      ("smtp west", Diurnal.smtp_west);
      ("smtp east", Diurnal.smtp_east);
      ("flat", Diurnal.flat);
    ]

let test_profile_shapes () =
  (* Office-hours peak with a lunch dip for TELNET. *)
  check_true "telnet peak at 10am"
    (Diurnal.fraction Diurnal.telnet 10 > Diurnal.fraction Diurnal.telnet 3);
  check_true "telnet lunch dip"
    (Diurnal.fraction Diurnal.telnet 12 < Diurnal.fraction Diurnal.telnet 11);
  check_true "ftp evening renewal"
    (Diurnal.fraction Diurnal.ftp 20 > Diurnal.fraction Diurnal.ftp 4);
  check_true "nntp flatter than telnet"
    (Diurnal.fraction Diurnal.nntp 3 > Diurnal.fraction Diurnal.telnet 3);
  check_true "smtp east later than west"
    (Diurnal.fraction Diurnal.smtp_east 15 > Diurnal.fraction Diurnal.smtp_west 15)

let test_rates_per_hour () =
  let rates = Diurnal.rates_per_hour Diurnal.flat ~per_day:240. in
  Array.iter (fun r -> check_close "uniform 10/hour" 10. r) rates

let test_hourly_fractions () =
  (* Arrivals only in hour 2 of each day. *)
  let arrivals = [| 7200.; 7300.; 86400. +. 7201. |] in
  let f = Diurnal.hourly_fractions ~span:(2. *. 86400.) arrivals in
  check_close "all mass in hour 2" 1. f.(2);
  check_close "nothing elsewhere" 0. f.(3)

let test_hourly_fractions_empty () =
  let f = Diurnal.hourly_fractions ~span:3600. [||] in
  Array.iter (fun v -> check_close "zeros" 0. v) f

(* ---------------- Bursts ---------------- *)

let test_burst_grouping_basic () =
  (* Two conns 1 s apart -> one burst; third 10 s later -> second burst. *)
  let conns =
    [| conn 0. 2. 100.; conn 3. 1. 50.; conn 14. 1. 25. |]
  in
  let bursts = Bursts.group conns in
  check_int "two bursts" 2 (List.length bursts);
  let first = List.hd bursts in
  check_int "first burst has 2 conns" 2 first.Bursts.n_conns;
  check_close "first burst bytes" 150. first.Bursts.burst_bytes;
  check_close "first burst start" 0. first.Bursts.burst_start;
  check_close "first burst end" 4. first.Bursts.burst_end

let test_burst_cutoff_sensitivity () =
  (* Gap of 3 s: one burst at the 4 s cutoff, two at 2 s. *)
  let conns = [| conn 0. 1. 10.; conn 4. 1. 10. |] in
  check_int "cutoff 4" 1 (List.length (Bursts.group ~cutoff:4. conns));
  check_int "cutoff 2" 2 (List.length (Bursts.group ~cutoff:2. conns))

let test_burst_sessions_separate () =
  (* Same times, different sessions: never merged. *)
  let conns = [| conn ~session:1 0. 1. 10.; conn ~session:2 0.5 1. 10. |] in
  check_int "two bursts across sessions" 2 (List.length (Bursts.group conns))

let test_burst_ignores_other_protocols () =
  let conns = [| conn ~proto:Record.Telnet 0. 1. 10. |] in
  check_int "no ftpdata, no bursts" 0 (List.length (Bursts.group conns))

let test_burst_overlapping_conns () =
  (* Overlap: second starts before first ends. *)
  let conns = [| conn 0. 10. 5.; conn 2. 1. 5. |] in
  let bursts = Bursts.group conns in
  check_int "single burst" 1 (List.length bursts);
  check_close "burst end is max end" 10. (List.hd bursts).Bursts.burst_end

let test_spacings () =
  let conns = [| conn 0. 2. 1.; conn 3. 1. 1.; conn 10. 1. 1. |] in
  let sp = Bursts.spacings conns in
  Alcotest.(check (array (float 1e-9))) "end-to-start gaps" [| 1.; 6. |] sp

let test_spacings_clamped () =
  let conns = [| conn 0. 10. 1.; conn 2. 1. 1. |] in
  let sp = Bursts.spacings conns in
  check_close "negative gap clamped" 0.001 sp.(0)

let test_burst_sizes_starts () =
  let conns = [| conn 0. 1. 7.; conn 20. 1. 9. |] in
  let bursts = Bursts.group conns in
  Alcotest.(check (array (float 0.))) "sizes" [| 7.; 9. |] (Bursts.sizes bursts);
  Alcotest.(check (array (float 0.))) "starts" [| 0.; 20. |] (Bursts.starts bursts)

(* ---------------- Dataset ---------------- *)

let test_catalog () =
  (* 15 SYN/FIN datasets + 9 packet traces = the paper's 24 traces. *)
  check_int "fifteen SYN/FIN datasets" 15 (List.length Dataset.catalog);
  check_true "find LBL-1" (Dataset.find "LBL-1" <> None);
  check_true "find unknown" (Dataset.find "nope" = None);
  (* WWW only in the two most recent LBL traces. *)
  List.iter
    (fun (s : Dataset.spec) ->
      let expect_www = s.name = "LBL-7" || s.name = "LBL-8" in
      Alcotest.(check bool) (s.name ^ " www") expect_www (s.www_per_day > 0.))
    Dataset.catalog

let small_trace =
  lazy
    (let spec = Option.get (Dataset.find "UK") in
     Dataset.generate ~days:0.25 spec)

let test_generate_small () =
  let t = Lazy.force small_trace in
  check_close "span" (0.25 *. 86400.) t.Record.span;
  check_true "has connections" (Array.length t.Record.connections > 100);
  check_true "sorted"
    (Traffic.Arrival.is_sorted (Record.starts t.Record.connections));
  (* Every FTPDATA record carries a real session id. *)
  Array.iter
    (fun (c : Record.connection) ->
      if c.protocol = Record.Ftpdata then
        check_true "session id set" (c.session_id >= 0))
    t.Record.connections

let test_generate_deterministic () =
  let spec = Option.get (Dataset.find "UK") in
  let a = Dataset.generate ~days:0.1 spec in
  let b = Dataset.generate ~days:0.1 spec in
  check_int "same size" (Array.length a.Record.connections)
    (Array.length b.Record.connections);
  check_close "same first start" a.Record.connections.(0).Record.start
    b.Record.connections.(0).Record.start

let test_ftp_arrival_kinds () =
  let t = Lazy.force small_trace in
  let sessions = Dataset.ftp_arrival_kinds t `Sessions in
  let data = Dataset.ftp_arrival_kinds t `Data in
  let bursts = Dataset.ftp_arrival_kinds t `Bursts in
  check_true "sessions < data" (Array.length sessions < Array.length data);
  check_true "bursts between sessions and data"
    (Array.length bursts >= Array.length sessions
    && Array.length bursts <= Array.length data)

(* ---------------- IO ---------------- *)

let test_io_roundtrip () =
  let t =
    Record.create ~name:"roundtrip" ~span:100.
      [
        conn ~proto:Record.Telnet 1.5 2.25 100.;
        conn ~proto:Record.Ftpdata ~session:7 3. 1. 4096.;
      ]
  in
  let path = Filename.temp_file "trace" ".tsv" in
  Io.save path t;
  let t' = get_ok (Io.load path) in
  Sys.remove path;
  Alcotest.(check string) "name" t.Record.name t'.Record.name;
  check_close "span" t.Record.span t'.Record.span;
  check_int "conns" 2 (Array.length t'.Record.connections);
  let c = t'.Record.connections.(1) in
  check_close "start" 3. c.Record.start;
  check_int "session" 7 c.Record.session_id;
  Alcotest.(check bool) "protocol" true (c.Record.protocol = Record.Ftpdata)

let test_io_rejects_garbage () =
  let path = Filename.temp_file "trace" ".tsv" in
  let oc = open_out path in
  output_string oc "not a header\n";
  close_out oc;
  (match Io.load path with
  | Ok _ -> Alcotest.fail "bad header accepted"
  | Error e ->
    check_true "names file, line and header"
      (e = path ^ ":1: bad header, expected \"# trace\""));
  Sys.remove path

(* Bad trace files through the trace commands: each names FILE:LINE and
   the reason on stderr and exits 2 — no uncaught exception, no silently
   parsed nan. So does a file too thin for the analysis. *)
let test_cli_bad_trace_files () =
  let file text =
    let path = Filename.temp_file "trace" ".tsv" in
    Out_channel.with_open_bin path (fun oc -> output_string oc text);
    at_exit (fun () -> Sys.remove path);
    path
  in
  let header = "# trace\tbad\n# span\t100.0\n" in
  let row = "1.000000\t2.000000\ttelnet\t10.0\t1\n" in
  let empty = file "" in
  let truncated = file (header ^ row ^ "3.000000\t1.000000\n") in
  let nan_start = file (header ^ "nan\t2.000000\ttelnet\t10.0\t1\n") in
  let gopher = file (header ^ "1.0\t2.0\tgopher\t10.0\t1\n") in
  let packets =
    file "# pkttrace\tbad\n# span\t10.0\n0.5\ttelnet\n1.0\tgopher\n"
  in
  let thin = file (header ^ row ^ row) in
  let rows cmd =
    [
      (cmd ^ " " ^ empty, 2, [ empty ^ ":1: empty file" ]);
      (cmd ^ " " ^ truncated, 2, [ truncated ^ ":4: expected 5 fields" ]);
      (cmd ^ " " ^ nan_start, 2, [ nan_start ^ ":3: start \"nan\" is not" ]);
      (cmd ^ " " ^ gopher, 2, [ gopher ^ ":3: unknown protocol gopher" ]);
    ]
  in
  check_cli_rows
    (List.concat_map rows [ "check"; "hurst"; "analyze"; "summary" ]
    @ [
        ("check " ^ packets, 2, [ packets ^ ":4: unknown protocol gopher" ]);
        ("check " ^ thin, 2, [ "too few arrivals to test" ]);
        ("hurst " ^ thin, 2, [ "too few arrivals for LRD analysis" ]);
        ("analyze " ^ thin, 2, [ "too few arrivals for a full analysis" ]);
      ])

(* ---------------- Packet dataset ---------------- *)

let small_pkt =
  lazy
    (let spec =
       {
         (Option.get (Packet_dataset.find "LBL-PKT-5")) with
         Packet_dataset.duration = 600.;
         telnet_conns_per_hour = 120.;
         ftp_sessions_per_hour = 30.;
         background_conns_per_sec = 0.2;
       }
     in
     Packet_dataset.generate spec)

let test_packet_catalog () =
  check_int "nine packet traces" 9 (List.length Packet_dataset.catalog);
  check_true "lbl_pkt_2 is catalogued"
    (Packet_dataset.lbl_pkt_2.Packet_dataset.name = "LBL-PKT-2");
  check_close "PKT-1 spans two hours" 7200.
    (Option.get (Packet_dataset.find "LBL-PKT-1")).Packet_dataset.duration;
  check_close "PKT-4 spans one hour" 3600.
    (Option.get (Packet_dataset.find "LBL-PKT-4")).Packet_dataset.duration

let test_packet_generate () =
  let t = Lazy.force small_pkt in
  check_true "telnet packets present"
    (Array.length t.Packet_dataset.telnet_packets > 100);
  check_true "all packets sorted"
    (Traffic.Arrival.is_sorted t.Packet_dataset.all_packets);
  check_int "all = sum of components"
    (Array.length t.Packet_dataset.telnet_packets
    + Array.length t.Packet_dataset.ftpdata_packets
    + Array.length t.Packet_dataset.other_packets)
    (Array.length t.Packet_dataset.all_packets);
  Array.iter
    (fun p -> check_true "in window" (p >= 0. && p < 600.))
    t.Packet_dataset.all_packets

let test_packets_of_conn () =
  let r = rng () in
  let c =
    {
      Traffic.Ftp_model.conn_start = 10.;
      conn_end = 20.;
      conn_bytes = 5120.;
      session_id = 0;
    }
  in
  let pkts = Packet_dataset.packets_of_conn c r in
  check_int "bytes / 512 segments" 10 (Array.length pkts);
  Array.iter
    (fun p -> check_true "inside lifetime" (p >= 10. && p <= 20.))
    pkts

let test_ftpdata_conns_records () =
  let t = Lazy.force small_pkt in
  let conns = Packet_dataset.ftpdata_conns t in
  Array.iter
    (fun (c : Record.connection) ->
      Alcotest.(check bool) "protocol" true (c.protocol = Record.Ftpdata);
      check_true "bytes positive" (c.bytes > 0.))
    conns

let suite =
  ( "trace",
    [
      tc "protocol string roundtrip" test_protocol_roundtrip;
      tc "record create sorts" test_create_sorts;
      tc "filter and count" test_filter_count;
      tc "profiles normalised" test_profiles_normalised;
      tc "profile shapes" test_profile_shapes;
      tc "rates per hour" test_rates_per_hour;
      tc "hourly fractions" test_hourly_fractions;
      tc "hourly fractions empty" test_hourly_fractions_empty;
      tc "burst grouping" test_burst_grouping_basic;
      tc "burst cutoff" test_burst_cutoff_sensitivity;
      tc "bursts per session" test_burst_sessions_separate;
      tc "bursts ignore other protocols" test_burst_ignores_other_protocols;
      tc "bursts overlap" test_burst_overlapping_conns;
      tc "spacings" test_spacings;
      tc "spacings clamped" test_spacings_clamped;
      tc "burst sizes/starts" test_burst_sizes_starts;
      tc "dataset catalog" test_catalog;
      tc "dataset generate" test_generate_small;
      tc "dataset deterministic" test_generate_deterministic;
      tc "ftp arrival kinds" test_ftp_arrival_kinds;
      tc "io roundtrip" test_io_roundtrip;
      tc "io rejects garbage" test_io_rejects_garbage;
      tc "cli: bad trace files exit 2" test_cli_bad_trace_files;
      tc "packet catalog" test_packet_catalog;
      tc "packet generate" test_packet_generate;
      tc "packets of conn" test_packets_of_conn;
      tc "ftpdata conn records" test_ftpdata_conns_records;
    ] )
