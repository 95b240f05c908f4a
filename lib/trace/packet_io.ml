type t = {
  name : string;
  span : float;
  packets : (float * Record.protocol) array;
}

let of_packet_dataset (d : Packet_dataset.t) =
  let tag proto times =
    Array.to_list (Array.map (fun t -> (t, proto)) times)
  in
  let packets =
    Array.of_list
      (List.concat
         [
           tag Record.Telnet d.Packet_dataset.telnet_packets;
           tag Record.Ftpdata d.Packet_dataset.ftpdata_packets;
           tag Record.Nntp d.Packet_dataset.other_packets;
         ])
  in
  Array.sort (fun (a, _) (b, _) -> compare a b) packets;
  {
    name = d.Packet_dataset.spec.name;
    span = d.Packet_dataset.spec.duration;
    packets;
  }

let times t ?protocol () =
  match protocol with
  | None -> Array.map fst t.packets
  | Some p ->
    Array.of_list
      (List.filter_map
         (fun (time, proto) -> if proto = p then Some time else None)
         (Array.to_list t.packets))

let save path t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      Printf.fprintf oc "# pkttrace\t%s\n" t.name;
      Printf.fprintf oc "# span\t%.6f\n" t.span;
      Array.iter
        (fun (time, proto) ->
          Printf.fprintf oc "%.6f\t%s\n" time (Record.protocol_to_string proto))
        t.packets)

let load path =
  Io.read_table path ~kind:"pkttrace" ~fields:2 (fun line fs ->
      (Io.number line "time" fs.(0), Io.protocol line fs.(1)))
  |> Result.map (fun (name, span, packets) ->
         let packets = Array.of_list packets in
         Array.sort (fun (a, _) (b, _) -> compare a b) packets;
         { name; span; packets })
