(** Packet-trace I/O: one packet per line, [time protocol],
    tab-separated, with a header carrying name and span. The on-disk
    form a packet-level tracer (Table II style) would produce. *)

type t = {
  name : string;
  span : float;
  packets : (float * Record.protocol) array;  (** Sorted by time. *)
}

val of_packet_dataset : Packet_dataset.t -> t
(** Flatten a synthetic packet trace: TELNET and FTPDATA packets keep
    their protocols; background bulk packets are labelled
    {!Record.Nntp}, the closest of the record protocols. *)

val times : t -> ?protocol:Record.protocol -> unit -> float array
(** All packet times, optionally restricted to one protocol. *)

val save : string -> t -> unit
val load : string -> (t, string) result
(** [Error "FILE:LINE: reason"] on malformed input, as {!Io.load}. *)
