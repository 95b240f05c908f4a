(** Observability frame payloads for the multi-process farm.

    PR 7's frame protocol ({!Frame}) carried only analysis partials:
    pyramid snapshots, tail arrays, counter rollups, a done summary.
    These three kinds extend it across the observability stack, so a
    worker's spans, structured log events, and liveness all reach the
    coordinator over the same checksummed pipe:

    - {b Telemetry} (kind 16): the worker's recorded span/mark table
      ({!Telemetry.event}s) plus the Unix time of its telemetry epoch,
      letting the coordinator re-anchor worker timestamps and render
      one merged Chrome trace ({!Telemetry.to_chrome_trace_multi}).
    - {b Logs} (kind 17): the worker's structured {!Log.event}s,
      re-emitted by the coordinator with worker attribution so [--log]
      holds one totally-ordered JSONL stream for the whole farm.
    - {b Heartbeat} (kind 18): periodic progress (events, shards,
      rate, current RSS). Heartbeats drive the live stderr progress
      line, and a missed-heartbeat deadline is how the coordinator
      distinguishes a stalled worker from a slow one.

    Kinds 16+ are reserved for observability so the analysis kinds
    ({!Job}'s envelope: unit, counters, done — all below 16) never
    collide; {!is_obs} is the
    coordinator's consume-don't-merge test. Decoding is total and
    bounds-checked: length fields are capped before any allocation. *)

val kind_telemetry : int
val kind_logs : int
val kind_heartbeat : int

val is_obs : Frame.t -> bool
(** True for the three kinds above — frames the coordinator consumes
    for observability rather than merging into analysis results. *)

val is_heartbeat : Frame.t -> bool

type heartbeat = {
  hb_index : int;  (** Worker index (coordinator cross-checks pipe). *)
  hb_events : int;  (** Events processed so far. *)
  hb_shards : int;  (** Macro-shards completed. *)
  hb_rate : float;  (** Events/s since the worker started. *)
  hb_rss_kb : int;  (** Current resident set; [-1] when unavailable. *)
}

val telemetry_frame :
  index:int -> epoch_unix_s:float -> Telemetry.event list -> Frame.t

val logs_frame : index:int -> Log.event list -> Frame.t

val heartbeat_frame : heartbeat -> Frame.t

type decoded =
  | Telemetry of int * float * Telemetry.event list
      (** worker index, worker epoch (Unix s), span table *)
  | Logs of int * Log.event list
  | Heartbeat of heartbeat

val decode : Frame.t -> (decoded, string) result
(** Total inverse of the three builders; [Error] on any other kind or a
    malformed payload. *)
