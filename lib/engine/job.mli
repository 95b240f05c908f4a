(** One coordinator for sharded multi-process jobs.

    A job cuts its work into a fixed grid of {e units} — macro-shards of
    one Poisson path for [farm], independent replicas for [netsim] —
    whose layout depends only on the spec, never on the worker count.
    The job supplies the grid size, the per-unit computation, one
    partial codec and its spec codec; this module owns everything else:

    - the hidden worker entry ([<name>-worker], see {!dispatch_worker})
      and its stride loop — worker [w] of [n] computes the units
      congruent to [w mod n];
    - the frame envelope ({!Frame}): one analysis frame per unit (unit
      index + the job's payload), a counters rollup and a final done
      summary, plus the observability frames of {!Obs_frame};
    - heartbeats, the missed-heartbeat deadline, and the
      [inject_crash]/[inject_stall] testing hooks;
    - absorb in worker order with range, duplicate and missing-unit
      checks, so no partial result is ever reported as complete;
    - per-worker reports, Chrome-trace lanes and the live progress line;
    - {!run_inline}, the same unit computation and frame round-trip in
      one process — the reference {!run} must reproduce;
    - the structured [<name>.worker_died] and [<name>.worker_stalled]
      events.

    Workers are processes, not domains: the coordinator re-executes its
    own binary once per worker, wires each worker's stdout (frames) and
    stderr (lines, re-emitted as ["[w<i>] ..."]) to private pipes, and
    drains them all from one [select] loop. A fresh exec gives every
    worker a pristine OCaml runtime with its own measurable RSS. A
    worker's stream must end with its done frame: EOF before it, a
    framing error, an abnormal exit, or silence past the deadline fails
    the run. *)

type ('spec, 'partial) t = {
  name : string;
      (** Worker subcommand prefix and event namespace: ["farm"] runs
          workers as [exe farm-worker ...] and logs
          [farm.worker_died]. *)
  units : 'spec -> int;
      (** Size of the unit grid. Validates the spec: raises
          [Invalid_argument] on a bad one, before any worker spawns. *)
  compute : tick:(events:int -> unit) -> 'spec -> int -> 'partial;
      (** [compute ~tick spec u] computes unit [u]. It calls [tick] as it
          goes with the unit's cumulative event count — the worker's
          heartbeat point — and its last call carries the unit's total. *)
  encode : 'partial -> string;
  decode : string -> ('partial, string) result;
  spec_to_json : 'spec -> Json.t;
  spec_of_json : Json.t -> ('spec, string) result;
}

(** {1 Run options} *)

type opts = {
  metrics : bool;  (** Roll worker telemetry counters up. *)
  trace : bool;  (** Ship worker span tables for the merged trace. *)
  logs : bool;
      (** Ship worker log events; the coordinator re-emits them with
          worker attribution. *)
  stall_timeout_s : float;
      (** A worker silent (no frame of any kind) for longer is declared
          stalled, logged as [<name>.worker_stalled], SIGKILLed, and
          fails the run (0 = never). *)
  progress : bool;
      (** Rewrite a live aggregate progress line on stderr from incoming
          heartbeats. Stdout is unaffected. *)
  inject_crash : int;
      (** Testing hook: the worker with this index SIGKILLs itself after
          its first shipped unit ([-1] = off). *)
  inject_stall : int;
      (** Testing hook: the worker with this index wedges silently —
          alive, no frames, no heartbeats — after its first shipped unit
          ([-1] = off). *)
}

val default_opts : opts
(** Everything off; a 30 s stall deadline. *)

val heartbeat_period : opts -> float
(** [min 1 (stall_timeout_s / 4)] seconds, or 1 s when the deadline is
    off: a healthy worker beats several times per deadline. *)

(** {1 Coordinator} *)

type obs = {
  o_workers : Manifest.worker_entry list;  (** One per worker, in order. *)
  o_spans : (int * float * Telemetry.event list) list;
      (** Shipped span tables: worker index, worker telemetry epoch (Unix
          seconds), events. Non-empty only under [trace]. *)
  o_counters : (int * (string * int) list) list;
      (** Per-worker counter rollups. Non-empty only under [metrics]. *)
}

val run :
  ('spec, 'partial) t ->
  exe:string ->
  ?opts:opts ->
  workers:int ->
  'spec ->
  ('partial array * obs, string) result
(** Spawn [workers] processes re-executing [exe], drain analysis and
    observability frames concurrently, and return every unit's partial
    in unit order. [Error] — naming each failed worker, with
    [<name>.worker_died] logged per dead worker and
    [<name>.worker_stalled] per missed-heartbeat kill — when any worker
    exits abnormally, breaks its frame stream, misses the deadline, or
    a unit is missing, out of range or shipped twice. Raises
    [Invalid_argument] on a bad spec (from [units]) or [workers < 1].
    Telemetry: [<name>.drain] and [<name>.absorb] spans, the
    [<name>.workers] and [<name>.frames] counters, and
    [<name>.rollup.*] for worker counters under [metrics]. *)

val run_inline : ?obs:bool -> ('spec, 'partial) t -> 'spec -> 'partial array
(** The same units — computation, envelope encode, frame round-trip,
    decode — in one process, in unit order. [obs] (default false) also
    emulates a metrics+trace worker: the per-unit telemetry span and
    the heartbeat tick with its frame round-trip. *)

val trace_processes : obs -> Telemetry.process list
(** Lanes for {!Telemetry.to_chrome_trace_multi}: the coordinator's own
    spans/counters first (its epoch anchors the timeline), then one lane
    per shipped worker span table, re-anchored by the worker's epoch. *)

(** {1 Worker} *)

val dispatch_worker : ('spec, 'partial) t -> unit
(** If [Sys.argv] is [exe <name>-worker ARG], run the worker on [ARG]
    (the coordinator's JSON envelope: index, worker count, options and
    spec) and [exit] with its code — 0 on success, 2 on a bad envelope
    or spec, 3 on a failure while computing; otherwise return. Call
    before any command-line parsing. *)

(** {1 Spec codec helper} *)

type fields = {
  int : string -> int;
  float : string -> float;
  str : string -> string;
}
(** Typed readers over one JSON object; each raises on a missing or
    ill-typed field, which {!read_fields} turns into [Error]. *)

val read_fields : Json.t -> (fields -> 'a) -> ('a, string) result
(** [read_fields j build]: run [build] over [j]'s fields; [Error]
    names the first missing one. *)

val check_finite : string -> (string * float) list -> unit
(** [check_finite who [(field, v); ...]] raises [Invalid_argument]
    naming the first field holding a NaN or an infinity — values JSON
    cannot carry to a worker. For the jobs' spec validation. *)
