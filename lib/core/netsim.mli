(** The [wanpoisson netsim] driver: replica-sharded multi-process
    network simulation at 10^8-10^9 packets.

    The distribution unit is a whole {e replica} — an independent
    {!Queueing.Network} simulation fed by its own
    {!Engine.Task.derive_rng} stream keyed by absolute replica index
    (the PR-5/PR-7 discipline). This contrasts with {!Core.Farm}'s
    macro-shard rule: Poisson increments over disjoint bin windows are
    independent, so ONE sample path can be cut and farmed out; a
    queueing network carries state (ring occupancy, server free times,
    RED averages) whose law at a cut point has no closed form, so
    netsim never splits a sample path — it averages independent ones.
    Worker [w] owns the replicas congruent to [w mod workers]; the
    coordinator merges sketch/count partials in {e replica-index
    order}, so stdout is byte-identical at any [--workers]. *)

type spec = {
  model : string;  (** ["onoff"] (Pareto sources) or ["poisson"]. *)
  events : float;  (** Total packets across all replicas. *)
  replicas : int;  (** Independent simulations; the sharding grid. *)
  sources : int;  (** ON/OFF sources per replica (onoff model). *)
  beta : float;  (** Pareto shape for ON/OFF periods. *)
  mean_period : float;
  on_rate : float;  (** Packets/s while a source is ON. *)
  rate : float;  (** Aggregate packet rate (poisson model). *)
  load : float;  (** Target utilization; service = load / lambda. *)
  topology : string;  (** ["tandem:K"] (K in [1,8]) or ["fanin:M"]
                          (M in [1,7], plus one egress link). *)
  discipline : string;  (** ["droptail"], ["red"] or ["priority"]. *)
  buffer : int;  (** Waiting slots per link. *)
  chunk : int;  (** Streaming chunk size. *)
  seed : int;
  workers : int;
}

val default : spec

type plan = {
  topo : Queueing.Network.topology;
  disc : Queueing.Network.discipline;
  n_links : int;
  lambda : float;  (** Aggregate packet rate implied by the model. *)
  service : float;  (** Per-link deterministic service time. *)
  horizon : float;  (** Per-replica simulated span. *)
}

val plan : spec -> plan
(** Raises [Invalid_argument] on an unsupported model, topology,
    discipline, out-of-range field, or a NaN/infinite float (naming the
    field). *)

val red_of_buffer : int -> Queueing.Network.red
(** The RED parameters [discipline = "red"] derives from the buffer
    size: thresholds at 1/4 and 3/4 occupancy, [max_p = 0.1],
    [weight = 0.002]. *)

type merged_class = {
  c_served : int;
  c_dropped : int;
  c_loss : float;  (** dropped / (served + dropped); 0 when idle. *)
  c_mean_wait : float;
  c_max_wait : float;
  c_p50 : float;
  c_p99 : float;
  c_p999 : float;  (** Quantiles of the replica-order merged sketch. *)
  c_sketch : Stats.Quantile_sketch.t;
}

type merged_link = {
  m_util : float;  (** Mean utilization across replicas. *)
  m_hash : int;  (** Replica-order chained per-link drop hashes. *)
  m_classes : merged_class array;  (** Length 2: class 0 (high), 1. *)
}

type result = { total_events : int; links : merged_link array }

type partial
(** One replica's per-link partial: utilization, drop hash, per-class
    counts, wait sums/maxima and waiting-time sketches. *)

val job : (spec, partial) Engine.Job.t
(** Netsim as an {!Engine.Job}: units are replicas, RNG streams are
    keyed [netsim#replica]. *)

val run :
  exe:string -> ?opts:Engine.Job.opts -> spec -> (result, string) Stdlib.result
(** Coordinator: {!Engine.Job.run} over [spec.workers] worker processes
    re-executing [exe], then the replica-order merge. [Error] — with
    [netsim.worker_died] / [netsim.worker_stalled] logged — when any
    worker exits abnormally, breaks its frame stream, misses the
    heartbeat deadline, or omits a replica. Raises [Invalid_argument]
    only on a bad spec (see {!plan}). *)

val run_inline : spec -> result
(** The same computation — replica simulation, frame encode/decode,
    replica-order merge — in one process; produces the identical
    [result] (workers only affect process placement, never values). *)

val pp : Format.formatter -> spec -> result -> unit
(** Deterministic fixed-precision report. Deliberately omits the worker
    count and any timing: stdout must be byte-identical at any
    [--workers]. *)
