(* The [wanpoisson netsim] driver: replica-sharded network simulation.

   Contrast with Core.Farm's macro-shard rule: the poisson farm can cut
   ONE sample path into bin-aligned windows because Poisson increments
   over disjoint windows are independent. A queueing network carries
   state (ring occupancy, server free times, RED averages) whose law at
   a cut point has no closed form, so the netsim unit of distribution
   is a whole REPLICA — an independent simulation under its own
   derive_rng stream, keyed by absolute replica index exactly like the
   PR-5/PR-7 task discipline. Worker w owns the replicas congruent to
   w mod workers; the coordinator merges partials in replica-index
   order (sketch merges, count sums, max folds — all order-fixed), so
   stdout is byte-identical at any --workers. *)

type spec = {
  model : string;  (* "onoff" | "poisson" *)
  events : float;  (* total packets across all replicas *)
  replicas : int;
  sources : int;
  beta : float;
  mean_period : float;
  on_rate : float;
  rate : float;
  load : float;
  topology : string;  (* "tandem:K" | "fanin:M" *)
  discipline : string;  (* "droptail" | "red" | "priority" *)
  buffer : int;
  chunk : int;
  seed : int;
  workers : int;
}

let default =
  {
    model = "onoff";
    events = 1e6;
    replicas = 8;
    sources = 64;
    beta = 1.5;
    mean_period = 10.;
    on_rate = 4.;
    rate = 1000.;
    load = 0.8;
    topology = "tandem:2";
    discipline = "droptail";
    buffer = 64;
    chunk = 65536;
    seed = 42;
    workers = 1;
  }

(* All replica sketches and the coordinator's merge targets share one
   accuracy so merge_into never sees mismatched grids. *)
let sketch_accuracy = 0.01

(* RED parameters derived from the buffer size: thresholds at 1/4 and
   3/4 occupancy, gentle 10% ceiling, classic 0.002 EWMA weight. *)
let red_of_buffer b =
  {
    Queueing.Network.min_th = 0.25 *. float_of_int b;
    max_th = 0.75 *. float_of_int b;
    max_p = 0.1;
    weight = 0.002;
  }

type plan = {
  topo : Queueing.Network.topology;
  disc : Queueing.Network.discipline;
  n_links : int;
  lambda : float;  (* aggregate packet rate *)
  service : float;  (* per-link service time: load / lambda *)
  horizon : float;  (* per-replica simulated span *)
}

let parse_topology s =
  match String.split_on_char ':' s with
  | [ "tandem"; k ] -> (
    match int_of_string_opt k with
    | Some k when k >= 1 && k <= 8 -> (Queueing.Network.Tandem k, k)
    | _ -> invalid_arg "netsim: tandem link count must be in [1, 8]")
  | [ "fanin"; m ] -> (
    match int_of_string_opt m with
    | Some m when m >= 1 && m <= 7 -> (Queueing.Network.Fan_in m, m + 1)
    | _ -> invalid_arg "netsim: fan-in ingress count must be in [1, 7]")
  | _ -> invalid_arg "netsim: topology must be tandem:K or fanin:M"

let plan spec =
  Engine.Job.check_finite "netsim"
    [ ("events", spec.events); ("beta", spec.beta);
      ("mean-period", spec.mean_period); ("on-rate", spec.on_rate);
      ("rate", spec.rate); ("load", spec.load) ];
  let topo, n_links = parse_topology spec.topology in
  let disc =
    match spec.discipline with
    | "droptail" -> Queueing.Network.Drop_tail
    | "priority" -> Queueing.Network.Priority
    | "red" ->
      if spec.buffer < 1 then
        invalid_arg "netsim: red needs --buffer >= 1";
      Queueing.Network.Red (red_of_buffer spec.buffer)
    | _ -> invalid_arg "netsim: discipline must be droptail, red or priority"
  in
  if spec.model <> "onoff" && spec.model <> "poisson" then
    invalid_arg "netsim: model must be onoff or poisson";
  if not (spec.events >= 1. && spec.events <= 1e12) then
    invalid_arg "netsim: events must be in [1, 1e12]";
  if spec.replicas < 1 || spec.replicas > 4096 then
    invalid_arg "netsim: replicas must be in [1, 4096]";
  if spec.workers < 1 || spec.workers > 1024 then
    invalid_arg "netsim: workers must be in [1, 1024]";
  if spec.chunk < 256 || spec.chunk > 1 lsl 24 then
    invalid_arg "netsim: chunk must be in [256, 2^24]";
  if spec.buffer < 0 || spec.buffer > 1_000_000 then
    invalid_arg "netsim: buffer must be in [0, 1e6]";
  if spec.model = "onoff" then begin
    if spec.sources < 1 || spec.sources > 1_000_000 then
      invalid_arg "netsim: sources must be in [1, 1e6]";
    if not (spec.beta > 1. && spec.beta <= 10.) then
      invalid_arg "netsim: beta must be in (1, 10]";
    if not (spec.mean_period > 0.) then
      invalid_arg "netsim: mean-period must be positive";
    if not (spec.on_rate > 0.) then
      invalid_arg "netsim: on-rate must be positive"
  end
  else if not (spec.rate > 0.) then
    invalid_arg "netsim: rate must be positive";
  if not (spec.load > 0. && spec.load <= 4.) then
    invalid_arg "netsim: load must be in (0, 4]";
  let lambda =
    if spec.model = "poisson" then spec.rate
    else float_of_int spec.sources *. spec.on_rate /. 2.
  in
  {
    topo;
    disc;
    n_links;
    lambda;
    service = spec.load /. lambda;
    horizon = spec.events /. float_of_int spec.replicas /. lambda;
  }

(* ---------------- per-replica simulation ---------------- *)

type link_part = {
  lp_util : float;
  lp_hash : int;
  lp_served : int array;  (* per class, length 2 *)
  lp_dropped : int array;
  lp_sum_wait : float array;
  lp_max_wait : float array;
  lp_sketch : Stats.Quantile_sketch.t array;
}

type partial = { q_events : int; q_links : link_part array }

(* Replica r's traffic stream is keyed by its absolute index — the
   netsim analogue of the farm's "farm#shard#window" keying — so the
   set of sample paths is fixed by (seed, spec) alone, never by which
   worker ran which replica. *)
let replica_rng spec r =
  Engine.Task.derive_rng ~seed:spec.seed (Printf.sprintf "netsim#%d" r)

let compute_replica ~tick spec r =
  let plan = plan spec in
  let rng = replica_rng spec r in
  let net =
    Queueing.Network.create ~sketch_accuracy
      ~seed:((spec.seed * 0x9e3779b9) lxor r)
      ~topology:plan.topo ~discipline:plan.disc ~buffer:spec.buffer
      ~services:(Array.make plan.n_links plan.service)
      ()
  in
  let events = ref 0 in
  (match spec.model with
  | "onoff" ->
    let sources =
      List.init spec.sources (fun _ ->
          Traffic.Onoff.pareto_source ~beta:spec.beta
            ~mean_period:spec.mean_period ~on_rate:spec.on_rate)
    in
    Traffic.Superpose.iter ~chunk:spec.chunk ~sources ~horizon:plan.horizon
      rng (fun times srcs len ->
        Queueing.Network.push_chunk net ~times ~srcs ~pos:0 ~len;
        events := !events + len;
        tick ~events:!events)
  | _ ->
    (* Poisson packets take their global sequence index as source id:
       classes alternate and fan-in ingress round-robins, chunk-size
       independent by construction. *)
    let srcs = ref [||] in
    Traffic.Poisson_proc.iter_chunks ~chunk:spec.chunk ~rate:spec.rate
      ~duration:plan.horizon rng (fun times ->
        let len = Array.length times in
        if Array.length !srcs < len then srcs := Array.make len 0;
        let s = !srcs in
        let base = !events in
        for j = 0 to len - 1 do
          s.(j) <- base + j
        done;
        Queueing.Network.push_chunk net ~times ~srcs:s ~pos:0 ~len;
        events := !events + len;
        tick ~events:!events));
  tick ~events:!events;
  let stats = Queueing.Network.finish net in
  let q_links =
    Array.map
      (fun (l : Queueing.Network.link_stats) ->
        {
          lp_util = l.utilization;
          lp_hash = l.drop_hash;
          lp_served =
            Array.map (fun (c : Queueing.Network.class_stats) -> c.served)
              l.classes;
          lp_dropped =
            Array.map (fun (c : Queueing.Network.class_stats) -> c.dropped)
              l.classes;
          lp_sum_wait =
            Array.map
              (fun (c : Queueing.Network.class_stats) ->
                c.mean_wait *. float_of_int c.served)
              l.classes;
          lp_max_wait =
            Array.map (fun (c : Queueing.Network.class_stats) -> c.max_wait)
              l.classes;
          lp_sketch =
            Array.map (fun (c : Queueing.Network.class_stats) -> c.sketch)
              l.classes;
        })
      stats
  in
  { q_events = !events; q_links }

(* ---------------- partial codec ---------------- *)

let encode_partial p =
  let b = Buffer.create 512 in
  Engine.Frame.Wr.i64 b p.q_events;
  Engine.Frame.Wr.u16 b (Array.length p.q_links);
  Array.iter
    (fun lp ->
      Engine.Frame.Wr.f64 b lp.lp_util;
      Engine.Frame.Wr.i64 b lp.lp_hash;
      for c = 0 to 1 do
        Engine.Frame.Wr.i64 b lp.lp_served.(c);
        Engine.Frame.Wr.i64 b lp.lp_dropped.(c);
        Engine.Frame.Wr.f64 b lp.lp_sum_wait.(c);
        Engine.Frame.Wr.f64 b lp.lp_max_wait.(c);
        Engine.Frame.Wr.str b
          (Stats.Quantile_sketch.to_string lp.lp_sketch.(c))
      done)
    p.q_links;
  Buffer.contents b

let decode_partial s =
  let open Engine.Frame.Rd in
  match
    let c = of_string s in
    let q_events = i64 c in
    let n_links = u16 c in
    if n_links < 1 || n_links > 8 then
      raise (Malformed "replica partial: bad link count");
    let q_links =
      Array.init n_links (fun _ ->
          let lp_util = f64 c in
          let lp_hash = i64 c in
          let served = Array.make 2 0
          and dropped = Array.make 2 0
          and sum_wait = Array.make 2 0.
          and max_wait = Array.make 2 0.
          and sketch =
            Array.init 2 (fun _ ->
                Stats.Quantile_sketch.create ~accuracy:sketch_accuracy ())
          in
          for cl = 0 to 1 do
            served.(cl) <- i64 c;
            dropped.(cl) <- i64 c;
            sum_wait.(cl) <- f64 c;
            max_wait.(cl) <- f64 c;
            match Stats.Quantile_sketch.of_string (str c) with
            | Ok s -> sketch.(cl) <- s
            | Error e -> raise (Malformed e)
          done;
          {
            lp_util;
            lp_hash;
            lp_served = served;
            lp_dropped = dropped;
            lp_sum_wait = sum_wait;
            lp_max_wait = max_wait;
            lp_sketch = sketch;
          })
    in
    if not (at_end c) then
      raise (Malformed "trailing bytes in replica partial");
    { q_events; q_links }
  with
  | p -> Ok p
  | exception Malformed m -> Error m

(* ---------------- coordinator merge ---------------- *)

type merged_class = {
  c_served : int;
  c_dropped : int;
  c_loss : float;  (* dropped / offered *)
  c_mean_wait : float;
  c_max_wait : float;
  c_p50 : float;
  c_p99 : float;
  c_p999 : float;
  c_sketch : Stats.Quantile_sketch.t;
}

type merged_link = {
  m_util : float;  (* mean across replicas *)
  m_hash : int;  (* replica-order chained drop hashes *)
  m_classes : merged_class array;
}

type result = { total_events : int; links : merged_link array }

(* [parts] holds every replica exactly once, index order. Every fold
   below (sums, maxes, sketch merges, the hash chain) runs left to
   right over that fixed order, so the result — and the printed report
   — is bit-identical at any worker count. *)
let merge_parts spec (parts : partial array) =
  let plan = plan spec in
  let n = Array.length parts in
  let total_events = ref 0 in
  Array.iter (fun p -> total_events := !total_events + p.q_events) parts;
  let links =
    Array.init plan.n_links (fun l ->
        let util = ref 0. and hash = ref 0x811c9dc5 in
        let served = Array.make 2 0
        and dropped = Array.make 2 0
        and sum_wait = Array.make 2 0.
        and max_wait = Array.make 2 0. in
        let sketch =
          Array.init 2 (fun _ ->
              Stats.Quantile_sketch.create ~accuracy:sketch_accuracy ())
        in
        for r = 0 to n - 1 do
          let lp = parts.(r).q_links.(l) in
          util := !util +. lp.lp_util;
          hash := ((!hash * 0x01000193) lxor lp.lp_hash) land max_int;
          for c = 0 to 1 do
            served.(c) <- served.(c) + lp.lp_served.(c);
            dropped.(c) <- dropped.(c) + lp.lp_dropped.(c);
            sum_wait.(c) <- sum_wait.(c) +. lp.lp_sum_wait.(c);
            if lp.lp_max_wait.(c) > max_wait.(c) then
              max_wait.(c) <- lp.lp_max_wait.(c);
            Stats.Quantile_sketch.merge_into sketch.(c) lp.lp_sketch.(c)
          done
        done;
        let classes =
          Array.init 2 (fun c ->
              let offered = served.(c) + dropped.(c) in
              let q =
                if Stats.Quantile_sketch.count sketch.(c) = 0 then
                  fun _ -> 0.
                else Stats.Quantile_sketch.quantile sketch.(c)
              in
              {
                c_served = served.(c);
                c_dropped = dropped.(c);
                c_loss =
                  (if offered = 0 then 0.
                   else float_of_int dropped.(c) /. float_of_int offered);
                c_mean_wait =
                  (if served.(c) = 0 then 0.
                   else sum_wait.(c) /. float_of_int served.(c));
                c_max_wait = max_wait.(c);
                c_p50 = q 0.5;
                c_p99 = q 0.99;
                c_p999 = q 0.999;
                c_sketch = sketch.(c);
              })
        in
        {
          m_util = !util /. float_of_int n;
          m_hash = !hash;
          m_classes = classes;
        })
  in
  { total_events = !total_events; links }

(* ---------------- the job ---------------- *)

let spec_to_json spec =
  Engine.Json.(
    Obj
      [
        ("model", Str spec.model);
        ("events", Float spec.events);
        ("replicas", Int spec.replicas);
        ("sources", Int spec.sources);
        ("beta", Float spec.beta);
        ("mean_period", Float spec.mean_period);
        ("on_rate", Float spec.on_rate);
        ("rate", Float spec.rate);
        ("load", Float spec.load);
        ("topology", Str spec.topology);
        ("discipline", Str spec.discipline);
        ("buffer", Int spec.buffer);
        ("chunk", Int spec.chunk);
        ("seed", Int spec.seed);
        ("workers", Int spec.workers);
      ])

let spec_of_json j =
  Engine.Job.read_fields j (fun f ->
      {
        model = f.str "model";
        events = f.float "events";
        replicas = f.int "replicas";
        sources = f.int "sources";
        beta = f.float "beta";
        mean_period = f.float "mean_period";
        on_rate = f.float "on_rate";
        rate = f.float "rate";
        load = f.float "load";
        topology = f.str "topology";
        discipline = f.str "discipline";
        buffer = f.int "buffer";
        chunk = f.int "chunk";
        seed = f.int "seed";
        workers = f.int "workers";
      })

let job =
  {
    Engine.Job.name = "netsim";
    units =
      (fun spec ->
        ignore (plan spec);
        spec.replicas);
    compute = compute_replica;
    encode = encode_partial;
    decode = decode_partial;
    spec_to_json;
    spec_of_json;
  }

let run ~exe ?opts spec =
  Result.map
    (fun (parts, _obs) -> merge_parts spec parts)
    (Engine.Job.run job ~exe ?opts ~workers:spec.workers spec)

let run_inline spec = merge_parts spec (Engine.Job.run_inline job spec)

(* Deliberately omits the worker count and any timing: stdout must be
   byte-identical at any --workers. *)
let pp fmt spec r =
  let plan_ = plan spec in
  Format.fprintf fmt
    "netsim model=%s events=%g replicas=%d topology=%s discipline=%s \
     buffer=%d seed=%d@."
    spec.model spec.events spec.replicas spec.topology spec.discipline
    spec.buffer spec.seed;
  Format.fprintf fmt "  packets       %d@." r.total_events;
  Format.fprintf fmt "  service       %.6g s/pkt  (load %.2f, lambda %g pkt/s)@."
    plan_.service spec.load plan_.lambda;
  Array.iteri
    (fun l (ml : merged_link) ->
      Format.fprintf fmt "  link %d  util %.6f  drop-hash %08x@." l ml.m_util
        (ml.m_hash land 0xffffffff);
      Array.iteri
        (fun c (mc : merged_class) ->
          Format.fprintf fmt
            "    class %d  served %d  dropped %d  loss %.6f  wait mean %.6g \
             max %.6g  p50 %.6g p99 %.6g p999 %.6g@."
            c mc.c_served mc.c_dropped mc.c_loss mc.c_mean_wait mc.c_max_wait
            mc.c_p50 mc.c_p99 mc.c_p999)
        ml.m_classes)
    r.links
