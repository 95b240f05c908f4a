(* PR 10: the zero-alloc queueing fast path — the shared index heap,
   the SoA superposition engine, the multi-link network simulator, and
   the replica-sharded netsim driver. *)

open Helpers

let bits = Int64.bits_of_float
let check_float_exact name a b = check_true name (bits a = bits b)

(* ---------------- Traffic.Fheap ---------------- *)

let test_fheap_sorted_drain () =
  let r = rng ~seed:31 () in
  for _ = 1 to 10 do
    let n = 1 + Prng.Rng.int r 1000 in
    let keys = Array.init n (fun _ -> Prng.Rng.float r *. 1e6) in
    let h = Traffic.Fheap.create () in
    Array.iteri (fun i k -> Traffic.Fheap.push h k i) keys;
    check_int "size" n (Traffic.Fheap.size h);
    let out = ref [] in
    while not (Traffic.Fheap.is_empty h) do
      let k = Traffic.Fheap.min_key h in
      let v = Traffic.Fheap.min_val h in
      check_float_exact "val matches key" keys.(v) k;
      out := k :: !out;
      Traffic.Fheap.pop_min h
    done;
    let drained = Array.of_list (List.rev !out) in
    let sorted = Array.copy keys in
    Array.sort compare sorted;
    check_true "drain is the sorted multiset" (drained = sorted)
  done

let test_fheap_replace_min () =
  (* replace_min must behave exactly like pop_min + push against a
     sorted-list model. *)
  let r = rng ~seed:32 () in
  let h = Traffic.Fheap.create ~cap:4 () in
  let model = ref [] in
  for i = 1 to 64 do
    let k = Prng.Rng.float r in
    Traffic.Fheap.push h k i;
    model := List.sort compare (k :: !model)
  done;
  for _ = 1 to 500 do
    let k' = Prng.Rng.float r in
    check_float_exact "min tracks model" (List.hd !model)
      (Traffic.Fheap.min_key h);
    Traffic.Fheap.replace_min h k' 0;
    model := List.sort compare (k' :: List.tl !model)
  done;
  check_int "size unchanged" 64 (Traffic.Fheap.size h)

let test_kway_pin () =
  let r = rng ~seed:33 () in
  let arrays =
    Array.init 7 (fun _ ->
        let a = Array.init (Prng.Rng.int r 200) (fun _ -> Prng.Rng.float r) in
        Array.sort compare a;
        a)
  in
  let out = Traffic.Arrival.merge (Array.to_list arrays) in
  let oracle = Array.concat (Array.to_list arrays) in
  Array.sort compare oracle;
  check_true "merge = concat + sort" (out = oracle)

(* ---------------- Traffic.Superpose ---------------- *)

let sp_sources =
  List.init 20 (fun i ->
      Traffic.Onoff.pareto_source ~beta:1.5 ~mean_period:5.
        ~on_rate:(2. +. (0.1 *. float_of_int i)))

let test_superpose_equals_naive () =
  let a =
    Traffic.Superpose.arrivals ~sources:sp_sources ~horizon:200.
      (rng ~seed:41 ())
  in
  let b =
    Traffic.Superpose.arrivals_naive ~sources:sp_sources ~horizon:200.
      (rng ~seed:41 ())
  in
  check_int "same count" (Array.length a) (Array.length b);
  Array.iteri
    (fun i x -> check_true "bit-identical times" (bits x = bits b.(i)))
    a;
  check_true "nonempty" (Array.length a > 1000)

let sp_collect chunk =
  let ts = ref [] and ss = ref [] in
  Traffic.Superpose.iter ~chunk ~sources:sp_sources ~horizon:200.
    (rng ~seed:41 ())
    (fun times srcs len ->
      ts := Array.sub times 0 len :: !ts;
      ss := Array.sub srcs 0 len :: !ss);
  ( Array.concat (List.rev !ts),
    Array.concat (List.rev !ss) )

let test_superpose_chunk_invariant () =
  let t1, s1 = sp_collect 512 in
  let t2, s2 = sp_collect 65536 in
  check_int "same count" (Array.length t1) (Array.length t2);
  check_true "times chunk-invariant"
    (Array.for_all2 (fun a b -> bits a = bits b) t1 t2);
  check_true "sources chunk-invariant" (s1 = s2);
  let mat =
    Traffic.Superpose.arrivals ~sources:sp_sources ~horizon:200.
      (rng ~seed:41 ())
  in
  check_true "iter = arrivals"
    (Array.for_all2 (fun a b -> bits a = bits b) t1 mat)

(* ---------------- Queueing.Network pins ---------------- *)

let poisson_arrivals ~seed ~rate ~duration =
  Traffic.Poisson_proc.homogeneous ~rate ~duration (rng ~seed ())

let push_all ?(chunk = 777) net times srcs =
  let n = Array.length times in
  let pos = ref 0 in
  while !pos < n do
    let len = Int.min chunk (n - !pos) in
    Queueing.Network.push_chunk net ~times ~srcs ~pos:!pos ~len;
    pos := !pos + len
  done;
  Queueing.Network.finish net

let test_network_droptail_equals_fifo () =
  let arrivals = poisson_arrivals ~seed:51 ~rate:100. ~duration:200. in
  let srcs = Array.make (Array.length arrivals) 0 in
  let service_time = 0.008 and buffer = 16 in
  let net =
    Queueing.Network.create ~topology:(Queueing.Network.Tandem 1)
      ~discipline:Queueing.Network.Drop_tail ~buffer
      ~services:[| service_time |] ()
  in
  let stats = (push_all net arrivals srcs).(0) in
  let f = Queueing.Fifo.simulate_const ~buffer ~arrivals ~service_time () in
  let c0 = stats.Queueing.Network.classes.(0) in
  check_int "served" f.Queueing.Fifo.n c0.Queueing.Network.served;
  check_int "dropped" f.Queueing.Fifo.dropped c0.Queueing.Network.dropped;
  check_float_exact "mean wait" f.Queueing.Fifo.mean_wait
    c0.Queueing.Network.mean_wait;
  check_float_exact "max wait" f.Queueing.Fifo.max_wait
    c0.Queueing.Network.max_wait;
  check_float_exact "utilization" f.Queueing.Fifo.utilization
    stats.Queueing.Network.utilization;
  check_true "some drops" (c0.Queueing.Network.dropped > 0)

let test_network_priority_equals_priority () =
  let high = poisson_arrivals ~seed:52 ~rate:60. ~duration:200. in
  let low = poisson_arrivals ~seed:53 ~rate:40. ~duration:200. in
  (* Merge into one (time, src) stream: class = src land 1. *)
  let n = Array.length high + Array.length low in
  let times = Array.make n 0. and srcs = Array.make n 0 in
  let i = ref 0 and j = ref 0 in
  for k = 0 to n - 1 do
    let take_high =
      !j >= Array.length low
      || (!i < Array.length high && high.(!i) <= low.(!j))
    in
    if take_high then begin
      times.(k) <- high.(!i);
      srcs.(k) <- 0;
      incr i
    end
    else begin
      times.(k) <- low.(!j);
      srcs.(k) <- 1;
      incr j
    end
  done;
  let service_high = 0.006 and service_low = 0.009 in
  let net =
    Queueing.Network.create ~topology:(Queueing.Network.Tandem 1)
      ~discipline:Queueing.Network.Priority ~buffer:0
      ~services:[| service_high |] ~services_low:[| service_low |] ()
  in
  let stats = (push_all net times srcs).(0) in
  let p = Queueing.Priority.simulate ~high ~low ~service_high ~service_low in
  let ch = stats.Queueing.Network.classes.(0)
  and cl = stats.Queueing.Network.classes.(1) in
  check_int "high served" p.Queueing.Priority.high.Queueing.Priority.served
    ch.Queueing.Network.served;
  check_float_exact "high mean wait"
    p.Queueing.Priority.high.Queueing.Priority.mean_wait
    ch.Queueing.Network.mean_wait;
  check_float_exact "high max wait"
    p.Queueing.Priority.high.Queueing.Priority.max_wait
    ch.Queueing.Network.max_wait;
  check_int "low served" p.Queueing.Priority.low.Queueing.Priority.served
    cl.Queueing.Network.served;
  check_float_exact "low mean wait"
    p.Queueing.Priority.low.Queueing.Priority.mean_wait
    cl.Queueing.Network.mean_wait;
  check_float_exact "low max wait"
    p.Queueing.Priority.low.Queueing.Priority.max_wait
    cl.Queueing.Network.max_wait

(* ---------------- zero-alloc + RED determinism ---------------- *)

(* The zero-alloc contract, asserted: after warmup, the push loop must
   allocate (asymptotically) nothing per event. The residual budget of
   0.05 minor words/event covers the per-chunk boxed scalar stores. *)
let measure_words_per_event ~topology ~discipline ~buffer =
  let duration = 400. in
  let arrivals = poisson_arrivals ~seed:54 ~rate:500. ~duration in
  let n = Array.length arrivals in
  let srcs = Array.init n (fun i -> i) in
  let net =
    Queueing.Network.create ~topology ~discipline ~buffer
      ~services:
        (Array.make
           (match topology with
           | Queueing.Network.Tandem k -> k
           | Queueing.Network.Fan_in m -> m + 1)
           0.0015)
      ()
  in
  let chunk = 4096 in
  let warm = Int.min n (20 * chunk) in
  let pos = ref 0 in
  while !pos < warm do
    let len = Int.min chunk (warm - !pos) in
    Queueing.Network.push_chunk net ~times:arrivals ~srcs ~pos:!pos ~len;
    pos := !pos + len
  done;
  let w0 = Gc.minor_words () in
  let measured = n - !pos in
  while !pos < n do
    let len = Int.min chunk (n - !pos) in
    Queueing.Network.push_chunk net ~times:arrivals ~srcs ~pos:!pos ~len;
    pos := !pos + len
  done;
  let dw = Gc.minor_words () -. w0 in
  ignore (Queueing.Network.finish net);
  dw /. float_of_int (Int.max 1 measured)

let test_network_zero_alloc_droptail () =
  let w =
    measure_words_per_event ~topology:(Queueing.Network.Tandem 2)
      ~discipline:Queueing.Network.Drop_tail ~buffer:32
  in
  check_true
    (Printf.sprintf "droptail tandem: %.4f minor words/event < 0.05" w)
    (w < 0.05)

let test_network_zero_alloc_red () =
  let w =
    measure_words_per_event ~topology:(Queueing.Network.Fan_in 3)
      ~discipline:(Queueing.Network.Red (Core.Netsim.red_of_buffer 16))
      ~buffer:16
  in
  check_true
    (Printf.sprintf "red fan-in: %.4f minor words/event < 0.05" w)
    (w < 0.05)

let red_stats chunk =
  let arrivals = poisson_arrivals ~seed:55 ~rate:200. ~duration:300. in
  let srcs = Array.init (Array.length arrivals) (fun i -> i) in
  let net =
    Queueing.Network.create ~seed:9
      ~topology:(Queueing.Network.Tandem 1)
      ~discipline:(Queueing.Network.Red (Core.Netsim.red_of_buffer 8))
      ~buffer:8 ~services:[| 0.006 |] ()
  in
  (push_all ~chunk net arrivals srcs).(0)

let test_red_chunk_invariant () =
  (* RED consumes one uniform per ramp decision — a deterministic
     function of the arrival sequence — so the drop SEQUENCE (hash),
     the counts and the waits are chunk-size invariant. *)
  let a = red_stats 64 and b = red_stats 1_000_000 in
  check_int "drop hash" a.Queueing.Network.drop_hash
    b.Queueing.Network.drop_hash;
  Array.iteri
    (fun c (ca : Queueing.Network.class_stats) ->
      let cb = b.Queueing.Network.classes.(c) in
      check_int "served" ca.Queueing.Network.served cb.Queueing.Network.served;
      check_int "dropped" ca.Queueing.Network.dropped
        cb.Queueing.Network.dropped;
      check_float_exact "mean wait" ca.Queueing.Network.mean_wait
        cb.Queueing.Network.mean_wait)
    a.Queueing.Network.classes;
  check_true "red dropped something"
    (a.Queueing.Network.classes.(0).Queueing.Network.dropped
     + a.Queueing.Network.classes.(1).Queueing.Network.dropped
     > 0)

let test_red_drop_prob_monotone () =
  let r = Core.Netsim.red_of_buffer 64 in
  check_float_exact "zero below min_th"
    0. (Queueing.Network.red_drop_prob r (r.Queueing.Network.min_th -. 0.01));
  check_float_exact "one at max_th" 1.
    (Queueing.Network.red_drop_prob r r.Queueing.Network.max_th);
  check_float_exact "one past max_th" 1.
    (Queueing.Network.red_drop_prob r (r.Queueing.Network.max_th +. 5.));
  let prev = ref 0. in
  for i = 0 to 700 do
    let avg = 0.1 *. float_of_int i in
    let p = Queueing.Network.red_drop_prob r avg in
    check_true "monotone in avg" (p >= !prev);
    check_true "a probability" (p >= 0. && p <= 1.);
    prev := p
  done;
  check_true "ramp stays under max_p below max_th"
    (Queueing.Network.red_drop_prob r (r.Queueing.Network.max_th -. 1e-6)
     <= r.Queueing.Network.max_p +. 1e-9)

(* ---------------- bulk kernels ---------------- *)

let test_sketch_add_slice_equals_add () =
  let r = rng ~seed:61 () in
  let xs =
    Array.init 5000 (fun i ->
        if i land 7 = 0 then 0.
        else (1e-3 +. Prng.Rng.float r) ** -1.5)
  in
  let a = Stats.Quantile_sketch.create () in
  Array.iter (Stats.Quantile_sketch.add a) xs;
  let b = Stats.Quantile_sketch.create () in
  Stats.Quantile_sketch.add_slice b xs 0 1234;
  Stats.Quantile_sketch.add_slice b xs 1234 (5000 - 1234);
  check_true "identical wire form"
    (Stats.Quantile_sketch.to_string a = Stats.Quantile_sketch.to_string b);
  check_int "count" (Stats.Quantile_sketch.count a)
    (Stats.Quantile_sketch.count b);
  check_float_exact "sum" (Stats.Quantile_sketch.sum a)
    (Stats.Quantile_sketch.sum b);
  check_invalid_arg "bad slice" "Quantile_sketch.add_slice" (fun () ->
      Stats.Quantile_sketch.add_slice b xs 4000 2000);
  check_invalid_arg "nan rejected, nothing added" "Quantile_sketch" (fun () ->
      Stats.Quantile_sketch.add_slice b [| 1.; nan; 2. |] 0 3);
  check_int "failed slice added nothing" (Stats.Quantile_sketch.count a)
    (Stats.Quantile_sketch.count b)

let test_rng_fill_float_equals_float () =
  let r1 = Prng.Rng.create 77 in
  let r2 = Prng.Rng.create 77 in
  let n = 1000 in
  let a = Array.init n (fun _ -> Prng.Rng.float r1) in
  let b = Array.make n 0. in
  Prng.Rng.fill_float r2 b 0 n;
  check_true "identical stream"
    (Array.for_all2 (fun x y -> bits x = bits y) a b);
  check_int "draw count advances identically" (Prng.Rng.draw_count r1)
    (Prng.Rng.draw_count r2);
  check_float_exact "streams stay in lockstep" (Prng.Rng.float r1)
    (Prng.Rng.float r2);
  check_invalid_arg "bad slice" "Rng.fill_float" (fun () ->
      Prng.Rng.fill_float r2 b 500 501)

(* ---------------- Core.Netsim ---------------- *)

let small_nspec =
  {
    Core.Netsim.default with
    events = 2e4;
    replicas = 3;
    sources = 8;
    topology = "fanin:2";
    discipline = "red";
    buffer = 8;
    chunk = 1024;
    seed = 7;
  }

let render spec r =
  Format.asprintf "%a" (fun fmt r -> Core.Netsim.pp fmt spec r) r

let test_netsim_spec_validation () =
  let bad f = { small_nspec with workers = 1 } |> f in
  check_invalid_arg "bad model" "netsim" (fun () ->
      Core.Netsim.plan (bad (fun s -> { s with Core.Netsim.model = "mginf" })));
  check_invalid_arg "bad topology" "netsim" (fun () ->
      Core.Netsim.plan
        (bad (fun s -> { s with Core.Netsim.topology = "tandem:9" })));
  check_invalid_arg "bad discipline" "netsim" (fun () ->
      Core.Netsim.plan
        (bad (fun s -> { s with Core.Netsim.discipline = "codel" })));
  check_invalid_arg "red needs a buffer" "netsim" (fun () ->
      Core.Netsim.plan (bad (fun s -> { s with Core.Netsim.buffer = 0 })));
  check_invalid_arg "bad replicas" "netsim" (fun () ->
      Core.Netsim.plan (bad (fun s -> { s with Core.Netsim.replicas = 0 })));
  check_invalid_arg "bad load" "netsim" (fun () ->
      Core.Netsim.plan (bad (fun s -> { s with Core.Netsim.load = 0. })));
  let p = Core.Netsim.plan small_nspec in
  check_int "fanin:2 has 3 links" 3 p.Core.Netsim.n_links

let test_netsim_inline_deterministic () =
  let a = render small_nspec (Core.Netsim.run_inline small_nspec) in
  let b = render small_nspec (Core.Netsim.run_inline small_nspec) in
  check_true "two inline runs byte-identical" (a = b);
  check_true "nonempty report" (String.length a > 100);
  let shifted = { small_nspec with Core.Netsim.seed = 8 } in
  let c = render shifted (Core.Netsim.run_inline shifted) in
  check_true "seed changes the report" (a <> c)

let test_netsim_process_equals_inline () =
  let inline = render small_nspec (Core.Netsim.run_inline small_nspec) in
  List.iter
    (fun workers ->
      let spec = { small_nspec with Core.Netsim.workers } in
      match Core.Netsim.run ~exe:wanpoisson_exe spec with
      | Error e -> Alcotest.failf "workers=%d: %s" workers e
      | Ok r ->
        check_true
          (Printf.sprintf "workers=%d report = inline" workers)
          (render small_nspec r = inline))
    [ 1; 2; 5 ]

(* A worker SIGKILLed through the engine's crash hook fails the run with
   an error naming it, and the coordinator logs netsim.worker_died. *)
let test_netsim_crash_detected () =
  Engine.Log.set_enabled true;
  Engine.Log.reset ();
  Fun.protect
    ~finally:(fun () ->
      Engine.Log.reset ();
      Engine.Log.set_enabled false)
    (fun () ->
      match
        Core.Netsim.run ~exe:wanpoisson_exe
          ~opts:{ Engine.Job.default_opts with inject_crash = 1 }
          { small_nspec with Core.Netsim.workers = 2 }
      with
      | Ok _ -> Alcotest.fail "crashed worker went unnoticed"
      | Error e ->
        let mentions needle =
          let n = String.length needle in
          let rec go i =
            i + n <= String.length e && (String.sub e i n = needle || go (i + 1))
          in
          go 0
        in
        check_true "names the worker" (mentions "worker 1");
        check_true "names the signal" (mentions "SIGKILL");
        check_true "logs netsim.worker_died for worker 1"
          (List.exists
             (fun (ev : Engine.Log.event) ->
               ev.ev_name = "netsim.worker_died"
               && List.assoc_opt "worker" ev.fields = Some (Engine.Log.I 1))
             (Engine.Log.events ())))

let test_netsim_rejects_non_finite () =
  List.iter
    (fun (field, set) ->
      List.iter
        (fun v ->
          check_invalid_arg_mentions
            (Printf.sprintf "%s = %g" field v)
            field
            (fun () -> Core.Netsim.plan (set small_nspec v)))
        [ nan; infinity; neg_infinity ])
    [
      ("events", fun s v -> { s with Core.Netsim.events = v });
      ("beta", fun s v -> { s with Core.Netsim.beta = v });
      ("mean-period", fun s v -> { s with Core.Netsim.mean_period = v });
      ("on-rate", fun s v -> { s with Core.Netsim.on_rate = v });
      ("rate", fun s v -> { s with Core.Netsim.rate = v });
      ("load", fun s v -> { s with Core.Netsim.load = v });
    ];
  (* The poisson model ignores the ON/OFF fields but still rejects them
     non-finite: they cross to the workers all the same. *)
  check_invalid_arg_mentions "poisson, on-rate = inf" "on-rate" (fun () ->
      Core.Netsim.plan
        { small_nspec with Core.Netsim.model = "poisson"; on_rate = infinity })

let nspec_gen =
  QCheck.(
    map
      (fun ((model, events, replicas, sources), (beta, mean_period, on_rate, rate),
            (load, topology, discipline, buffer), (chunk, seed, workers)) ->
        { Core.Netsim.model; events; replicas; sources; beta; mean_period;
          on_rate; rate; load; topology; discipline; buffer; chunk; seed;
          workers })
      (quad
         (quad (oneofl [ "onoff"; "poisson" ]) (float_range 1. 1e12)
            (int_range 1 4096) (int_range 1 1_000_000))
         (quad (float_range 1.001 10.) (float_range 1e-3 1e3)
            (float_range 1e-3 1e3) (float_range 1e-3 1e6))
         (quad (float_range 1e-3 4.)
            (oneofl [ "tandem:1"; "tandem:8"; "fanin:1"; "fanin:7" ])
            (oneofl [ "droptail"; "red"; "priority" ])
            (int_range 1 1_000_000))
         (triple (int_range 256 (1 lsl 24)) int (int_range 1 1024))))

let test_netsim_spec_json_roundtrip =
  prop ~count:500 "netsim spec -> JSON -> spec is the identity" nspec_gen
    (fun spec ->
      QCheck.assume
        (match Core.Netsim.plan spec with
        | _ -> true
        | exception Invalid_argument _ -> false);
      let job = Core.Netsim.job in
      match Engine.Json.parse (Engine.Json.to_string (job.spec_to_json spec)) with
      | Error _ -> false
      | Ok j -> job.spec_of_json j = Ok spec)

let suite =
  ( "netsim",
    [
      tc "fheap: drain is sorted" test_fheap_sorted_drain;
      tc "fheap: replace_min = pop + push" test_fheap_replace_min;
      tc "kway merge pinned to concat + sort" test_kway_pin;
      tc "superpose = naive merge, bit for bit" test_superpose_equals_naive;
      tc "superpose chunk-invariant" test_superpose_chunk_invariant;
      tc "network droptail = Fifo.simulate_const"
        test_network_droptail_equals_fifo;
      tc "network priority = Priority.simulate"
        test_network_priority_equals_priority;
      tc "network push loop allocation-free (droptail)"
        test_network_zero_alloc_droptail;
      tc "network push loop allocation-free (red)"
        test_network_zero_alloc_red;
      tc "red drop sequence chunk-invariant" test_red_chunk_invariant;
      tc "red drop probability monotone" test_red_drop_prob_monotone;
      tc "sketch add_slice = repeated add" test_sketch_add_slice_equals_add;
      tc "rng fill_float = repeated float" test_rng_fill_float_equals_float;
      tc "netsim spec validation" test_netsim_spec_validation;
      tc "netsim run_inline deterministic" test_netsim_inline_deterministic;
      tc "netsim processes = inline (workers 1/2/5)"
        test_netsim_process_equals_inline;
      tc "netsim killed worker detected" test_netsim_crash_detected;
      tc "netsim non-finite spec floats rejected"
        test_netsim_rejects_non_finite;
      test_netsim_spec_json_roundtrip;
    ] )
