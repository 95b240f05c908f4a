let iter_chunks ?(chunk = 65536) ~rate ~service ~dt ~n ?warmup rng f =
  assert (rate > 0. && dt > 0. && n > 0);
  let span = float_of_int n *. dt in
  let warmup = match warmup with Some w -> w | None -> span in
  let horizon = warmup +. span in
  let index_of time =
    (* First sample index k with warmup + k dt >= time; negative times
       clamp to 0. *)
    let k = Float.ceil ((time -. warmup) /. dt) in
    int_of_float (Float.max 0. k)
  in
  (* Departure sample indices of customers still in the system, as
     exact float keys in the shared heap; O(active customers) memory,
     i.e. ~ rate * mean service, independent of the trace length. *)
  let departures = Fheap.create ~cap:256 () in
  let active = ref 0 in
  (* One arrival of lookahead: [pending] is the entry index of the next
     arrival not yet counted in [active]; [exhausted] once the gap draw
     crosses the horizon. Draw order (gap, then service iff the arrival
     is in range) matches the materialized implementation exactly. *)
  let t = ref 0. in
  let pending = ref (-1) in
  let exhausted = ref false in
  let draw_next () =
    t := !t -. (log (Prng.Rng.float_pos rng) /. rate);
    if !t >= horizon then exhausted := true
    else begin
      let s = service rng in
      assert (s > 0.);
      let dep = !t +. s in
      let i0 = Int.min n (index_of !t) in
      let i1 = Int.min n (index_of dep) in
      if dep > warmup && i1 > i0 then begin
        pending := i0;
        Fheap.push departures (float_of_int i1) 0
        (* The pending arrival's departure is already in the heap; it
           cannot precede i0, so it is never popped before the arrival
           is activated. *)
      end
      else pending := -1 (* in-range arrival that spans no sample *)
    end
  in
  let cap = Int.min (Int.max 1 chunk) n in
  let buf = Array.make cap 0. in
  let fill = ref 0 in
  draw_next ();
  for k = 0 to n - 1 do
    (* Admit every arrival whose first covered sample is <= k. *)
    while
      (not !exhausted) && (!pending = -1 || !pending <= k)
    do
      if !pending >= 0 then incr active;
      draw_next ()
    done;
    while
      (not (Fheap.is_empty departures))
      && Fheap.min_key departures <= float_of_int k
    do
      Fheap.pop_min departures;
      decr active
    done;
    buf.(!fill) <- float_of_int !active;
    incr fill;
    if !fill = cap then begin
      f buf;
      fill := 0
    end
  done;
  if !fill > 0 then f (Array.sub buf 0 !fill);
  (* Drain the remaining arrivals so the caller's RNG ends in the same
     state as after the materialized run (which always generates to the
     horizon). *)
  while not !exhausted do
    draw_next ()
  done

let count_process ~rate ~service ~dt ~n ?warmup rng =
  let out = Array.make n 0. in
  let pos = ref 0 in
  iter_chunks ~rate ~service ~dt ~n ?warmup rng (fun c ->
      let len = Array.length c in
      Array.blit c 0 out !pos len;
      pos := !pos + len);
  out

let hurst_pareto ~beta =
  assert (beta > 1. && beta < 2.);
  (3. -. beta) /. 2.
