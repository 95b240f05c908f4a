type stats = {
  n : int;
  mean_wait : float;
  mean_sojourn : float;
  max_wait : float;
  p50_wait : float;
  p99_wait : float;
  p999_wait : float;
  utilization : float;
  dropped : int;
}

let simulate ?buffer ~arrivals ~service rng =
  let n = Array.length arrivals in
  assert (n > 0);
  (* Departure times of packets still in the system, oldest first; lets
     a finite buffer be checked at each arrival. *)
  let in_system = Queue.create () in
  let last_departure = ref neg_infinity in
  let busy = ref 0. and served = ref 0 and dropped = ref 0 in
  let sum_wait = ref 0. and sum_sojourn = ref 0. and max_wait = ref 0. in
  let waits = ref [] in
  Array.iter
    (fun t ->
      while (not (Queue.is_empty in_system)) && Queue.peek in_system <= t do
        ignore (Queue.pop in_system)
      done;
      let queue_ok =
        match buffer with
        | None -> true
        | Some b -> Queue.length in_system <= b
        (* length includes the packet in service; [b] waiting slots. *)
      in
      if not queue_ok then incr dropped
      else begin
        let s = service rng in
        assert (s > 0.);
        let start = Float.max t !last_departure in
        let departure = start +. s in
        let wait = start -. t in
        last_departure := departure;
        Queue.push departure in_system;
        busy := !busy +. s;
        incr served;
        sum_wait := !sum_wait +. wait;
        sum_sojourn := !sum_sojourn +. wait +. s;
        if wait > !max_wait then max_wait := wait;
        waits := wait :: !waits
      end)
    arrivals;
  let wait_arr = Array.of_list !waits in
  let q p =
    if Array.length wait_arr = 0 then 0.
    else Stats.Descriptive.quantile wait_arr p
  in
  let served_f = float_of_int (Int.max 1 !served) in
  let horizon = Float.max (!last_departure -. arrivals.(0)) 1e-9 in
  {
    n = !served;
    mean_wait = !sum_wait /. served_f;
    mean_sojourn = !sum_sojourn /. served_f;
    max_wait = !max_wait;
    p50_wait = q 0.5;
    p99_wait = q 0.99;
    p999_wait = q 0.999;
    utilization = !busy /. horizon;
    dropped = !dropped;
  }

let simulate_const ?buffer ~arrivals ~service_time () =
  assert (service_time > 0.);
  let rng = Prng.Rng.create 0 in
  simulate ?buffer ~arrivals ~service:(fun _ -> service_time) rng
