type stats = {
  served : int;
  mean_wait : float;
  max_wait : float;
  mean_in_system : float;
}

(* Earliest-free-server assignment: a k-entry min-heap of server free
   times implements FCFS exactly. *)
let departure_times ~k ~arrivals ~service rng =
  let n = Array.length arrivals in
  let servers = Heap.create () in
  for _ = 1 to k do
    Heap.push servers neg_infinity ()
  done;
  Array.init n (fun i ->
      let t = arrivals.(i) in
      let free, () = Option.get (Heap.pop_min servers) in
      let start = Float.max t free in
      let s = service rng in
      assert (s > 0.);
      let dep = start +. s in
      Heap.push servers dep ();
      (start, dep))

let simulate ~k ~arrivals ~service rng =
  assert (k >= 1 && Array.length arrivals > 0);
  let deps = departure_times ~k ~arrivals ~service rng in
  let n = Array.length arrivals in
  let sum_wait = ref 0. and max_wait = ref 0. and sum_sojourn = ref 0. in
  Array.iteri
    (fun i (start, dep) ->
      let wait = start -. arrivals.(i) in
      sum_wait := !sum_wait +. wait;
      if wait > !max_wait then max_wait := wait;
      sum_sojourn := !sum_sojourn +. (dep -. arrivals.(i)))
    deps;
  let horizon =
    Float.max 1e-9 (snd deps.(n - 1) -. arrivals.(0))
  in
  {
    served = n;
    mean_wait = !sum_wait /. float_of_int n;
    max_wait = !max_wait;
    (* Little's law: E[N] = lambda E[T]. *)
    mean_in_system = !sum_sojourn /. horizon;
  }

let count_process ~k ~rate ~service ~dt ~n ?warmup rng =
  assert (k >= 1 && rate > 0. && dt > 0. && n > 0);
  let span = float_of_int n *. dt in
  let warmup = match warmup with Some w -> w | None -> span in
  let horizon = warmup +. span in
  let arrivals = Traffic.Poisson_proc.homogeneous ~rate ~duration:horizon rng in
  let deps = departure_times ~k ~arrivals ~service rng in
  let diff = Array.make (n + 1) 0 in
  let index_of time =
    let i = Float.ceil ((time -. warmup) /. dt) in
    int_of_float (Float.max 0. i)
  in
  Array.iteri
    (fun i (_, dep) ->
      if dep > warmup then begin
        let i0 = Int.min n (index_of arrivals.(i)) in
        let i1 = Int.min n (index_of dep) in
        if i1 > i0 then begin
          diff.(i0) <- diff.(i0) + 1;
          diff.(i1) <- diff.(i1) - 1
        end
      end)
    deps;
  let out = Array.make n 0. in
  let acc = ref 0 in
  for i = 0 to n - 1 do
    acc := !acc + diff.(i);
    out.(i) <- float_of_int !acc
  done;
  out
