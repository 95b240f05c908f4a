type 'a t = {
  push_ : float array -> unit;
  finish_ : unit -> 'a;
  name : string;
  mutable finished : bool;
}

let make ?(name = "sink") ~push ~finish () =
  { push_ = push; finish_ = finish; name; finished = false }

let push t chunk =
  if t.finished then
    invalid_arg
      (Printf.sprintf "Sink.push: %S already finished (lifecycle violation)"
         t.name);
  t.push_ chunk

let finish t =
  if t.finished then
    invalid_arg
      (Printf.sprintf "Sink.finish: %S already finished (lifecycle violation)"
         t.name);
  t.finished <- true;
  t.finish_ ()

let tee a b =
  make
    ~name:(Printf.sprintf "tee(%s,%s)" a.name b.name)
    ~push:(fun chunk ->
      push a chunk;
      push b chunk)
    ~finish:(fun () -> (finish a, finish b))
    ()

let fold ~init ~f =
  let acc = ref init in
  make ~name:"fold"
    ~push:(fun chunk -> acc := f !acc chunk)
    ~finish:(fun () -> !acc)
    ()

let to_array () =
  let buf = ref (Array.make 1024 0.) and n = ref 0 in
  let push chunk =
    let len = Array.length chunk in
    if !n + len > Array.length !buf then begin
      let cap = ref (Int.max 1024 (2 * Array.length !buf)) in
      while !n + len > !cap do
        cap := 2 * !cap
      done;
      let bigger = Array.make !cap 0. in
      Array.blit !buf 0 bigger 0 !n;
      buf := bigger
    end;
    Array.blit chunk 0 !buf !n len;
    n := !n + len
  in
  make ~name:"to_array" ~push ~finish:(fun () -> Array.sub !buf 0 !n) ()

let length () =
  let n = ref 0 in
  make ~name:"length"
    ~push:(fun chunk -> n := !n + Array.length chunk)
    ~finish:(fun () -> !n)
    ()

let of_pyramid p =
  make ~name:"pyramid"
    ~push:(fun chunk -> Pyramid.push p chunk)
    ~finish:(fun () -> p)
    ()

let counts ?(t_start = 0.) ~bin ~n_bins ?(chunk = 65536) inner =
  if bin <= 0. then
    invalid_arg (Printf.sprintf "Sink.counts: bin = %g (want > 0)" bin);
  if n_bins < 0 then
    invalid_arg (Printf.sprintf "Sink.counts: n_bins = %d (want >= 0)" n_bins);
  let chunk = Int.max 1 chunk in
  let horizon = t_start +. (float_of_int n_bins *. bin) in
  let buf = Array.make (Int.min chunk (Int.max 1 n_bins)) 0. in
  let cap = Array.length buf in
  (* Bins [base, base + filled) live in [buf]; bins below [base] were
     already pushed downstream. *)
  let base = ref 0 in
  let last_t = ref neg_infinity in
  let flush upto =
    (* Emit whole-buffer chunks until [upto] (exclusive) fits. *)
    while upto - !base > cap do
      push inner buf;
      Array.fill buf 0 cap 0.;
      base := !base + cap
    done
  in
  let push_events events =
    Array.iter
      (fun tm ->
        if tm < !last_t then
          invalid_arg
            (Printf.sprintf
               "Sink.counts: event times must be non-decreasing (%g after %g)"
               tm !last_t);
        last_t := tm;
        if tm >= t_start && tm < horizon then begin
          let i = int_of_float ((tm -. t_start) /. bin) in
          let i = Int.min i (n_bins - 1) in
          (* Sorted input can still clamp backwards into an emitted bin
             only via the ulp clamp on the very last bin, which is always
             >= base once reachable; a genuinely earlier bin was caught by
             the monotonicity check above. *)
          flush (i + 1);
          buf.(i - !base) <- buf.(i - !base) +. 1.
        end)
      events
  in
  let finish_counts () =
    let remaining = n_bins - !base in
    if remaining > 0 then
      if remaining = cap then push inner buf
      else push inner (Array.sub buf 0 remaining);
    finish inner
  in
  make ~name:"counts" ~push:push_events ~finish:finish_counts ()

let iter_array ?(chunk = 65536) xs sink =
  let chunk = Int.max 1 chunk in
  let n = Array.length xs in
  let pos = ref 0 in
  while !pos < n do
    let len = Int.min chunk (n - !pos) in
    push sink (if len = n then xs else Array.sub xs !pos len);
    pos := !pos + len
  done;
  finish sink
