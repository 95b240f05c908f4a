let is_sorted xs =
  let ok = ref true in
  for i = 1 to Array.length xs - 1 do
    if xs.(i) < xs.(i - 1) then ok := false
  done;
  !ok

(* K-way merge of individually sorted sources into [out] via the shared
   {!Fheap} index-heap, keyed on each source's current head with the
   source index as payload. O(N log k) instead of the O(N log N)
   concat-and-sort, and the traces merge hundreds of sorted
   per-connection arrays. Equal elements are floats, so any tie order
   yields the same output array. *)
let kway arrays out =
  let k = Array.length arrays in
  let idx = Array.make k 0 in
  let h = Fheap.create ~cap:(Int.max 1 k) () in
  Array.iteri
    (fun s a -> if Array.length a > 0 then Fheap.push h a.(0) s)
    arrays;
  let pos = ref 0 in
  while not (Fheap.is_empty h) do
    let s = Fheap.min_val h in
    out.(!pos) <- Fheap.min_key h;
    incr pos;
    let i = idx.(s) + 1 in
    idx.(s) <- i;
    let a = arrays.(s) in
    if i < Array.length a then Fheap.replace_min h a.(i) s
    else Fheap.pop_min h
  done

let merge lists =
  (* Callers normally hand over sorted arrival streams; tolerate unsorted
     input (property tests, ad-hoc callers) by sorting a copy of just
     those sources. Either way the result is the sorted multiset union. *)
  let arrays =
    List.map
      (fun a ->
        if is_sorted a then a
        else begin
          let c = Array.copy a in
          Array.sort Float.compare c;
          c
        end)
      lists
  in
  let total = List.fold_left (fun acc a -> acc + Array.length a) 0 arrays in
  let out = Array.make total 0. in
  match List.filter (fun a -> Array.length a > 0) arrays with
  | [] -> out
  | [ a ] ->
    Array.blit a 0 out 0 total;
    out
  | arrays ->
    kway (Array.of_list arrays) out;
    out

let shift dt xs = Array.map (fun t -> t +. dt) xs

let clip ~lo ~hi xs =
  let n = ref 0 in
  Array.iter (fun t -> if t >= lo && t < hi then incr n) xs;
  let out = Array.make !n 0. in
  let i = ref 0 in
  Array.iter
    (fun t ->
      if t >= lo && t < hi then begin
        out.(!i) <- t;
        incr i
      end)
    xs;
  out

let thin ~keep rng xs =
  assert (keep >= 0. && keep <= 1.);
  (* Single pass: exactly one RNG draw per event, in order. *)
  let tmp = Array.make (Array.length xs) 0. in
  let n = ref 0 in
  Array.iter
    (fun t ->
      if Prng.Rng.float rng < keep then begin
        tmp.(!n) <- t;
        incr n
      end)
    xs;
  Array.sub tmp 0 !n

let interarrivals xs =
  assert (Array.length xs >= 2);
  Array.init (Array.length xs - 1) (fun i -> xs.(i + 1) -. xs.(i))
