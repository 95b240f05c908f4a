(* The mergeable summary of a run of bin counts; see count_summary.mli. *)

type t = {
  pyr : Timeseries.Pyramid.t;
  tail : float array;  (* the largest counts so far, descending *)
  mutable tn : int;  (* filled slots in [tail] *)
  sk : Stats.Quantile_sketch.t;
  mutable total : float;
}

let top_k = 64
let sketch_accuracy = 0.01

let create ?(top_k = top_k) () =
  if top_k < 2 then
    invalid_arg
      (Printf.sprintf "Count_summary.create: top_k = %d (want >= 2)" top_k);
  {
    pyr = Timeseries.Pyramid.create ();
    tail = Array.make top_k neg_infinity;
    tn = 0;
    sk = Stats.Quantile_sketch.create ~accuracy:sketch_accuracy ();
    total = 0.;
  }

let count t = Timeseries.Pyramid.count t.pyr
let total t = t.total
let pyramid t = t.pyr
let sketch t = t.sk

let ceil_pow2 n =
  let p = ref 1 in
  while !p < n do
    p := !p lsl 1
  done;
  !p

(* Insertion into the descending tail; O(k) only when [v] is kept. *)
let offer t v =
  let k = Array.length t.tail in
  if t.tn < k || v > t.tail.(k - 1) then begin
    let i = ref (Int.min t.tn (k - 1)) in
    while !i > 0 && t.tail.(!i - 1) < v do
      t.tail.(!i) <- t.tail.(!i - 1);
      decr i
    done;
    t.tail.(!i) <- v;
    if t.tn < k then t.tn <- t.tn + 1
  end

let push_slice t xs pos len =
  Timeseries.Pyramid.push_slice t.pyr xs pos len;
  for i = pos to pos + len - 1 do
    t.total <- t.total +. xs.(i);
    offer t xs.(i)
  done;
  Stats.Quantile_sketch.add_slice t.sk xs pos len

type part = {
  snap : Timeseries.Pyramid.snapshot;
  tops : float array;
  p_sk : Stats.Quantile_sketch.t;
  events : int;
}

let tops t = Array.sub t.tail 0 t.tn

let part t =
  {
    snap = Timeseries.Pyramid.snapshot t.pyr;
    tops = tops t;
    p_sk = t.sk;
    events = int_of_float t.total;
  }

(* The top-k of a concatenation keeps the largest of both parts' top-ks,
   so offering the part's tail rebuilds the whole run's. *)
let absorb t p =
  Timeseries.Pyramid.merge_into t.pyr p.snap;
  Array.iter (offer t) p.tops;
  Stats.Quantile_sketch.merge_into t.sk p.p_sk;
  t.total <- t.total +. float_of_int p.events

let encode p =
  let b = Buffer.create 1024 in
  Engine.Frame.Wr.i64 b p.events;
  Engine.Frame.Wr.u32 b (Array.length p.tops);
  Array.iter (Engine.Frame.Wr.f64 b) p.tops;
  Engine.Frame.Wr.str b (Timeseries.Pyramid.snapshot_to_string p.snap);
  Buffer.add_string b (Stats.Quantile_sketch.to_string p.p_sk);
  Buffer.contents b

let decode s =
  let open Engine.Frame.Rd in
  match
    let c = of_string s in
    let events = i64 c in
    let n = u32 c in
    if n > 1 lsl 20 then raise (Malformed "tail too large");
    let tops = Array.init n (fun _ -> f64 c) in
    let snap = str c in
    (Timeseries.Pyramid.snapshot_of_string snap,
     Stats.Quantile_sketch.of_string (rest c), events, tops)
  with
  | Ok snap, Ok p_sk, events, tops -> Ok { snap; tops; p_sk; events }
  | Error e, _, _, _ | _, Error e, _, _ -> Error e
  | exception Malformed m -> Error m

(* ---------------- read-out ---------------- *)

let ladder n =
  let rec go m acc = if m > n / 8 then List.rev acc else go (2 * m) (m :: acc) in
  match go 1 [] with _ :: _ :: _ :: _ as levels -> levels | _ -> []

let no_estimate = { Lrd.Hurst.h = nan; slope = nan; r2 = nan }

let variance_time ~levels pyr =
  if List.length levels < 2 || Timeseries.Pyramid.mean pyr = 0. then no_estimate
  else Lrd.Hurst.variance_time_of_pyramid ~levels pyr

let variance_time_of_counts counts =
  let levels = Timeseries.Counts.default_levels (Array.length counts) in
  if List.length levels < 2 || Stats.Descriptive.mean counts = 0. then no_estimate
  else Lrd.Hurst.variance_time counts

let h_vt t = variance_time ~levels:(ladder (count t)) t.pyr

let wavelet pyr =
  match Lrd.Wavelet.estimate_of_pyramid pyr with
  | e -> Some e
  | exception Invalid_argument _ -> None

let alpha t =
  let k = t.tn - 1 in
  if k < 8 || t.tail.(k) <= 0. then nan else Stats.Fit.hill (tops t) ~k

let pp_wavelet fmt = function
  | Some w ->
    Format.fprintf fmt
      "  H(wavelet)    %.6f  (slope %.6f, r2 %.4f, se %.4f, j %d..%d)@."
      w.Lrd.Wavelet.h w.Lrd.Wavelet.slope w.Lrd.Wavelet.r2
      w.Lrd.Wavelet.stderr_h w.Lrd.Wavelet.j_lo w.Lrd.Wavelet.j_hi
  | None -> Format.fprintf fmt "  H(wavelet)    n/a@."

let pp_count_q fmt sk =
  match Stats.Quantile_sketch.quantiles sk [ 0.5; 0.9; 0.99; 0.999 ] with
  | [ p50; p90; p99; p999 ] ->
    Format.fprintf fmt
      "  count-q       p50=%.6g p90=%.6g p99=%.6g p999=%.6g  (rel-err <= %g)@."
      p50 p90 p99 p999 (Stats.Quantile_sketch.accuracy sk)
  | _ -> ()
