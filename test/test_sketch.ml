(* PR 9: Stats.Quantile_sketch — the deterministic mergeable quantile
   summary behind the farm partials, the FIFO sink and the serve
   read-outs. The tests pin the documented error model (exact rank,
   relative value error <= accuracy), the merge-tree invariance the
   byte-identical-stdout contract leans on, and the wire codec. *)

open Helpers

let sk ?accuracy xs =
  let t = Stats.Quantile_sketch.create ?accuracy () in
  Array.iter (Stats.Quantile_sketch.add t) xs;
  t

(* The documented bound: for 0 < q < 1 the sketch returns a value
   within [accuracy] relative error of the order statistic of rank
   ceil (q * n); q = 0 / q = 1 report the exact extremes. *)
let check_bound ~accuracy xs q =
  let t = sk ~accuracy xs in
  let v = Stats.Quantile_sketch.quantile t q in
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  let n = Array.length xs in
  if q = 0. then check_true "q=0 exact" (v = sorted.(0))
  else if q = 1. then check_true "q=1 exact" (v = sorted.(n - 1))
  else begin
    let rank =
      let r = int_of_float (Float.ceil (q *. float_of_int n)) in
      Stdlib.min n (Stdlib.max 1 r)
    in
    let x = sorted.(rank - 1) in
    if Float.abs (v -. x) > (accuracy *. x) +. 1e-12 then
      Alcotest.failf "q=%g n=%d: sketch %.17g vs exact %.17g (acc %g)" q n v
        x accuracy
  end

let test_error_bound () =
  let r = rng ~seed:2024 () in
  let qs = [ 0.; 0.01; 0.25; 0.5; 0.9; 0.99; 0.999; 1. ] in
  for trial = 1 to 40 do
    let n = 1 + Prng.Rng.int r 2000 in
    let draw =
      match trial mod 4 with
      | 0 -> fun () -> Prng.Rng.float r (* uniform *)
      | 1 -> fun () -> -.Float.log (1e-300 +. Prng.Rng.float r) (* exp *)
      | 2 ->
        fun () -> (1e-3 +. Prng.Rng.float r) ** -2. (* heavy tail *)
      | _ -> fun () -> float_of_int (Prng.Rng.int r 5000) (* integers *)
    in
    let xs = Array.init n (fun _ -> draw ()) in
    let accuracy = if trial mod 2 = 0 then 0.01 else 0.05 in
    List.iter (check_bound ~accuracy xs) qs
  done

let test_zero_handling () =
  let t = sk [| 0.; 0.; 0.; 0. |] in
  check_true "all-zero median is 0" (Stats.Quantile_sketch.quantile t 0.5 = 0.);
  let m = sk [| 0.; 0.; 0.; 10.; 20. |] in
  (* rank ceil(0.5 * 5) = 3 <= 3 zeros *)
  check_true "zero-cell rank" (Stats.Quantile_sketch.quantile m 0.5 = 0.);
  check_true "above the zeros"
    (Float.abs (Stats.Quantile_sketch.quantile m 0.9 -. 20.) <= 0.2)

let test_empty_and_validation () =
  let t = Stats.Quantile_sketch.create () in
  check_true "empty quantile nan"
    (Float.is_nan (Stats.Quantile_sketch.quantile t 0.5));
  check_true "empty min nan" (Float.is_nan (Stats.Quantile_sketch.min t));
  check_true "empty mean nan" (Float.is_nan (Stats.Quantile_sketch.mean t));
  check_int "empty count" 0 (Stats.Quantile_sketch.count t);
  let rejects f = match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "accepted"
  in
  rejects (fun () -> Stats.Quantile_sketch.add t (-1.));
  rejects (fun () -> Stats.Quantile_sketch.add t Float.nan);
  rejects (fun () -> Stats.Quantile_sketch.add t Float.infinity);
  rejects (fun () -> Stats.Quantile_sketch.quantile t 1.5);
  rejects (fun () -> Stats.Quantile_sketch.create ~accuracy:0. ());
  rejects (fun () -> Stats.Quantile_sketch.create ~accuracy:0.6 ());
  rejects (fun () ->
      Stats.Quantile_sketch.merge
        (Stats.Quantile_sketch.create ~accuracy:0.01 ())
        (Stats.Quantile_sketch.create ~accuracy:0.02 ()))

let test_moments_exact () =
  let xs = Array.init 500 (fun i -> float_of_int (i * i mod 97)) in
  let t = sk xs in
  check_int "count" 500 (Stats.Quantile_sketch.count t);
  check_close "sum exact" (Array.fold_left ( +. ) 0. xs)
    (Stats.Quantile_sketch.sum t);
  check_true "min exact"
    (Stats.Quantile_sketch.min t = Array.fold_left Float.min infinity xs);
  check_true "max exact"
    (Stats.Quantile_sketch.max t
    = Array.fold_left Float.max neg_infinity xs)

(* Merge-tree invariance: shard sketches merged in any tree order equal
   the pooled single-pass sketch bit for bit in every field except
   [sum] — a float accumulation, associative only to the ulp — so the
   comparison blanks the sum's 8 codec bytes and checks it separately
   to relative 1e-12. Quantiles depend only on the invariant fields. *)
let sum_off = 2 + 1 + 8 + 8 + 8 + 8 + 8 (* codec offset of the sum f64 *)

let strip_sum s =
  String.sub s 0 sum_off
  ^ String.make 8 '\x00'
  ^ String.sub s (sum_off + 8) (String.length s - sum_off - 8)

let test_merge_tree_invariance () =
  let r = rng ~seed:7 () in
  for _ = 1 to 15 do
    let n = 200 + Prng.Rng.int r 2000 in
    let xs =
      Array.init n (fun _ -> -.Float.log (1e-300 +. Prng.Rng.float r) *. 50.)
    in
    let pooled = sk xs in
    let k = 2 + Prng.Rng.int r 6 in
    let shards =
      List.init k (fun s ->
          let lo = s * n / k and hi = (s + 1) * n / k in
          sk (Array.sub xs lo (hi - lo)))
    in
    let bytes t = strip_sum (Stats.Quantile_sketch.to_string t) in
    let check_sum name a b =
      let sa = Stats.Quantile_sketch.sum a
      and sb = Stats.Quantile_sketch.sum b in
      check_true name (Float.abs (sa -. sb) <= 1e-12 *. Float.abs sb)
    in
    (* left fold *)
    let left =
      List.fold_left Stats.Quantile_sketch.merge (List.hd shards)
        (List.tl shards)
    in
    (* right-leaning fold over the reversed shard list *)
    let right =
      List.fold_left Stats.Quantile_sketch.merge
        (List.hd (List.rev shards))
        (List.tl (List.rev shards))
    in
    (* balanced pairwise reduction *)
    let rec pairwise = function
      | [] -> assert false
      | [ t ] -> t
      | ts ->
        let rec pair = function
          | a :: b :: rest -> Stats.Quantile_sketch.merge a b :: pair rest
          | rest -> rest
        in
        pairwise (pair ts)
    in
    let balanced = pairwise shards in
    check_true "left fold = pooled" (bytes left = bytes pooled);
    check_true "reversed fold = pooled" (bytes right = bytes pooled);
    check_true "balanced tree = pooled" (bytes balanced = bytes pooled);
    check_sum "left fold sum ~ pooled" left pooled;
    check_sum "balanced sum ~ pooled" balanced pooled;
    (* and therefore the quantile read-outs are bit-identical *)
    List.iter
      (fun q ->
        check_true "quantiles invariant"
          (Int64.bits_of_float (Stats.Quantile_sketch.quantile left q)
          = Int64.bits_of_float (Stats.Quantile_sketch.quantile pooled q)
          && Int64.bits_of_float (Stats.Quantile_sketch.quantile balanced q)
             = Int64.bits_of_float (Stats.Quantile_sketch.quantile pooled q)))
      [ 0.; 0.01; 0.5; 0.99; 0.999; 1. ];
    (* merge_into leaves the source untouched *)
    let a = sk (Array.sub xs 0 (n / 2)) in
    let before = bytes a in
    ignore (Stats.Quantile_sketch.merge a pooled);
    check_true "merge leaves operands intact" (bytes a = before)
  done

let test_codec_roundtrip () =
  let r = rng ~seed:31 () in
  for trial = 1 to 20 do
    let n = Prng.Rng.int r 1000 in
    let xs =
      Array.init n (fun i ->
          if i mod 7 = 0 then 0. else Prng.Rng.float r *. 1e4)
    in
    let accuracy = if trial mod 2 = 0 then 0.01 else 0.03 in
    let t = sk ~accuracy xs in
    let wire = Stats.Quantile_sketch.to_string t in
    match Stats.Quantile_sketch.of_string wire with
    | Error e -> Alcotest.fail e
    | Ok t' ->
      check_true "re-encode byte-identical"
        (Stats.Quantile_sketch.to_string t' = wire);
      check_int "count survives" (Stats.Quantile_sketch.count t)
        (Stats.Quantile_sketch.count t');
      List.iter2
        (fun a b ->
          check_true "quantiles bit-identical"
            (Int64.bits_of_float a = Int64.bits_of_float b))
        (Stats.Quantile_sketch.quantiles t [ 0.; 0.5; 0.99; 1. ])
        (Stats.Quantile_sketch.quantiles t' [ 0.; 0.5; 0.99; 1. ])
  done

let test_codec_rejects () =
  let t = sk (Array.init 300 (fun i -> float_of_int (1 + (i mod 40)))) in
  let wire = Stats.Quantile_sketch.to_string t in
  (* Every strict prefix is rejected (the bucket table length must match
     the header), as is trailing garbage. *)
  for len = 0 to String.length wire - 1 do
    match Stats.Quantile_sketch.of_string (String.sub wire 0 len) with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "prefix of %d bytes accepted" len
  done;
  (match Stats.Quantile_sketch.of_string (wire ^ "\x00") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing garbage accepted");
  let flip pos s =
    let b = Bytes.of_string s in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x01));
    Bytes.to_string b
  in
  (match Stats.Quantile_sketch.of_string (flip 0 wire) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad magic accepted");
  (match Stats.Quantile_sketch.of_string (flip 2 wire) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad version accepted");
  (* Corrupting a bucket count breaks the counts-sum-to-n check. *)
  (match Stats.Quantile_sketch.of_string
           (flip (String.length wire - 8) wire)
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "corrupt bucket count accepted")

let suite =
  ( "sketch",
    [
      tc "quantile error bound" test_error_bound;
      tc "zero cell" test_zero_handling;
      tc "empty + argument validation" test_empty_and_validation;
      tc "exact moments" test_moments_exact;
      tc "merge-tree invariance (bit-exact)" test_merge_tree_invariance;
      tc "wire codec round-trip" test_codec_roundtrip;
      tc "wire codec rejects malformed input" test_codec_rejects;
    ] )
