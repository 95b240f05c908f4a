let check_nonempty xs = assert (Array.length xs > 0)

let mean xs =
  check_nonempty xs;
  Array.fold_left ( +. ) 0. xs /. float_of_int (Array.length xs)

let variance xs =
  check_nonempty xs;
  let m = mean xs in
  let acc = ref 0. in
  Array.iter
    (fun x ->
      let d = x -. m in
      acc := !acc +. (d *. d))
    xs;
  !acc /. float_of_int (Array.length xs)

let variance_unbiased xs =
  assert (Array.length xs >= 2);
  variance xs *. float_of_int (Array.length xs)
  /. float_of_int (Array.length xs - 1)

let std xs = sqrt (variance xs)

let geometric_mean xs =
  check_nonempty xs;
  let acc = ref 0. in
  Array.iter
    (fun x ->
      assert (x > 0.);
      acc := !acc +. log x)
    xs;
  exp (!acc /. float_of_int (Array.length xs))

let minimum xs =
  check_nonempty xs;
  Array.fold_left Float.min xs.(0) xs

let maximum xs =
  check_nonempty xs;
  Array.fold_left Float.max xs.(0) xs

let quantile xs p =
  check_nonempty xs;
  assert (p >= 0. && p <= 1.);
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  let n = Array.length sorted in
  if n = 1 then sorted.(0)
  else
    let h = p *. float_of_int (n - 1) in
    let i = int_of_float (Float.floor h) in
    let i = Int.min i (n - 2) in
    let f = h -. float_of_int i in
    sorted.(i) +. (f *. (sorted.(i + 1) -. sorted.(i)))

let median xs = quantile xs 0.5

let autocorrelation xs k =
  let n = Array.length xs in
  assert (k >= 0 && k < n);
  let m = mean xs in
  let c0 = ref 0. and ck = ref 0. in
  for i = 0 to n - 1 do
    let d = xs.(i) -. m in
    c0 := !c0 +. (d *. d)
  done;
  for i = 0 to n - 1 - k do
    ck := !ck +. ((xs.(i) -. m) *. (xs.(i + k) -. m))
  done;
  if !c0 = 0. then 0. else !ck /. !c0

let autocorrelations xs kmax = Array.init (kmax + 1) (autocorrelation xs)

let diffs xs =
  assert (Array.length xs >= 2);
  Array.init (Array.length xs - 1) (fun i -> xs.(i + 1) -. xs.(i))

let summary xs =
  Printf.sprintf "n=%d mean=%.6g std=%.6g min=%.6g med=%.6g max=%.6g"
    (Array.length xs) (mean xs) (std xs) (minimum xs) (median xs) (maximum xs)

let ecdf_grid xs grid =
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  let n = Array.length sorted in
  let count_le x =
    (* Binary search: number of samples <= x. *)
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if sorted.(mid) <= x then lo := mid + 1 else hi := mid
    done;
    !lo
  in
  Array.map
    (fun g -> (g, float_of_int (count_le g) /. float_of_int (Int.max 1 n)))
    grid
