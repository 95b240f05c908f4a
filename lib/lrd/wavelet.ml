type octave = { j : int; n_coeffs : int; log2_energy : float }

type estimate = {
  h : float;
  slope : float;
  r2 : float;
  stderr_h : float;
  j_lo : int;
  j_hi : int;
}

(* Shared normalisation between the batch and streamed paths: [raw] is
   the unnormalised sum of (s_L - s_R)^2 over the pairs of adjacent
   level-(j-1) block sums. Dividing by 2^j is exact (power of two), so
   identical raw energies yield bit-identical log2 energies on both
   paths. An all-zero octave has no logarithm: it reads [neg_infinity],
   and [estimate_octaves] skips it like an empty one. *)
let log2_energy_of_raw ~j ~pairs raw =
  let energy = raw /. float_of_int (1 lsl j) /. float_of_int pairs in
  log energy /. log 2.

(* Haar cascade on unnormalised pair sums — the same recurrence
   [Timeseries.Pyramid] streams: octave j's detail is s_L - s_R over
   adjacent level-(j-1) block sums, energy accumulated one term at a
   time in pair order, so the raw energies here are bit-identical to a
   pyramid fed the same series under any chunking. No power-of-two
   truncation: octave j has floor (n / 2^j) coefficients, exactly the
   pyramid's completed-block counts (a trailing unpaired value stays an
   unconsumed carry on both paths). *)
let decompose xs =
  let n = Array.length xs in
  if n < 16 then
    invalid_arg
      (Printf.sprintf "Wavelet.decompose: %d observations (need >= 16)" n);
  let cur = ref xs and len = ref n and j = ref 1 in
  let out = ref [] in
  while !len >= 2 do
    let half = !len / 2 in
    let nxt = Array.make half 0. in
    let raw = ref 0. in
    for k = 0 to half - 1 do
      let x = Array.unsafe_get !cur (2 * k)
      and y = Array.unsafe_get !cur ((2 * k) + 1) in
      let d = x -. y in
      raw := !raw +. (d *. d);
      Array.unsafe_set nxt k (x +. y)
    done;
    out :=
      {
        j = !j;
        n_coeffs = half;
        log2_energy = log2_energy_of_raw ~j:!j ~pairs:half !raw;
      }
      :: !out;
    cur := nxt;
    len := half;
    incr j
  done;
  List.rev !out

let octaves_of_pyramid pyr =
  Timeseries.Pyramid.wavelet_octaves pyr
  |> List.map (fun (o : Timeseries.Pyramid.octave_energy) ->
         {
           j = o.oe_j;
           n_coeffs = o.oe_pairs;
           log2_energy =
             log2_energy_of_raw ~j:o.oe_j ~pairs:o.oe_pairs o.oe_raw;
         })

let estimate_octaves ?(j_lo = 2) ?j_hi octaves =
  let max_j = List.fold_left (fun acc o -> Int.max acc o.j) 0 octaves in
  let j_hi =
    match j_hi with
    | Some j -> j
    | None ->
      (* Largest octave still holding >= 8 coefficients: coarser octaves
         have too few details for a stable energy estimate. *)
      List.fold_left
        (fun acc o -> if o.n_coeffs >= 8 then Int.max acc o.j else acc)
        j_lo octaves
  in
  let points =
    List.filter_map
      (fun o ->
        (* A zero-energy octave (a window with no variation at that
           scale) carries no scaling information; fitting its log would
           invent an H. *)
        if
          o.j >= j_lo && o.j <= j_hi && o.n_coeffs > 0
          && Float.is_finite o.log2_energy
        then
          Some (float_of_int o.j, o.log2_energy)
        else None)
      octaves
  in
  let k = List.length points in
  if k < 2 then
    invalid_arg
      (Printf.sprintf
         "Wavelet.estimate: octave window [%d, %d] holds %d usable octave%s \
          (need >= 2; series has octaves 1..%d — lengthen the series or \
          widen j_lo/j_hi)"
         j_lo j_hi k
         (if k = 1 then "" else "s")
         max_j);
  let fit = Stats.Regression.ols (Array.of_list points) in
  {
    h = (fit.Stats.Regression.slope +. 1.) /. 2.;
    slope = fit.slope;
    r2 = fit.r2;
    stderr_h = fit.stderr_slope /. 2.;
    j_lo;
    j_hi;
  }

let estimate ?j_lo ?j_hi xs = estimate_octaves ?j_lo ?j_hi (decompose xs)

let estimate_of_pyramid ?j_lo ?j_hi pyr =
  estimate_octaves ?j_lo ?j_hi (octaves_of_pyramid pyr)
