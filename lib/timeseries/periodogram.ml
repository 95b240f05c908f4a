type t = { freqs : float array; power : float array }

let compute xs =
  let n = Array.length xs in
  assert (n >= 4);
  let mean = Stats.Descriptive.mean xs in
  let centred = Array.map (fun x -> x -. mean) xs in
  let re, im = Fft.dft_real centred in
  let m = (n - 1) / 2 in
  let nf = float_of_int n in
  let freqs = Array.init m (fun j -> 2. *. Float.pi *. float_of_int (j + 1) /. nf) in
  let power =
    Array.init m (fun j ->
        let r = re.(j + 1) and i = im.(j + 1) in
        ((r *. r) +. (i *. i)) /. (2. *. Float.pi *. nf))
  in
  { freqs; power }

let low_frequency t ~fraction =
  assert (fraction > 0. && fraction <= 1.);
  let n = Array.length t.freqs in
  let k = Int.max 2 (int_of_float (fraction *. float_of_int n)) in
  let k = Int.min k n in
  { freqs = Array.sub t.freqs 0 k; power = Array.sub t.power 0 k }
