type t = { mutable n : int; mutable mean : float; mutable m2 : float }

let create () = { n = 0; mean = 0.; m2 = 0. }

let add t x =
  let n = t.n + 1 in
  let d = x -. t.mean in
  let mean = t.mean +. (d /. float_of_int n) in
  t.m2 <- t.m2 +. (d *. (x -. mean));
  t.mean <- mean;
  t.n <- n

let merge_counts dst n_b mean_b m2_b =
  if n_b > 0 then begin
    if dst.n = 0 then begin
      dst.n <- n_b;
      dst.mean <- mean_b;
      dst.m2 <- m2_b
    end
    else begin
      let na = float_of_int dst.n and nb = float_of_int n_b in
      let n = dst.n + n_b in
      let nf = na +. nb in
      let d = mean_b -. dst.mean in
      dst.mean <- dst.mean +. (d *. (nb /. nf));
      dst.m2 <- dst.m2 +. m2_b +. (d *. d *. (na *. nb /. nf));
      dst.n <- n
    end
  end

let add_slice t xs pos len =
  if len = 1 then add t xs.(pos)
  else if len > 1 then begin
    let sum = ref 0. in
    for i = pos to pos + len - 1 do
      sum := !sum +. xs.(i)
    done;
    let mean = !sum /. float_of_int len in
    let m2 = ref 0. in
    for i = pos to pos + len - 1 do
      let d = xs.(i) -. mean in
      m2 := !m2 +. (d *. d)
    done;
    merge_counts t len mean !m2
  end

let count t = t.n
let mean t = if t.n = 0 then nan else t.mean
let variance t = if t.n = 0 then nan else t.m2 /. float_of_int t.n
