(* Structure-of-arrays binary min-heap: float keys in a [float array]
   (unboxed storage), int payloads in an [int array]. This is the one
   float-keyed heap in the repo: [Arrival.merge]'s k-way merge,
   [Superpose]'s source scheduler and [Mg_inf]'s departure-index heap
   (int sample indices as exact float keys) use it directly, and the
   generic [Queueing.Heap] is a facade that maps its ['a] payloads to
   slot indices. Keeping keys and payloads in parallel primitive arrays means
   no per-element tuples or boxed floats, which is what the zero-alloc
   queueing fast path needs: [push], [min_key], [min_val], [pop_min] and
   [replace_min] allocate nothing once the arrays have grown to peak
   size. *)

type t = {
  mutable keys : float array;
  mutable vals : int array;
  mutable size : int;
}

let create ?(cap = 16) () =
  let cap = if cap < 1 then 1 else cap in
  { keys = Array.make cap 0.; vals = Array.make cap 0; size = 0 }

let size t = t.size
let is_empty t = t.size = 0

(* Precondition for both: [size t > 0]; unchecked like any array read,
   the heap's own bounds check is the guard. *)
let[@inline] min_key t = t.keys.(0)
let[@inline] min_val t = t.vals.(0)

let grow t =
  let n = 2 * Array.length t.keys in
  let keys = Array.make n 0. and vals = Array.make n 0 in
  Array.blit t.keys 0 keys 0 t.size;
  Array.blit t.vals 0 vals 0 t.size;
  t.keys <- keys;
  t.vals <- vals

(* Both sifts move a hole instead of swapping: each level on the path
   costs one key and one payload write, and the moving element is
   stored once at the end. The comparisons, and so the final layout,
   are those of the swapping sift. *)
let[@inline] sift_up t i key v =
  let keys = t.keys and vals = t.vals in
  let i = ref i in
  while
    !i > 0
    &&
    let p = (!i - 1) / 2 in
    key < keys.(p)
  do
    let p = (!i - 1) / 2 in
    keys.(!i) <- keys.(p);
    vals.(!i) <- vals.(p);
    i := p
  done;
  keys.(!i) <- key;
  vals.(!i) <- v

let[@inline] sift_down t i key v =
  let keys = t.keys and vals = t.vals and size = t.size in
  let i = ref i and continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    let r = l + 1 in
    let m = if l < size && keys.(l) < key then l else !i in
    let m =
      if r < size && keys.(r) < if m = !i then key else keys.(m) then r
      else m
    in
    if m = !i then continue := false
    else begin
      keys.(!i) <- keys.(m);
      vals.(!i) <- vals.(m);
      i := m
    end
  done;
  keys.(!i) <- key;
  vals.(!i) <- v

let[@inline] push t key v =
  if t.size = Array.length t.keys then grow t;
  let i = t.size in
  t.size <- i + 1;
  sift_up t i key v

let pop_min t =
  let n = t.size - 1 in
  t.size <- n;
  if n > 0 then sift_down t 0 t.keys.(n) t.vals.(n)

let[@inline] replace_min t key v = sift_down t 0 key v
