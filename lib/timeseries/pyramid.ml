(* Cascade invariant: a "level-j value" is the sum of an aligned block of
   2^j raw values. Level j keeps moments over its completed values plus at
   most one pending value (the carry) waiting for its pair partner; two
   consecutive level-j values sum to one level-(j+1) value. Pairing is by
   absolute position, so block sums are bit-identical whatever chunk sizes
   arrive — only the Chan-merge rounding of the moment accumulators
   (~1 ulp) depends on the chunking.

   Subscribers (exact non-dyadic levels) are fed one of two ways:

   - direct, for small groups: [group] consecutive level-[src] values
     are summed per block with a run-based loop (one branch per run
     instead of one per element);
   - decomposed, for [group >= 32]: the bulk of every block is assembled
     from coarse level-[src+shift] cascade values (each worth
     [G = 2^shift <= group/8] level-[src] values), leaving only the two
     boundary runs — fewer than 2G values — to be summed at level
     [src]. This turns the coarse odd levels of a quarter-decade ladder
     (m = 5623, 17783, ...) from full rescans of the level-[src] stream
     into a ~2G/group fraction of it. Raw boundary runs and interior
     coarse values accumulate in separate per-block slots and are
     combined once when the block completes, so block values do not
     depend on how the input was chunked.

   Completed block values are staged in a small buffer and Chan-merged
   into the subscriber's moments in batches, amortising the per-value
   Welford division. *)

type level = {
  moments : Moments.t;
  mutable carry : float;
  mutable have_carry : bool;
  (* Haar detail energy of the pairs formed FROM this level: every pair
     (s_L, s_R) of consecutive level-k values is one octave-(k+1) Haar
     detail coefficient up to normalisation, so the cascade accumulates
     sum (s_L - s_R)^2 as it pairs — the Abry-Veitch logscale diagram
     for free. Terms are added one at a time in pair-position order
     (never batched per chunk), so the accumulator is bit-identical
     under every chunking; normalisation by 2^(k+1) (exact) and the
     coefficient count happen at read-out. *)
  mutable denergy : float;
}

let stage_cap = 64

type subscriber = {
  sm : int;  (* requested aggregation level *)
  src : int;  (* cascade level consumed: the 2-adic valuation of sm *)
  group : int;  (* sm / 2^src level-[src] values per block *)
  smoments : Moments.t;
  stage : float array;  (* completed block values awaiting a batch merge *)
  mutable nstage : int;
  (* direct path *)
  mutable ssum : float;
  mutable scnt : int;
  (* decomposed path *)
  shift : int;  (* 0 = direct; else also consume level [src + shift] *)
  mutable i_raw : int;  (* next level-[src] value index *)
  mutable b_raw : int;  (* block the raw cursor is inside *)
  mutable h1 : int;  (* end of b_raw's head raw run *)
  mutable h2 : int;  (* start of b_raw's tail raw run *)
  mutable q_aux : int;  (* next level-[src+shift] value index *)
  mutable b_aux : int;  (* block the coarse cursor is inside *)
  mutable q_lo : int;  (* b_aux's interior coarse values: [q_lo, q_hi) *)
  mutable q_hi : int;
  mutable pend_raw : float array;  (* ring, slot = block land (cap - 1) *)
  mutable pend_aux : float array;
  mutable pend_base : int;  (* oldest block not yet complete *)
}

type t = {
  mutable levels : level array;
  mutable nlevels : int;
  subs : subscriber array;
  mutable scratch_a : float array;
  mutable scratch_b : float array;
  mutable nchunks : int;
  mutable peak : int;
  c_chunks : Engine.Telemetry.counter;
  c_levels : Engine.Telemetry.counter;
  c_peak : Engine.Telemetry.counter;
}

let is_pow2 m = m land (m - 1) = 0

let rec valuation m = if m land 1 = 1 then 0 else 1 + valuation (m lsr 1)

let rec log2_floor m = if m <= 1 then 0 else 1 + log2_floor (m lsr 1)

(* Deepest sensible cascade level: blocks of 2^62 values never complete. *)
let max_depth = 62

let fresh_level () =
  { moments = Moments.create (); carry = 0.; have_carry = false; denergy = 0. }

let create ?(levels = []) () =
  let subs =
    List.sort_uniq compare levels
    |> List.filter (fun m -> m >= 1 && not (is_pow2 m))
    |> List.map (fun sm ->
           let src = valuation sm in
           let group = sm lsr src in
           let shift = if group >= 32 then log2_floor group - 3 else 0 in
           let decomposed = shift > 0 in
           {
             sm;
             src;
             group;
             smoments = Moments.create ();
             stage = Array.make stage_cap 0.;
             nstage = 0;
             ssum = 0.;
             scnt = 0;
             shift;
             i_raw = 0;
             b_raw = 0;
             h1 = 0;
             h2 = (if decomposed then (group lsr shift) lsl shift else 0);
             q_aux = 0;
             b_aux = 0;
             q_lo = 0;
             q_hi = (if decomposed then group lsr shift else 0);
             pend_raw = (if decomposed then Array.make 8 0. else [||]);
             pend_aux = (if decomposed then Array.make 8 0. else [||]);
             pend_base = 0;
           })
    |> Array.of_list
  in
  {
    levels = [| fresh_level () |];
    nlevels = 1;
    subs;
    scratch_a = [||];
    scratch_b = [||];
    nchunks = 0;
    peak = 0;
    c_chunks = Engine.Telemetry.counter "pyramid.chunks";
    c_levels = Engine.Telemetry.counter "pyramid.levels";
    c_peak = Engine.Telemetry.counter "pyramid.peak-resident-floats";
  }

let resident_floats t =
  Array.length t.scratch_a
  + Array.length t.scratch_b
  + (2 * t.nlevels)
  + Array.fold_left
      (fun acc s ->
        acc + 2 + Array.length s.stage + Array.length s.pend_raw
        + Array.length s.pend_aux)
      0 t.subs

let note_peak t =
  let r = resident_floats t in
  if r > t.peak then begin
    Engine.Telemetry.add t.c_peak (r - t.peak);
    t.peak <- r
  end

let ensure_level t k =
  if k >= t.nlevels then begin
    if k >= Array.length t.levels then begin
      let cap = Int.min (max_depth + 1) (Int.max 8 (2 * (k + 1))) in
      let bigger = Array.init cap (fun _ -> fresh_level ()) in
      Array.blit t.levels 0 bigger 0 t.nlevels;
      t.levels <- bigger
    end;
    Engine.Telemetry.add t.c_levels (k + 1 - t.nlevels);
    t.nlevels <- k + 1
  end

let ensure_scratch t need =
  if Array.length t.scratch_a < need then begin
    t.scratch_a <- Array.make need 0.;
    t.scratch_b <- Array.make need 0.
  end

(* ---- subscriber feeding ---- *)

let emit sub v =
  sub.stage.(sub.nstage) <- v;
  sub.nstage <- sub.nstage + 1;
  if sub.nstage = stage_cap then begin
    Moments.add_slice sub.smoments sub.stage 0 stage_cap;
    sub.nstage <- 0
  end

let flush_stage sub =
  if sub.nstage > 0 then begin
    Moments.add_slice sub.smoments sub.stage 0 sub.nstage;
    sub.nstage <- 0
  end

(* Sum [buf.(pos .. pos+len-1)] onto [init]; every caller has already
   established that the range lies inside [buf]. *)
let run_sum buf pos len init =
  let s = ref init in
  for j = pos to pos + len - 1 do
    s := !s +. Array.unsafe_get buf j
  done;
  !s

let feed_direct sub buf pos len =
  let g = sub.group in
  let stop = pos + len in
  let i = ref pos in
  (* finish the partial block carried over from the previous slice *)
  if sub.scnt > 0 then begin
    let take = Int.min (g - sub.scnt) len in
    let s = run_sum buf !i take sub.ssum in
    i := !i + take;
    if sub.scnt + take = g then begin
      let ns = sub.nstage in
      Array.unsafe_set sub.stage ns s;
      sub.nstage <- ns + 1;
      if ns + 1 = stage_cap then flush_stage sub;
      sub.ssum <- 0.;
      sub.scnt <- 0
    end
    else begin
      sub.ssum <- s;
      sub.scnt <- sub.scnt + take
    end
  end;
  (* full blocks wholly inside the slice; no run bookkeeping needed.
     g = 3 (the ladder's m = 3 and m = 6) gets a two-block unroll: the
     per-block cost there is all loop and staging overhead. *)
  if g = 3 then
    while !i + 6 <= stop do
      let b0 =
        Array.unsafe_get buf !i
        +. Array.unsafe_get buf (!i + 1)
        +. Array.unsafe_get buf (!i + 2)
      and b1 =
        Array.unsafe_get buf (!i + 3)
        +. Array.unsafe_get buf (!i + 4)
        +. Array.unsafe_get buf (!i + 5)
      in
      let ns = sub.nstage in
      if ns + 2 <= stage_cap then begin
        Array.unsafe_set sub.stage ns b0;
        Array.unsafe_set sub.stage (ns + 1) b1;
        sub.nstage <- ns + 2;
        if ns + 2 = stage_cap then flush_stage sub
      end
      else begin
        emit sub b0;
        emit sub b1
      end;
      i := !i + 6
    done;
  while !i + g <= stop do
    let e = !i + g in
    let s = ref 0. in
    for j = !i to e - 1 do
      s := !s +. Array.unsafe_get buf j
    done;
    let ns = sub.nstage in
    Array.unsafe_set sub.stage ns !s;
    sub.nstage <- ns + 1;
    if ns + 1 = stage_cap then flush_stage sub;
    i := e
  done;
  (* trailing partial block *)
  if !i < stop then begin
    sub.ssum <- run_sum buf !i (stop - !i) 0.;
    sub.scnt <- stop - !i
  end

let set_raw_block sub b =
  sub.b_raw <- b;
  let g = sub.group and sh = sub.shift in
  sub.h1 <- (((b * g) + (1 lsl sh) - 1) lsr sh) lsl sh;
  sub.h2 <- (((b + 1) * g) lsr sh) lsl sh

let set_aux_block sub b =
  sub.b_aux <- b;
  let g = sub.group and sh = sub.shift in
  sub.q_lo <- ((b * g) + (1 lsl sh) - 1) lsr sh;
  sub.q_hi <- ((b + 1) * g) lsr sh

(* Both cursors have moved past every block below [min b_raw b_aux]:
   those blocks have all their pieces, in block order. *)
let finalize_completed sub =
  let upto = Int.min sub.b_raw sub.b_aux in
  if sub.pend_base < upto then begin
    let mask = Array.length sub.pend_raw - 1 in
    while sub.pend_base < upto do
      let s = sub.pend_base land mask in
      emit sub (sub.pend_raw.(s) +. sub.pend_aux.(s));
      sub.pend_raw.(s) <- 0.;
      sub.pend_aux.(s) <- 0.;
      sub.pend_base <- sub.pend_base + 1
    done
  end

(* Grow the pending ring so block [b] has a slot. Slots are addressed by
   block index modulo the (power-of-two) capacity, so re-inserting every
   live slot under the new mask preserves addressing. *)
let ensure_slot sub b =
  let cap = Array.length sub.pend_raw in
  if b - sub.pend_base >= cap then begin
    let ncap = ref (cap * 2) in
    while b - sub.pend_base >= !ncap do
      ncap := !ncap * 2
    done;
    let nr = Array.make !ncap 0. and na = Array.make !ncap 0. in
    for bb = sub.pend_base to sub.pend_base + cap - 1 do
      let old = bb land (cap - 1) and nw = bb land (!ncap - 1) in
      nr.(nw) <- sub.pend_raw.(old);
      na.(nw) <- sub.pend_aux.(old)
    done;
    sub.pend_raw <- nr;
    sub.pend_aux <- na
  end

let feed_decomp_raw sub buf pos len =
  let stop = sub.i_raw + len in
  let base = pos - sub.i_raw in
  let g = sub.group in
  while sub.i_raw < stop do
    let i = sub.i_raw in
    if i < sub.h1 then begin
      let e = Int.min sub.h1 stop in
      let s = run_sum buf (base + i) (e - i) 0. in
      let slot = sub.b_raw land (Array.length sub.pend_raw - 1) in
      sub.pend_raw.(slot) <- sub.pend_raw.(slot) +. s;
      sub.i_raw <- e
    end
    else if i < sub.h2 then begin
      (* interior values arrive pre-summed from level [src+shift] *)
      sub.i_raw <- Int.min sub.h2 stop;
      (* A block whose end is G-aligned has an empty tail run: the raw
         cursor must advance past it here, or the block stays pending
         (and [stat] one short) until the next push. *)
      if sub.i_raw = sub.h2 && sub.h2 = (sub.b_raw + 1) * g then begin
        ensure_slot sub (sub.b_raw + 1);
        set_raw_block sub (sub.b_raw + 1);
        finalize_completed sub
      end
    end
    else begin
      let be = (sub.b_raw + 1) * g in
      let e = Int.min be stop in
      let s = run_sum buf (base + i) (e - i) 0. in
      let slot = sub.b_raw land (Array.length sub.pend_raw - 1) in
      sub.pend_raw.(slot) <- sub.pend_raw.(slot) +. s;
      sub.i_raw <- e;
      if e = be then begin
        ensure_slot sub (sub.b_raw + 1);
        set_raw_block sub (sub.b_raw + 1);
        finalize_completed sub
      end
    end
  done

let feed_decomp_aux sub vals pos len =
  let stop = sub.q_aux + len in
  let base = pos - sub.q_aux in
  while sub.q_aux < stop do
    let q = sub.q_aux in
    if q < sub.q_lo then
      (* a value straddling two blocks; its span is covered by raw runs *)
      sub.q_aux <- Int.min sub.q_lo stop
    else begin
      let e = Int.min sub.q_hi stop in
      let s = run_sum vals (base + q) (e - q) 0. in
      let slot = sub.b_aux land (Array.length sub.pend_raw - 1) in
      sub.pend_aux.(slot) <- sub.pend_aux.(slot) +. s;
      sub.q_aux <- e;
      if e = sub.q_hi then begin
        ensure_slot sub (sub.b_aux + 1);
        set_aux_block sub (sub.b_aux + 1);
        finalize_completed sub
      end
    end
  done

(* ---- the cascade ---- *)

(* One pass for the slice sum, then a fused pass accumulating squared
   deviations (same element order as [Moments.add_slice], so level
   moments are unchanged) while building the level-(k+1) pair sums and
   the Haar detail energy of each completed pair. The energy accumulator
   is threaded through a local ref seeded from [lev.denergy] and stored
   back once: the float additions are the same one-term-at-a-time
   sequence as a per-pair store, so the value is bit-identical under
   every chunking, with no memory traffic in the loop. Combines [lev]'s
   pending carry with the first value; a trailing unpaired value becomes
   the new carry. Returns the number of level-(k+1) values produced. *)
let absorb_and_pair lev cur pos len out =
  let stop = pos + len in
  let sum = ref 0. in
  for j = pos to stop - 1 do
    sum := !sum +. Array.unsafe_get cur j
  done;
  let mean = !sum /. float_of_int len in
  let m2 = ref 0. in
  let e = ref lev.denergy in
  let o = ref 0 and i = ref pos in
  if lev.have_carry then begin
    let x = Array.unsafe_get cur !i in
    let d = x -. mean in
    m2 := !m2 +. (d *. d);
    let dc = lev.carry -. x in
    e := !e +. (dc *. dc);
    out.(0) <- lev.carry +. x;
    lev.have_carry <- false;
    incr i;
    o := 1
  end;
  while !i + 1 < stop do
    let x0 = Array.unsafe_get cur !i
    and x1 = Array.unsafe_get cur (!i + 1) in
    let d0 = x0 -. mean and d1 = x1 -. mean in
    m2 := !m2 +. (d0 *. d0);
    m2 := !m2 +. (d1 *. d1);
    let dd = x0 -. x1 in
    e := !e +. (dd *. dd);
    Array.unsafe_set out !o (x0 +. x1);
    i := !i + 2;
    incr o
  done;
  if !i < stop then begin
    let x = Array.unsafe_get cur !i in
    let d = x -. mean in
    m2 := !m2 +. (d *. d);
    lev.carry <- x;
    lev.have_carry <- true
  end;
  lev.denergy <- !e;
  Moments.merge_counts lev.moments len mean !m2;
  !o

let push_slice t xs pos len =
  if pos < 0 || len < 0 || pos + len > Array.length xs then
    invalid_arg
      (Printf.sprintf "Pyramid.push_slice: slice [%d, %d) of %d" pos
         (pos + len) (Array.length xs));
  t.nchunks <- t.nchunks + 1;
  Engine.Telemetry.bump t.c_chunks;
  if len > 0 then begin
    ensure_scratch t ((len + 2) / 2);
    let cur = ref xs and cpos = ref pos and clen = ref len in
    let k = ref 0 in
    let continue = ref true in
    while !continue do
      let lev = t.levels.(!k) in
      Array.iter
        (fun sub ->
          if sub.src = !k then begin
            if sub.shift = 0 then feed_direct sub !cur !cpos !clen
            else feed_decomp_raw sub !cur !cpos !clen
          end
          else if sub.shift > 0 && sub.src + sub.shift = !k then
            feed_decomp_aux sub !cur !cpos !clen)
        t.subs;
      if !k = max_depth then begin
        Moments.add_slice lev.moments !cur !cpos !clen;
        continue := false
      end
      else begin
        let out = if !k land 1 = 0 then t.scratch_a else t.scratch_b in
        let produced = absorb_and_pair lev !cur !cpos !clen out in
        if produced = 0 then continue := false
        else begin
          ensure_level t (!k + 1);
          cur := out;
          cpos := 0;
          clen := produced;
          incr k
        end
      end
    done;
    note_peak t
  end

let push t xs = push_slice t xs 0 (Array.length xs)

let count t = Moments.count t.levels.(0).moments
let mean t = Moments.mean t.levels.(0).moments

let depth t = t.nlevels
let chunks t = t.nchunks

type level_stat = {
  requested : int;
  served : int;
  exact : bool;
  blocks : int;
  mean_sum : float;
  var_sum : float;
}

let stat_of_moments ~requested ~served ~exact (m : Moments.t) =
  if Moments.count m = 0 then None
  else
    Some
      {
        requested;
        served;
        exact;
        blocks = Moments.count m;
        mean_sum = Moments.mean m;
        var_sum = Moments.variance m;
      }

let stat t m =
  if m < 1 then None
  else if is_pow2 m then begin
    let k = valuation m in
    if k < t.nlevels then
      stat_of_moments ~requested:m ~served:m ~exact:true
        t.levels.(k).moments
    else None
  end
  else
    match Array.find_opt (fun s -> s.sm = m) t.subs with
    | Some s ->
      flush_stage s;
      stat_of_moments ~requested:m ~served:m ~exact:true s.smoments
    | None ->
      (* Resample: the dyadic level nearest in log space that has data. *)
      let target = log (float_of_int m) /. log 2. in
      let best = ref None in
      for k = 0 to t.nlevels - 1 do
        if Moments.count t.levels.(k).moments > 0 then begin
          let d = Float.abs (float_of_int k -. target) in
          match !best with
          | Some (_, d') when d' <= d -> ()
          | _ -> best := Some (k, d)
        end
      done;
      Option.bind !best (fun (k, _) ->
          stat_of_moments ~requested:m ~served:(1 lsl k) ~exact:false
            t.levels.(k).moments)

(* ---- wavelet octave energies ----

   Octave j's Haar detail coefficients are (s_L - s_R) / 2^(j/2) over
   adjacent level-(j-1) block-sum pairs; the cascade accumulated the
   unnormalised sum of (s_L - s_R)^2 in [levels.(j-1).denergy] as it
   paired. Every completed level-j value is the sum of exactly one such
   pair, so the coefficient count at octave j is the level-j count. The
   raw energy is returned unscaled: dividing by 2^j (exact) and by the
   count is the estimator's job (Lrd.Wavelet), keeping a single shared
   normalisation between batch and streamed paths. *)

type octave_energy = { oe_j : int; oe_pairs : int; oe_raw : float }

let wavelet_octaves t =
  let out = ref [] in
  for j = t.nlevels - 1 downto 1 do
    let pairs = Moments.count t.levels.(j).moments in
    if pairs > 0 then
      out := { oe_j = j; oe_pairs = pairs; oe_raw = t.levels.(j - 1).denergy }
             :: !out
  done;
  !out

(* ---- snapshot / merge ----

   A snapshot is a cheap immutable copy of the dyadic analysis state:
   per-level moment summaries, detail energies and carries. Merging is
   the concatenation algebra: [merge_into dst s] leaves [dst] equal (block
   sums and carries bit-for-bit, moment accumulators to merge-order
   rounding) to the pyramid that consumed dst's stream followed by s's.
   Registered levels never take part: their partial-block cursors would
   have to land on the concatenated stream's block boundaries, and no
   caller merges them, so a pyramid with registered levels can neither
   be snapshotted nor merged into.

   Exactness needs alignment. Writing a = count dst, b = count s and
   v = v2(a) (the 2-adic valuation), a dyadic block of the concatenated
   stream straddles the boundary only at levels j with 2^j not dividing
   a, and such a block completes only if b >= 2^j - (a mod 2^j); the
   smallest such level is v + 1, where the bound is 2^v. So for
   b <= 2^v every straddling block is either still pending (stays a
   carry) or is exactly the pair (dst's level-v carry, s's level-v
   carry), which propagates up the cascade like a binary-addition carry
   chain. Equal power-of-two shards therefore always merge exactly, at
   any count. Violations raise Invalid_argument. *)

type level_snapshot = {
  ls_n : int;
  ls_mean : float;
  ls_m2 : float;
  ls_carry : float;
  ls_have_carry : bool;
  ls_denergy : float;
}

type snapshot = { sn_levels : level_snapshot array; sn_chunks : int }

let dyadic_only fn t =
  if Array.length t.subs > 0 then
    invalid_arg
      (Printf.sprintf
         "Pyramid.%s: the pyramid has registered levels (only level-free \
          pyramids snapshot and merge)"
         fn)

let snapshot t =
  dyadic_only "snapshot" t;
  let levels =
    Array.init t.nlevels (fun k ->
        let lev = t.levels.(k) in
        {
          ls_n = Moments.count lev.moments;
          ls_mean = lev.moments.Moments.mean;
          ls_m2 = lev.moments.Moments.m2;
          ls_carry = lev.carry;
          ls_have_carry = lev.have_carry;
          ls_denergy = lev.denergy;
        })
  in
  { sn_levels = levels; sn_chunks = t.nchunks }

let snapshot_count s =
  if Array.length s.sn_levels = 0 then 0 else s.sn_levels.(0).ls_n

(* Insert a completed level-[k] value produced by the merge boundary:
   count it and pair it with the level's carry — possibly rippling
   further up, exactly like binary addition. *)
let rec insert_value t k v =
  ensure_level t k;
  let lev = t.levels.(k) in
  Moments.add lev.moments v;
  if k < max_depth then begin
    if lev.have_carry then begin
      lev.have_carry <- false;
      let d = lev.carry -. v in
      lev.denergy <- lev.denergy +. (d *. d);
      insert_value t (k + 1) (lev.carry +. v)
    end
    else begin
      lev.carry <- v;
      lev.have_carry <- true
    end
  end

let merge_into t s =
  dyadic_only "merge_into" t;
  let b = snapshot_count s in
  if b > 0 then begin
    let a = count t in
    (* Into an empty pyramid the snapshot is adopted wholesale (v is
       past every level, so every carry is kept): it is already a valid
       state. *)
    let v = if a = 0 then max_int else Int.min max_depth (valuation a) in
    if a > 0 && b > 1 lsl v then
      invalid_arg
        (Printf.sprintf
           "Pyramid.merge_into: %d values cannot merge after %d (need \
            count <= 2^v2 = %d; align shards to power-of-two lengths)"
           b a (1 lsl v));
    (* Dyadic moments (and detail energies), and carries below the
       boundary level. Since b <= 2^v the right side formed no pairs at
       levels >= v, so its energy subtotals there are zero and levels
       >= v stay bit-identical to inline concatenation; below v the
       subtotal add is merge-order rounding, same policy as moments. *)
    Array.iteri
      (fun k ls ->
        ensure_level t k;
        let lev = t.levels.(k) in
        Moments.merge_counts lev.moments ls.ls_n ls.ls_mean ls.ls_m2;
        lev.denergy <- lev.denergy +. ls.ls_denergy;
        if ls.ls_have_carry && k < v then begin
          lev.carry <- ls.ls_carry;
          lev.have_carry <- true
        end)
      s.sn_levels;
    (* The one straddling block: both sides' level-v carries pair. *)
    if Array.length s.sn_levels > v && s.sn_levels.(v).ls_have_carry then begin
      let lev = t.levels.(v) in
      lev.have_carry <- false;
      let d = lev.carry -. s.sn_levels.(v).ls_carry in
      lev.denergy <- lev.denergy +. (d *. d);
      insert_value t (v + 1) (lev.carry +. s.sn_levels.(v).ls_carry)
    end;
    t.nchunks <- t.nchunks + s.sn_chunks;
    note_peak t
  end

let of_snapshot s =
  let t = create () in
  merge_into t s;
  t

let merge a b =
  let t = of_snapshot a in
  merge_into t b;
  snapshot t

(* ---- snapshot wire codec ----

   Fixed-width little-endian layout (Engine.Frame.Wr/Rd), floats as raw
   IEEE bits, so serialize -> deserialize is the identity on every field
   and a deserialized snapshot merges bit-for-bit like the original.
   The farm ships these as frame payloads between worker and
   coordinator processes. *)

(* Version 2 added [ls_denergy] (the per-level Haar detail energy);
   version 3 dropped the registered-level section. *)
let snapshot_codec_version = 3

let snapshot_to_string s =
  let open Engine.Frame.Wr in
  let b = Buffer.create 256 in
  u8 b snapshot_codec_version;
  i64 b s.sn_chunks;
  u16 b (Array.length s.sn_levels);
  Array.iter
    (fun ls ->
      i64 b ls.ls_n;
      f64 b ls.ls_mean;
      f64 b ls.ls_m2;
      f64 b ls.ls_carry;
      u8 b (if ls.ls_have_carry then 1 else 0);
      f64 b ls.ls_denergy)
    s.sn_levels;
  Buffer.contents b

let snapshot_of_string bytes =
  let open Engine.Frame.Rd in
  match
    let c = of_string bytes in
    let ver = u8 c in
    if ver <> snapshot_codec_version then
      raise
        (Malformed (Printf.sprintf "snapshot codec version %d (want %d)" ver
                      snapshot_codec_version));
    let nonneg what v =
      if v < 0 then raise (Malformed (Printf.sprintf "negative %s" what));
      v
    in
    let sn_chunks = nonneg "chunk count" (i64 c) in
    let nlev = u16 c in
    let sn_levels =
      Array.init nlev (fun _ ->
          let ls_n = nonneg "level count" (i64 c) in
          let ls_mean = f64 c in
          let ls_m2 = f64 c in
          let ls_carry = f64 c in
          let ls_have_carry = u8 c <> 0 in
          let ls_denergy = f64 c in
          { ls_n; ls_mean; ls_m2; ls_carry; ls_have_carry; ls_denergy })
    in
    if not (at_end c) then raise (Malformed "trailing bytes");
    { sn_levels; sn_chunks }
  with
  | s -> Ok s
  | exception Malformed m -> Error ("Pyramid.snapshot_of_string: " ^ m)
